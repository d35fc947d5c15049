"""Tests for maximal frequent itemset mining."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.mining.fpclose import fpclose
from repro.mining.fpgrowth import fpgrowth
from repro.mining.maximal import lattice_summary, maximal_itemsets
from repro.mining.transactions import ItemCatalog, TransactionDatabase

ITEMS = [f"i{k}" for k in range(7)]
transactions_strategy = st.lists(
    st.sets(st.sampled_from(ITEMS), min_size=1, max_size=5),
    min_size=1,
    max_size=25,
)


class TestMaximal:
    def test_no_frequent_proper_superset(self, toy_database):
        frequent = {fi.items for fi in fpgrowth(toy_database, 2)}
        for maximal in maximal_itemsets(toy_database, 2):
            assert all(
                not (maximal.items < other) for other in frequent
            ), toy_database.catalog.labels(maximal.items)

    def test_known_maximal_sets(self, toy_database):
        catalog = toy_database.catalog
        maximal = {fi.items for fi in maximal_itemsets(toy_database, 2)}
        assert catalog.encode(["a", "b", "c"]) in maximal
        assert catalog.encode(["a", "b"]) not in maximal

    def test_every_frequent_itemset_has_a_maximal_cover(self, toy_database):
        maximal = [fi.items for fi in maximal_itemsets(toy_database, 2)]
        for fi in fpgrowth(toy_database, 2):
            assert any(fi.items <= cover for cover in maximal)

    def test_containment_chain_sizes(self, toy_database):
        summary = lattice_summary(toy_database, 1)
        assert summary["maximal"] <= summary["closed"] <= summary["frequent"]

    def test_empty_database(self):
        assert maximal_itemsets(TransactionDatabase([], ItemCatalog()), 1) == []

    def test_supports_exact(self, toy_database):
        for fi in maximal_itemsets(toy_database, 1):
            assert fi.support == toy_database.support(fi.items)


@settings(max_examples=50, deadline=None)
@given(transactions=transactions_strategy, threshold=st.integers(1, 4))
def test_maximal_properties_random(transactions, threshold):
    db = TransactionDatabase.from_labelled(transactions)
    frequent = {fi.items for fi in fpgrowth(db, threshold)}
    closed = {fi.items for fi in fpclose(db, threshold)}
    maximal = {fi.items for fi in maximal_itemsets(db, threshold)}
    # containment chain
    assert maximal <= closed <= frequent
    # maximality: no frequent proper superset
    for items in maximal:
        assert all(not (items < other) for other in frequent)
    # coverage: every frequent itemset under some maximal one
    for items in frequent:
        assert any(items <= cover for cover in maximal)


def test_order_is_canonical_whatever_the_miner_enumerates(toy_database, monkeypatch):
    """The output order is fixed by the itemsets, not by the search order."""
    from repro.mining import maximal as maximal_module
    from repro.mining.transactions import canonical_itemset_order

    forward = maximal_itemsets(toy_database, 1)
    assert forward == canonical_itemset_order(forward)
    mine = maximal_module.fpclose
    monkeypatch.setattr(
        maximal_module, "fpclose", lambda *a, **k: list(reversed(mine(*a, **k)))
    )
    assert maximal_itemsets(toy_database, 1) == forward
