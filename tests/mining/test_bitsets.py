"""Tests for the database's bitmask answers against a row scan.

Support, tidsets and contingency tables are all read from the per-item
masks; every expected value here is recomputed from the rows alone, so
the two sides never share a code path.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.mining.transactions import TransactionDatabase
from repro.signals.contingency import contingency_for

ITEMS = [f"i{k}" for k in range(9)]
transactions_strategy = st.lists(
    st.sets(st.sampled_from(ITEMS), min_size=1, max_size=6),
    min_size=1,
    max_size=40,
)


def scan_tids(database, items):
    """Tids of the rows holding every item, by scanning the rows."""
    items = frozenset(items)
    return frozenset(tid for tid, row in enumerate(database) if items <= row)


class TestMaskSupport:
    def test_single_item_support(self, toy_database):
        for item in toy_database.items_present():
            expected = len(scan_tids(toy_database, {item}))
            assert toy_database.support({item}) == expected
            assert toy_database.item_supports()[item] == expected

    def test_itemset_support_matches(self, toy_database):
        catalog = toy_database.catalog
        for labels in (["a", "b"], ["a", "b", "c"], ["a", "f"], ["d", "e"]):
            items = catalog.encode(labels)
            assert toy_database.support(items) == len(scan_tids(toy_database, items))

    def test_empty_itemset_is_full_support(self, toy_database):
        assert toy_database.support(frozenset()) == len(toy_database)
        assert toy_database.itemset_mask(frozenset()) == (1 << len(toy_database)) - 1

    def test_tidset_matches(self, toy_database):
        catalog = toy_database.catalog
        items = catalog.encode(["a", "b"])
        assert toy_database.tidset_of(items) == scan_tids(toy_database, items)

    def test_unknown_item_zero_support(self, toy_database):
        ghost = toy_database.catalog.add("ghost")
        assert toy_database.support({ghost}) == 0
        assert toy_database.support({ghost, 0}) == 0

    def test_contingency_matches_reference(self, drug_adr_database):
        catalog = drug_adr_database.catalog
        exposure = catalog.encode(["D1", "D2"])
        outcome = catalog.encode(["X"])
        exposed = scan_tids(drug_adr_database, exposure)
        with_outcome = scan_tids(drug_adr_database, outcome)
        a = len(exposed & with_outcome)
        b = len(exposed - with_outcome)
        c = len(with_outcome - exposed)
        d = len(drug_adr_database) - len(exposed | with_outcome)
        table = contingency_for(drug_adr_database, exposure, outcome)
        assert (table.a, table.b, table.c, table.d) == (a, b, c, d)

    def test_contingency_empty_side_rejected(self, drug_adr_database):
        with pytest.raises(ConfigError):
            contingency_for(drug_adr_database, frozenset(), frozenset({0}))


@settings(max_examples=60, deadline=None)
@given(
    transactions=transactions_strategy,
    query=st.sets(st.sampled_from(ITEMS), min_size=1, max_size=4),
)
def test_bitset_equals_set_backend(transactions, query):
    db = TransactionDatabase.from_labelled(transactions)
    items = frozenset(
        db.catalog.id(label) for label in query if label in db.catalog
    )
    if not items:
        return
    expected = scan_tids(db, items)
    assert db.support(items) == len(expected)
    assert db.tidset_of(items) == expected
