"""Tests for the item catalog and transaction database."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError, MiningError, UnknownItemError
from repro.mining.transactions import (
    FrequentItemset,
    GrowableTransactionDatabase,
    ItemCatalog,
    TransactionDatabase,
    mask_tids,
    resolve_min_support,
    sort_itemset_labels,
)


class TestItemCatalog:
    def test_ids_are_dense_and_first_seen_ordered(self):
        catalog = ItemCatalog()
        assert catalog.add("x") == 0
        assert catalog.add("y") == 1
        assert catalog.add("z") == 2
        assert len(catalog) == 3

    def test_re_add_returns_existing_id(self):
        catalog = ItemCatalog()
        first = catalog.add("x", kind="drug")
        assert catalog.add("x", kind="drug") == first
        assert len(catalog) == 1

    def test_re_add_with_conflicting_kind_raises(self):
        catalog = ItemCatalog()
        catalog.add("x", kind="drug")
        with pytest.raises(MiningError, match="kind"):
            catalog.add("x", kind="adr")

    def test_empty_label_rejected(self):
        with pytest.raises(ConfigError):
            ItemCatalog().add("")

    def test_non_string_label_rejected(self):
        with pytest.raises(ConfigError):
            ItemCatalog().add(7)  # type: ignore[arg-type]

    def test_id_lookup_unknown_raises(self):
        with pytest.raises(UnknownItemError):
            ItemCatalog().id("ghost")

    def test_get_id_returns_none_for_unknown(self):
        assert ItemCatalog().get_id("ghost") is None

    def test_label_roundtrip(self):
        catalog = ItemCatalog()
        item = catalog.add("ASPIRIN", "drug")
        assert catalog.label(item) == "ASPIRIN"
        assert catalog.kind_of(item) == "drug"

    def test_label_of_unknown_id_raises(self):
        with pytest.raises(UnknownItemError):
            ItemCatalog().label(4)

    def test_ids_of_kind_partitions(self, catalog_drugs_adrs):
        drugs = catalog_drugs_adrs.ids_of_kind("drug")
        adrs = catalog_drugs_adrs.ids_of_kind("adr")
        assert drugs == {0, 1}
        assert adrs == {2, 3}
        assert not drugs & adrs

    def test_labels_sorted_alphabetically(self, catalog_drugs_adrs):
        assert catalog_drugs_adrs.labels({1, 0}) == ("ASPIRIN", "WARFARIN")

    def test_encode_maps_labels_to_ids(self, catalog_drugs_adrs):
        assert catalog_drugs_adrs.encode(["PAIN", "ASPIRIN"]) == {0, 3}

    def test_contains_and_iteration(self):
        catalog = ItemCatalog()
        catalog.add("x")
        assert "x" in catalog
        assert "y" not in catalog
        assert list(catalog) == ["x"]


class TestTransactionDatabase:
    def test_len_and_indexing(self, toy_database):
        assert len(toy_database) == 5
        catalog = toy_database.catalog
        assert toy_database[0] == catalog.encode(["a", "b", "c"])

    def test_single_item_support(self, toy_database):
        catalog = toy_database.catalog
        assert toy_database.support({catalog.id("a")}) == 4
        assert toy_database.support({catalog.id("f")}) == 1

    def test_itemset_support_via_intersection(self, toy_database):
        catalog = toy_database.catalog
        assert toy_database.support(catalog.encode(["a", "b"])) == 3
        assert toy_database.support(catalog.encode(["a", "b", "c"])) == 2
        assert toy_database.support(catalog.encode(["a", "f"])) == 0

    def test_empty_itemset_support_is_database_size(self, toy_database):
        assert toy_database.support(frozenset()) == 5

    def test_tidset_of_empty_is_all_tids(self, toy_database):
        assert toy_database.tidset_of(frozenset()) == frozenset(range(5))

    def test_tidset_of_unknown_item_is_empty(self, toy_database):
        # Item id registered in the catalog but absent from every transaction.
        ghost = toy_database.catalog.add("ghost")
        assert toy_database.tidset(ghost) == frozenset()

    def test_out_of_range_item_id_rejected_at_construction(self):
        catalog = ItemCatalog()
        catalog.add("x")
        with pytest.raises(MiningError, match="outside catalog"):
            TransactionDatabase([{0, 5}], catalog)

    def test_item_supports_covers_present_items_only(self, toy_database):
        supports = toy_database.item_supports()
        assert supports[toy_database.catalog.id("a")] == 4
        assert len(supports) == 6

    def test_transactions_with(self, toy_database):
        catalog = toy_database.catalog
        rows = toy_database.transactions_with(catalog.encode(["a", "b"]))
        assert len(rows) == 3
        assert all(catalog.encode(["a", "b"]) <= row for row in rows)

    def test_restrict_to_items_drops_emptied_rows(self, toy_database):
        catalog = toy_database.catalog
        keep = catalog.encode(["d", "e", "f"])
        projected = toy_database.restrict_to_items(keep)
        # rows 0 and 1 ({a,b,c}) vanish entirely
        assert len(projected) == 3
        assert all(row <= keep for row in projected)

    def test_restrict_shares_catalog(self, toy_database):
        projected = toy_database.restrict_to_items({0})
        assert projected.catalog is toy_database.catalog

    def test_describe_statistics(self, toy_database):
        stats = toy_database.describe()
        assert stats.n_transactions == 5
        assert stats.n_distinct_items == 6
        assert stats.total_item_occurrences == 14
        assert stats.max_transaction_length == 3
        assert stats.mean_transaction_length == pytest.approx(14 / 5)

    def test_describe_empty_database(self):
        stats = TransactionDatabase([], ItemCatalog()).describe()
        assert stats.n_transactions == 0
        assert stats.mean_transaction_length == 0.0

    def test_from_labelled_with_kinds(self):
        db = TransactionDatabase.from_labelled(
            [["d", "x"]], kinds={"d": "drug", "x": "adr"}
        )
        assert db.catalog.kind_of(db.catalog.id("d")) == "drug"
        assert db.catalog.kind_of(db.catalog.id("x")) == "adr"

    def test_from_labelled_reuses_catalog(self, catalog_drugs_adrs):
        db = TransactionDatabase.from_labelled(
            [["ASPIRIN", "PAIN"]],
            kinds={"ASPIRIN": "drug", "PAIN": "adr"},
            catalog=catalog_drugs_adrs,
        )
        assert db.catalog is catalog_drugs_adrs
        assert db.support({0}) == 1

    def test_duplicate_items_in_transaction_collapse(self):
        db = TransactionDatabase.from_labelled([["a", "a", "b"]])
        assert len(db[0]) == 2


class TestMaskTids:
    def test_empty_mask(self):
        assert mask_tids(0, 10) == []

    def test_sparse_bits_ascending(self):
        assert mask_tids(0b1000100101, 10) == [0, 2, 5, 9]

    def test_bits_at_or_above_the_bound_are_clipped(self):
        assert mask_tids(0b1111, 2) == [0, 1]
        assert mask_tids(1 << 7, 7) == []

    def test_contiguous_block_at_the_top(self):
        # The shape of a stream batch's touched rows: appended tids are
        # contiguous at the top of the database, plus a few follow-ups.
        mask = (((1 << 28) - 1) << 6092) | (1 << 17) | (1 << 4000)
        assert mask_tids(mask, 6120) == [17, 4000, *range(6092, 6120)]

    def test_dense_mask_with_gaps(self):
        # The shape of fpclose's reached rows: most of a long history.
        gaps = {0, 1, 500, 777, 9998}
        mask = ((1 << 10_000) - 1) ^ sum(1 << tid for tid in gaps)
        expected = [tid for tid in range(10_000) if tid not in gaps]
        assert mask_tids(mask, 10_000) == expected
        assert mask_tids(mask, 778) == expected[:774]

    @settings(max_examples=100, deadline=None)
    @given(
        tids=st.frozensets(st.integers(0, 300), max_size=40),
        n_transactions=st.integers(0, 320),
    )
    def test_matches_bit_probe(self, tids, n_transactions):
        mask = sum(1 << tid for tid in tids)
        expected = [t for t in range(n_transactions) if mask >> t & 1]
        assert mask_tids(mask, n_transactions) == expected


N_ITEMS = 6
ROW = st.frozensets(st.integers(0, N_ITEMS - 1), max_size=4)
MUTATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.just(0), ROW),
        # Updates pick a row by index modulo the row count; small rows
        # make removing an item's last occurrence common.
        st.tuples(st.just("update"), st.integers(0, 1_000), ROW),
    ),
    max_size=30,
)


def _catalog(n_items=N_ITEMS):
    catalog = ItemCatalog()
    for k in range(n_items):
        catalog.add(f"i{k}")
    return catalog


def assert_same_database(growable, fresh, queries):
    assert list(growable) == list(fresh)
    assert growable.item_masks() == fresh.item_masks()
    assert growable.item_supports() == fresh.item_supports()
    assert growable.items_present() == fresh.items_present()
    assert growable.describe() == fresh.describe()
    for items in queries:
        assert growable.support(items) == fresh.support(items)
        assert growable.tidset_of(items) == fresh.tidset_of(items)


class TestGrowableTransactionDatabase:
    @settings(max_examples=150, deadline=None)
    @given(
        initial=st.lists(ROW, max_size=6),
        mutations=MUTATIONS,
        query=st.frozensets(st.integers(0, N_ITEMS - 1), min_size=2, max_size=3),
    )
    def test_mutations_equal_fresh_database(self, initial, mutations, query):
        catalog = _catalog()
        growable = GrowableTransactionDatabase(initial, catalog)
        rows = list(initial)
        for kind, index, row in mutations:
            if kind == "append":
                assert growable.append_row(row) == len(rows)
                rows.append(row)
            elif rows:
                tid = index % len(rows)
                added, removed = growable.update_row(tid, row)
                assert (added, removed) == (row - rows[tid], rows[tid] - row)
                rows[tid] = row
        fresh = TransactionDatabase(rows, catalog)
        singles = [frozenset({item}) for item in range(N_ITEMS)]
        assert_same_database(growable, fresh, [frozenset(), query, *singles])

    def test_removing_last_occurrence_drops_the_item(self):
        catalog = _catalog()
        growable = GrowableTransactionDatabase([{0, 1}, {1, 2}], catalog)
        growable.update_row(0, {1})
        assert 0 not in growable.item_masks()
        assert 0 not in growable.item_supports()
        assert 0 not in growable.items_present()
        assert growable.support({0}) == 0
        assert growable.tidset_of({0}) == frozenset()
        assert growable.describe().n_distinct_items == 2
        growable.append_row({0})
        assert growable.item_supports()[0] == 1
        assert growable.tidset_of({0}) == frozenset({2})


class TestResolveMinSupport:
    def test_absolute_passthrough(self):
        assert resolve_min_support(7, 100) == 7

    def test_fraction_ceils(self):
        assert resolve_min_support(0.05, 100) == 5
        assert resolve_min_support(0.051, 100) == 6

    def test_tiny_fraction_never_zero(self):
        assert resolve_min_support(0.0001, 10) == 1

    def test_zero_absolute_rejected(self):
        with pytest.raises(ConfigError):
            resolve_min_support(0, 100)

    def test_fraction_above_one_rejected(self):
        with pytest.raises(ConfigError):
            resolve_min_support(1.5, 100)

    def test_bool_rejected(self):
        with pytest.raises(ConfigError):
            resolve_min_support(True, 100)


class TestFrequentItemset:
    def test_negative_support_rejected(self):
        with pytest.raises(MiningError):
            FrequentItemset(frozenset({1}), -1)

    def test_len_and_contains(self):
        itemset = FrequentItemset(frozenset({1, 2}), 3)
        assert len(itemset) == 2
        assert 1 in itemset
        assert 9 not in itemset

    def test_sort_itemset_labels_deterministic(self, toy_database):
        catalog = toy_database.catalog
        itemsets = [
            FrequentItemset(catalog.encode(["b", "a"]), 3),
            FrequentItemset(catalog.encode(["a"]), 4),
            FrequentItemset(catalog.encode(["c"]), 3),
        ]
        rendered = sort_itemset_labels(itemsets, catalog)
        assert rendered == [
            (("a",), 4),
            (("a", "b"), 3),
            (("c",), 3),
        ]
