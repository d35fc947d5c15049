"""Properties of the occurrence-delivery closed miner.

- The ``touched_mask`` contract as a hypothesis property: a restricted
  mine returns exactly the closed itemsets of the unrestricted mine
  whose tidset meets the mask, at every ``max_len``.
- A restricted mine projects only the rows that can reach a bucket.
- Edge shapes checked against :func:`fpclose_reference`: a threshold
  equal to the database size, all-identical rows, items present in
  every row, and a ``max_len`` below the size of the root closure.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.mining.fpclose import fpclose, fpclose_reference
from repro.obs import MetricsRegistry, use_registry
from repro.mining.transactions import TransactionDatabase

ITEMS = [f"i{k}" for k in range(8)]

transactions_strategy = st.lists(
    st.sets(st.sampled_from(ITEMS), min_size=1, max_size=6),
    min_size=1,
    max_size=30,
)


def as_pairs(itemsets):
    return {(fi.items, fi.support) for fi in itemsets}


def tid_mask(database: TransactionDatabase, items) -> int:
    mask = 0
    for tid, row in enumerate(database):
        if items <= row:
            mask |= 1 << tid
    return mask


@settings(max_examples=80, deadline=None)
@given(
    transactions=transactions_strategy,
    threshold=st.integers(1, 4),
    max_len=st.one_of(st.none(), st.integers(1, 4)),
    data=st.data(),
)
def test_touched_mask_keeps_exactly_the_itemsets_meeting_it(
    transactions, threshold, max_len, data
):
    database = TransactionDatabase.from_labelled(transactions)
    touched = data.draw(st.sets(st.integers(0, len(database) - 1)))
    touched_mask = sum(1 << tid for tid in touched)

    full = fpclose(database, threshold, max_len=max_len)
    assert as_pairs(full) == as_pairs(
        fpclose_reference(database, threshold, max_len=max_len)
    )
    expected = {
        (fi.items, fi.support)
        for fi in full
        if tid_mask(database, fi.items) & touched_mask
    }
    restricted = fpclose(
        database, threshold, max_len=max_len, touched_mask=touched_mask
    )
    assert as_pairs(restricted) == expected
    assert len(restricted) == len(expected)  # no duplicates


EDGE_CASES = {
    "threshold_equals_database_size": (
        [["a", "b"], ["a", "c"], ["a", "b", "c"], ["a", "b"]],
        4,
        None,
    ),
    "all_identical_rows": ([["a", "b", "c"]] * 5, 1, None),
    "universal_items_under_every_branch": (
        [["u", "v", "a"], ["u", "v", "b"], ["u", "v", "a", "b"], ["u", "v"]],
        1,
        None,
    ),
    "max_len_below_root_closure": (
        [["u", "v", "w", "a"], ["u", "v", "w", "b"], ["u", "v", "w"]],
        1,
        2,
    ),
    "max_len_equal_to_root_closure": (
        [["u", "v", "a"], ["u", "v", "b"], ["u", "v", "a", "b"]],
        1,
        2,
    ),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_shapes_match_reference(case):
    transactions, threshold, max_len = EDGE_CASES[case]
    database = TransactionDatabase.from_labelled(transactions)
    mined = fpclose(database, threshold, max_len=max_len)
    assert as_pairs(mined) == as_pairs(
        fpclose_reference(database, threshold, max_len=max_len)
    )
    assert len(mined) == len(as_pairs(mined))


def test_threshold_equal_to_size_yields_only_the_root():
    database = TransactionDatabase.from_labelled([["a", "b"], ["a", "c"], ["a"]])
    assert as_pairs(fpclose(database, 3)) == {(database.catalog.encode(["a"]), 3)}


def test_max_len_below_root_closure_yields_nothing():
    database = TransactionDatabase.from_labelled(
        [["u", "v", "w", "a"], ["u", "v", "w", "b"]]
    )
    assert fpclose(database, 1, max_len=2) == []


def test_out_of_range_mask_bits_are_ignored():
    database = TransactionDatabase.from_labelled([["a", "b"], ["a", "c"]])
    assert fpclose(database, 1, touched_mask=1 << 5) == []
    assert as_pairs(fpclose(database, 1, touched_mask=(1 << 5) | 1)) == as_pairs(
        fpclose(database, 1, touched_mask=1)
    )


def test_restricted_mine_projects_only_reached_rows():
    # Rows 4 and 5 alone hold the rare items x and y, and no other row
    # shares an item with them: a mask touching row 4 projects just
    # those two rows.
    database = TransactionDatabase.from_labelled(
        [["a", "b"], ["a", "b"], ["a", "c"], ["b", "c"], ["x", "y"], ["x", "y"]]
    )
    registry = MetricsRegistry()
    with use_registry(registry):
        restricted = fpclose(database, 1, touched_mask=1 << 4)
    assert as_pairs(restricted) == {
        pair
        for pair in as_pairs(fpclose(database, 1))
        if pair[0] <= database[4]
    }
    projected = registry.snapshot().counters["fpclose.rows_projected"]
    assert projected == 2 < len(database)
