"""Cross-checks of the bitset mining core against the set-based reference.

The production miner (``fpclose``, occurrence delivery) and the
memoized :class:`~repro.mining.bitsets.SupportOracle` are only
performance changes — every answer must match the frozenset-tidset
implementations bit for bit. These tests enforce that on two fronts:

- a seed grid of synthetic FAERS quarters (realistic density, planted
  interactions, verbatim tails) where ``fpclose`` must reproduce
  ``fpclose_reference`` exactly and the oracle must agree with
  ``TransactionDatabase.support`` on every mined itemset and subset;
- hypothesis-generated adversarial databases, where shapes no fixture
  would produce (duplicate transactions, universal items, singleton
  databases) get thrown at both miners and the oracle.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.faers import ReportDataset, SyntheticConfig, SyntheticFAERSGenerator
from repro.mining.bitsets import BitsetIndex, SupportOracle
from repro.mining.fpclose import fpclose, fpclose_reference
from repro.mining.transactions import TransactionDatabase

SEED_GRID = (11, 23, 47, 2014)


def as_pairs(itemsets):
    return {(fi.items, fi.support) for fi in itemsets}


@pytest.fixture(scope="module", params=SEED_GRID)
def synthetic_database(request):
    config = SyntheticConfig(
        n_reports=400, n_drugs=120, n_adrs=40, seed=request.param
    )
    reports = SyntheticFAERSGenerator(config).generate()
    return ReportDataset(reports).encode().database


class TestMinerEquivalenceOnSyntheticQuarters:
    @pytest.mark.parametrize("min_support", [3, 5])
    def test_bitset_miner_matches_reference(
        self, synthetic_database, min_support
    ):
        bitset = fpclose(synthetic_database, min_support, max_len=5)
        reference = fpclose_reference(synthetic_database, min_support, max_len=5)
        assert as_pairs(bitset) == as_pairs(reference)

    def test_bitset_miner_matches_reference_uncapped(self, synthetic_database):
        bitset = fpclose(synthetic_database, 6)
        reference = fpclose_reference(synthetic_database, 6)
        assert as_pairs(bitset) == as_pairs(reference)

    def test_fractional_threshold_agrees(self, synthetic_database):
        assert as_pairs(fpclose(synthetic_database, 0.01, max_len=4)) == as_pairs(
            fpclose_reference(synthetic_database, 0.01, max_len=4)
        )


class TestOracleEquivalenceOnSyntheticQuarters:
    def test_oracle_matches_database_on_mined_itemsets(self, synthetic_database):
        oracle = SupportOracle.for_database(synthetic_database)
        for fi in fpclose(synthetic_database, 4, max_len=5):
            assert oracle.support(fi.items) == synthetic_database.support(
                fi.items
            )
            # MCAC construction queries every proper subset; spot-check
            # the one-item-removed layer the cache serves most often.
            for item in fi.items:
                subset = fi.items - {item}
                if subset:
                    assert oracle.support(subset) == synthetic_database.support(
                        subset
                    )

    def test_oracle_memoization_is_invisible(self, synthetic_database):
        oracle = SupportOracle.for_database(synthetic_database)
        items = sorted(synthetic_database.items_present())[:12]
        queries = [frozenset({a, b}) for a in items for b in items if a != b]
        first = [oracle.support(q) for q in queries]
        second = [oracle.support(q) for q in queries]
        assert first == second
        assert second == [synthetic_database.support(q) for q in queries]
        assert oracle.hits >= len(queries)

    def test_oracle_tidsets_match_database(self, synthetic_database):
        oracle = SupportOracle.for_database(synthetic_database)
        items = sorted(synthetic_database.items_present())[:10]
        for a in items:
            for b in items:
                query = frozenset({a, b})
                assert oracle.tidset(query) == synthetic_database.tidset_of(
                    query
                )


ITEMS = [f"i{k}" for k in range(8)]

transactions_strategy = st.lists(
    st.sets(st.sampled_from(ITEMS), min_size=1, max_size=6),
    min_size=1,
    max_size=30,
)


@settings(max_examples=60, deadline=None)
@given(
    transactions=transactions_strategy,
    threshold=st.integers(1, 5),
    max_len=st.none() | st.integers(1, 4),
)
def test_bitset_miner_matches_reference_property(
    transactions, threshold, max_len
):
    db = TransactionDatabase.from_labelled(transactions)
    assert as_pairs(fpclose(db, threshold, max_len=max_len)) == as_pairs(
        fpclose_reference(db, threshold, max_len=max_len)
    )


@settings(max_examples=60, deadline=None)
@given(
    transactions=transactions_strategy,
    query=st.sets(st.sampled_from(ITEMS), min_size=1, max_size=4),
)
def test_oracle_matches_database_property(transactions, query):
    db = TransactionDatabase.from_labelled(transactions)
    oracle = SupportOracle(BitsetIndex(db))
    items = frozenset(
        db.catalog.id(label) for label in query if label in db.catalog
    )
    if not items:
        return
    assert oracle.support(items) == db.support(items)
    assert oracle.tidset(items) == db.tidset_of(items)
