"""Degenerate shard plans through the full merge path.

The exactness contract in :mod:`repro.parallel.merge` is stated over
*any* covering disjoint partition — not just the balanced ones
:func:`~repro.parallel.sharding.plan_shards` produces. These tests push
the pathological corners through :func:`fpclose_sharded` and require
byte-identity with the single-process miner every time: explicitly
empty shards, one-row shards (local threshold forced to 1, so a shard's
"locally frequent" output is every subset of its row), all-duplicate
rows and more shards than transactions. A final test forces the
unfused leaf+pair tree rounds that a 1-CPU box would normally coalesce
away.
"""

from __future__ import annotations

import pytest

from repro.mining.fpclose import fpclose
from repro.mining.transactions import (
    MiningCatalog,
    TransactionDatabase,
    canonical_itemset_order,
)
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.parallel.miner import fpclose_sharded
from repro.parallel.sharding import round_robin_shards

ROWS = (
    (0, 1, 2),
    (0, 1),
    (1, 2, 3),
    (0, 2),
    (1, 3),
    (0, 1, 2, 3),
    (2, 3),
    (0,),
    (1, 2),
    (0, 1, 3),
    (0, 2, 3),
    (1,),
)
N_ITEMS = 4


def make_db(rows=ROWS, n_items=N_ITEMS) -> TransactionDatabase:
    return TransactionDatabase(tuple(rows), MiningCatalog(n_items))


def single(db, min_support, **kw):
    return canonical_itemset_order(fpclose(db, min_support, **kw))


class TestDegeneratePlans:
    @pytest.mark.parametrize("min_support", [1, 2, 3])
    def test_explicitly_empty_shard(self, min_support):
        db = make_db()
        n = len(db)
        plan = ((), tuple(range(0, n, 2)), (), tuple(range(1, n, 2)))
        sharded = fpclose_sharded(
            db, min_support, n_workers=2, plan=plan
        )
        assert sharded == single(db, min_support)

    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_single_row_shards(self, n_workers):
        # Every shard owns one row: local thresholds pigeonhole down to
        # 1, so each leaf emits every subset of its row — the merge must
        # still distill the exact global closed family.
        db = make_db()
        plan = tuple((tid,) for tid in range(len(db)))
        sharded = fpclose_sharded(db, 2, n_workers=n_workers, plan=plan)
        assert sharded == single(db, 2)

    def test_all_duplicate_row_shards(self):
        # One distinct transaction repeated: every shard mines the same
        # itemsets, and present-in-all summation must recover the exact
        # global supports without over-counting.
        rows = ((0, 1, 2),) * 9 + ((1, 3),) * 3
        db = make_db(rows)
        plan = round_robin_shards(len(db), 3)
        sharded = fpclose_sharded(db, 2, n_workers=3, plan=plan)
        assert sharded == single(db, 2)

    def test_more_shards_requested_than_transactions(self):
        db = make_db(ROWS[:5])
        # round-robin into 16 shards of a 5-row database leaves 5
        # one-row shards after empties are dropped.
        sharded = fpclose_sharded(db, 2, n_workers=16)
        assert sharded == single(db, 2)

    @pytest.mark.parametrize("max_len", [None, 2])
    def test_max_len_respected_through_merge(self, max_len):
        db = make_db()
        sharded = fpclose_sharded(db, 2, max_len=max_len, n_workers=3)
        assert sharded == single(db, 2, max_len=max_len)


class TestUnfusedTreePath:
    def test_pair_round_runs_when_pool_is_wide(self, monkeypatch):
        # On a wide pool (cpu_count >= leaves) four shards take the
        # unfused shape: a leaf round, then sibling pair-merges at
        # region thresholds, then the root merge. Force it regardless
        # of the host's core count and check both the bytes and that
        # the pair round actually executed.
        import repro.parallel.miner as miner_mod

        monkeypatch.setattr(miner_mod.os, "cpu_count", lambda: 8)
        db = make_db(ROWS * 3)
        registry = MetricsRegistry()
        with use_registry(registry):
            sharded = fpclose_sharded(db, 3, n_workers=4)
        assert sharded == single(db, 3)
        counters = registry.snapshot().counters
        assert counters.get("parallel.pair.candidates", 0) > 0

    def test_odd_leaf_count_passthrough(self, monkeypatch):
        # Five shards pair into two merged regions plus one passthrough
        # leaf; the root merge must treat all three as regions.
        import repro.parallel.miner as miner_mod

        monkeypatch.setattr(miner_mod.os, "cpu_count", lambda: 8)
        db = make_db(ROWS * 3)
        plan = round_robin_shards(len(db), 5)
        sharded = fpclose_sharded(db, 3, n_workers=5, plan=plan)
        assert sharded == single(db, 3)
