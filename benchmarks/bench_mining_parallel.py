"""Sharded mining against the single-process miner — 1, 2 and 4 workers.

On a benchmark-scale quarter, ``fpclose_sharded`` at 2 and 4 workers
must produce byte-identical closed itemsets to the in-process miner,
and the in-process miner must beat the 4-worker sharded run outright
(pool startup, pickling, and the tree merge all inside the measured
time). 4 workers must not regress against 2 workers. Appends the
measured trajectory, including the root-merge counters, to
``BENCH_mining.json``.

The single-process gate guards against a serial miner quadratic in the
frequent items: a search that intersects every extension with every
frequent item loses to sharding here, because per-shard tidsets make
each intersection ``k×`` cheaper. The occurrence-delivery miner visits
only co-occurring items and runs several times faster than any sharded
plan on this fixture.

This uses a larger fixture than the shared ``SCALE`` quarters: at 2-3k
reports mining takes milliseconds and process startup dominates
everything; mining is only a real share of the cost at this size.

The 4-vs-2 gate carries a small tolerance because the two are expected
to *tie* on serial hardware: when the pool is narrower than the leaf
count, the scheduler coalesces the 4 shards into ``max(2, pool_size)``
regions mined at region thresholds (see :mod:`repro.parallel.miner`) —
on a 1-CPU runner that is structurally the same work as the 2-worker
plan, so 4 workers sit within measurement jitter of 2 rather than the
~1.4× regression the old single-level merge paid for its weakened
quarter-shard thresholds. Real multi-core machines run the full tree
and pull strictly ahead.
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks._trajectory import REPO_ROOT, append_run, base_record
from repro.faers import ReportDataset, SyntheticFAERSGenerator, quarter_config
from repro.mining.fpclose import fpclose
from repro.mining.transactions import canonical_itemset_order
from repro.obs import MetricsRegistry
from repro.obs.metrics import use_registry
from repro.parallel import fpclose_sharded, plan_shards

MIN_SUPPORT = 5
MAX_LEN = 6
BENCH_SCALE = 0.1  # ~12.7k reports: mining seconds, not milliseconds

TRAJECTORY_PATH = REPO_ROOT / "BENCH_mining.json"

# Serial runners coalesce 4 shards down to the 2-worker shape, so the
# honest expectation there is a tie; the gate allows jitter on a tie
# while still catching a structural regression like the old one.
REGRESSION_TOLERANCE = 1.10

#: Root-merge counters worth tracking across PRs (per worker count).
MERGE_COUNTERS = (
    "parallel.merge.candidates",
    "parallel.merge.summed",
    "parallel.merge.reintersections",
    "parallel.merge.pruned_dead",
    "parallel.merge.globally_frequent",
    "parallel.pair.candidates",
    "parallel.pair.bound_kills",
)


@pytest.fixture(scope="module")
def bench_dataset():
    generator = SyntheticFAERSGenerator(
        quarter_config("2014Q1", scale=BENCH_SCALE)
    )
    return ReportDataset(generator.generate())


def _best_of(fn, rounds):
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_trajectory_sharded_speedup(bench_dataset):
    database = bench_dataset.encode().database

    single_seconds, single = _best_of(
        lambda: canonical_itemset_order(
            fpclose(database, MIN_SUPPORT, max_len=MAX_LEN)
        ),
        rounds=2,
    )

    sharded_seconds = {}
    merge_counters = {}
    for n_workers in (2, 4):
        plan = plan_shards(bench_dataset, n_workers, "hash")
        seconds, sharded = _best_of(
            lambda: fpclose_sharded(
                database,
                MIN_SUPPORT,
                max_len=MAX_LEN,
                n_workers=n_workers,
                plan=plan,
            ),
            rounds=2,
        )
        # Identical output is a precondition of calling this a speedup.
        assert sharded == single
        sharded_seconds[n_workers] = seconds
        # One extra instrumented (untimed) run captures the merge-tree
        # counters without polluting the measured rounds.
        registry = MetricsRegistry()
        with use_registry(registry):
            fpclose_sharded(
                database,
                MIN_SUPPORT,
                max_len=MAX_LEN,
                n_workers=n_workers,
                plan=plan,
            )
        counters = registry.snapshot().counters
        merge_counters[n_workers] = {
            name.removeprefix("parallel."): counters[name]
            for name in MERGE_COUNTERS
            if name in counters
        }

    speedup_2 = single_seconds / sharded_seconds[2]
    speedup_4 = single_seconds / sharded_seconds[4]
    record = base_record(
        n_transactions=len(database),
        min_support=MIN_SUPPORT,
        max_len=MAX_LEN,
        cpu_count=os.cpu_count(),
        n_closed_itemsets=len(single),
        seconds={
            "fpclose_single": round(single_seconds, 6),
            "sharded_2_workers": round(sharded_seconds[2], 6),
            "sharded_4_workers": round(sharded_seconds[4], 6),
        },
        speedup_2_workers=round(speedup_2, 2),
        speedup_4_workers=round(speedup_4, 2),
        merge_counters={
            str(n): merge_counters[n] for n in sorted(merge_counters)
        },
    )
    append_run(
        TRAJECTORY_PATH, "mining-perf", "mining-parallel/sharded", record
    )

    # The in-process miner must beat 4-worker sharding: a serial scan
    # quadratic in the frequent items loses to it (the recorded
    # trajectory keeps the real ratios).
    assert single_seconds < sharded_seconds[4], (
        f"single-process mining ({single_seconds:.3f}s) no faster than "
        f"4-worker sharding ({sharded_seconds[4]:.3f}s)"
    )
    # The 4-worker regression gate: more workers must never cost more
    # than the tolerance over fewer (ties are expected on serial boxes,
    # see the module docstring).
    assert (
        sharded_seconds[4] <= sharded_seconds[2] * REGRESSION_TOLERANCE
    ), (
        f"4-worker run ({sharded_seconds[4]:.3f}s) regressed beyond "
        f"{REGRESSION_TOLERANCE:.2f}x of the 2-worker run "
        f"({sharded_seconds[2]:.3f}s)"
    )
