"""Mining scaling — FP-Growth vs Apriori vs closed mining, sets vs bitsets.

Not a paper table, but the substrate claim behind §5.2's choice of
FP-Growth with closed itemsets: on dense report data, FP-Growth beats
the level-wise baseline and closed mining keeps the output (and with it
rule generation) small. Grouped pytest-benchmark entries make the
comparison readable in one table.

Two set-vs-bitset groups track the production mining core:

- ``closed-miner`` — the set-based reference closed miner against the
  production occurrence-delivery miner (its record keeps the historical
  ``bitset`` key) on the same fixture, same thresholds, byte-identical
  output.
- ``support-oracle`` — frozenset intersection vs raw
  :class:`~repro.mining.bitsets.BitsetIndex` vs the memoized
  :class:`~repro.mining.bitsets.SupportOracle` on a repeated-query
  workload shaped like MCAC construction.

``test_trajectory_set_vs_bitset`` measures both miners directly (plain
``perf_counter``, so it also runs under ``--benchmark-disable`` in the
CI smoke job) and appends a before/after record to ``BENCH_mining.json``
at the repository root — the perf trajectory of the mining core across
PRs, with branch/closure counters alongside wall-clock so speedups are
attributable to pruning, not machine luck.
"""

from __future__ import annotations

import time

import pytest

from benchmarks._trajectory import REPO_ROOT, append_run, base_record
from repro.mining import apriori, fpclose, fpclose_reference, fpgrowth
from repro.mining.bitsets import BitsetIndex, SupportOracle
from repro.obs import MetricsRegistry
from repro.obs.metrics import use_registry

MIN_SUPPORT = 5
MAX_LEN = 6

TRAJECTORY_PATH = REPO_ROOT / "BENCH_mining.json"


@pytest.fixture(scope="module")
def database(quarter_datasets):
    return quarter_datasets["2014Q1"].encode().database


def _mcac_style_queries(database):
    """A support workload shaped like MCAC building: repeated subsets."""
    items = sorted(database.items_present())[:40]
    pairs = [
        frozenset({items[i], items[j]})
        for i in range(0, 40, 4)
        for j in range(1, 40, 4)
        if items[i] != items[j]
    ]
    # MCACs re-ask the same subset supports across clusters; repeat the
    # workload so memoization has something to memoize.
    return pairs * 3


@pytest.mark.benchmark(group="miner-comparison")
def test_scaling_fpgrowth(benchmark, database):
    result = benchmark(lambda: fpgrowth(database, MIN_SUPPORT, max_len=MAX_LEN))
    assert result


@pytest.mark.benchmark(group="miner-comparison")
def test_scaling_apriori(benchmark, database):
    result = benchmark.pedantic(
        lambda: apriori(database, MIN_SUPPORT, max_len=MAX_LEN),
        rounds=3,
        iterations=1,
    )
    assert result


@pytest.mark.benchmark(group="miner-comparison")
def test_scaling_fpclose(benchmark, database):
    result = benchmark(lambda: fpclose(database, MIN_SUPPORT, max_len=MAX_LEN))
    assert result


@pytest.mark.benchmark(group="closed-miner")
def test_closed_miner_sets(benchmark, database):
    result = benchmark.pedantic(
        lambda: fpclose_reference(database, MIN_SUPPORT, max_len=MAX_LEN),
        rounds=3,
        iterations=1,
    )
    assert result


@pytest.mark.benchmark(group="closed-miner")
def test_closed_miner_bitsets(benchmark, database):
    result = benchmark(lambda: fpclose(database, MIN_SUPPORT, max_len=MAX_LEN))
    assert result


@pytest.mark.benchmark(group="support-oracle")
def test_support_sets(benchmark, database):
    queries = _mcac_style_queries(database)
    benchmark(lambda: [database.support(q) for q in queries])


@pytest.mark.benchmark(group="support-oracle")
def test_support_bitset_index(benchmark, database):
    index = BitsetIndex(database)
    queries = _mcac_style_queries(database)
    benchmark(lambda: [index.support(q) for q in queries])
    # cross-check agreement on this workload
    assert [index.support(q) for q in queries] == [
        database.support(q) for q in queries
    ]


@pytest.mark.benchmark(group="support-oracle")
def test_support_memoized_oracle(benchmark, database):
    queries = _mcac_style_queries(database)

    def fresh_oracle_pass():
        # A fresh oracle per round mirrors the pipeline: one cache per
        # run, warmed by the workload itself.
        oracle = SupportOracle(BitsetIndex(database))
        return [oracle.support(q) for q in queries]

    result = benchmark(fresh_oracle_pass)
    assert result == [database.support(q) for q in queries]


def test_miners_agree_and_closed_is_smaller(database):
    frequent = fpgrowth(database, MIN_SUPPORT, max_len=MAX_LEN)
    level_wise = apriori(database, MIN_SUPPORT, max_len=MAX_LEN)
    closed = fpclose(database, MIN_SUPPORT, max_len=MAX_LEN)
    assert {(fi.items, fi.support) for fi in frequent} == {
        (fi.items, fi.support) for fi in level_wise
    }
    assert len(closed) <= len(frequent)
    closed_sets = {fi.items for fi in closed}
    assert closed_sets <= {fi.items for fi in frequent}


def _best_of(fn, rounds):
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_trajectory_set_vs_bitset(database):
    """Measure set vs bitset closed mining and append to BENCH_mining.json."""
    # Warm the shared mask table outside the timed region so both
    # miners are measured on equal footing (the reference build of the
    # vertical tidsets happened at database construction).
    database.item_masks()

    bitset_seconds, bitset_result = _best_of(
        lambda: fpclose(database, MIN_SUPPORT, max_len=MAX_LEN), rounds=3
    )
    set_seconds, set_result = _best_of(
        lambda: fpclose_reference(database, MIN_SUPPORT, max_len=MAX_LEN),
        rounds=2,
    )

    # Byte-identical mined output: same (itemset, support) pairs.
    assert {(fi.items, fi.support) for fi in bitset_result} == {
        (fi.items, fi.support) for fi in set_result
    }

    registry = MetricsRegistry()
    with use_registry(registry):
        fpclose(database, MIN_SUPPORT, max_len=MAX_LEN)
        fpclose_reference(database, MIN_SUPPORT, max_len=MAX_LEN)
    counters = registry.snapshot().counters

    speedup = set_seconds / bitset_seconds if bitset_seconds else float("inf")
    record = base_record(
        n_transactions=len(database),
        min_support=MIN_SUPPORT,
        max_len=MAX_LEN,
        n_closed_itemsets=len(bitset_result),
        seconds={
            "fpclose_set": round(set_seconds, 6),
            "fpclose_bitset": round(bitset_seconds, 6),
        },
        speedup_set_over_bitset=round(speedup, 2),
        counters={
            "set": {
                "branches": counters["fpclose_reference.branches"],
                "closure_calls": counters["fpclose_reference.closure_calls"],
                "closure_item_checks": counters[
                    "fpclose_reference.closure_item_checks"
                ],
            },
            "bitset": {
                "branches": counters["fpclose.branches"],
                "closure_calls": counters["fpclose.closure_calls"],
                "closure_item_checks": counters["fpclose.closure_item_checks"],
            },
        },
    )
    append_run(
        TRAJECTORY_PATH, "mining-perf", "mining-scaling/closed-miner", record
    )

    # The acceptance floor for this PR is 3×; assert a conservative 2×
    # so a loaded CI machine cannot flake the suite, while the recorded
    # trajectory documents the real ratio.
    assert speedup >= 2.0, f"bitset miner only {speedup:.2f}x faster"
