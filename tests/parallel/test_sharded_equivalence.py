"""Differential harness: sharded mining must equal the single-process run.

The entire value of :mod:`repro.parallel` rests on one claim — that
``MarasConfig(n_workers=N)`` changes wall-clock only, never output.
This harness makes the claim enforceable: over a seed grid of
two-quarter synthetic datasets × support thresholds × worker counts ×
both shard strategies, the sharded pipeline's closed itemsets,
clusters, stable ids, exclusiveness scores, and full JSON export must
be **byte-identical** to the ``n_workers=1`` run (the same pattern PR 2
used for bitset-vs-set equivalence).
"""

from __future__ import annotations

import json

import pytest

from repro.core.export import export_result
from repro.core.pipeline import Maras, MarasConfig
from repro.core.ranking import RankingMethod
from repro.faers import ReportDataset, SyntheticConfig, SyntheticFAERSGenerator
from repro.mining.fpclose import fpclose
from repro.mining.transactions import canonical_itemset_order, resolve_min_support
from repro.obs import InMemorySink, MetricsRegistry
from repro.obs.metrics import use_registry
from repro.parallel import MiningPool, fpclose_sharded, plan_shards

SEED_GRID = (11, 47, 2014)
SUPPORTS = (3, 5)


def two_quarter_dataset(seed: int) -> ReportDataset:
    """Q1 + Q2 reports in one dataset; case ids are quarter-prefixed so
    concatenation never collides, and the quarter strategy gets two
    genuine shards."""
    reports = []
    for quarter in ("2014Q1", "2014Q2"):
        config = SyntheticConfig(
            n_reports=300,
            n_drugs=100,
            n_adrs=30,
            seed=seed,
            quarter=quarter,
        )
        reports.extend(SyntheticFAERSGenerator(config).generate())
    return ReportDataset(reports)


@pytest.fixture(scope="module", params=SEED_GRID)
def dataset(request) -> ReportDataset:
    return two_quarter_dataset(request.param)


@pytest.fixture(scope="module")
def baselines(dataset):
    """The single-process truth, one per support threshold."""
    return {
        support: Maras(
            MarasConfig(min_support=support, clean=False, n_workers=1)
        ).run(dataset)
        for support in SUPPORTS
    }


def export_bytes(result) -> bytes:
    return json.dumps(
        export_result(result), sort_keys=True, separators=(",", ":")
    ).encode()


class TestMinerEquivalence:
    @pytest.mark.parametrize("min_support", SUPPORTS)
    @pytest.mark.parametrize("strategy", ["hash", "quarter"])
    def test_sharded_closed_sets_match_fpclose(
        self, dataset, min_support, strategy
    ):
        database = dataset.encode().database
        threshold = resolve_min_support(min_support, len(database))
        single = canonical_itemset_order(
            fpclose(database, threshold, max_len=8)
        )
        sharded = fpclose_sharded(
            database,
            threshold,
            max_len=8,
            n_workers=2,
            plan=plan_shards(dataset, 2, strategy),
        )
        assert sharded == single


class TestRealPool:
    def test_every_node_runs_once_on_a_real_pool(self):
        # No worker dies here, so any resubmission is the scheduler
        # re-running a node for nothing; on this fixture that once
        # meant thousands of resubmissions of the finalize node.
        dataset = two_quarter_dataset(11)
        database = dataset.encode().database
        threshold = resolve_min_support(3, len(database))
        serial = canonical_itemset_order(fpclose(database, threshold))
        sink = InMemorySink()
        with MiningPool(2) as pool, use_registry(MetricsRegistry(sink=sink)):
            sharded = fpclose_sharded(
                database,
                threshold,
                n_workers=2,
                plan=plan_shards(dataset, 2, "hash"),
                pool=pool,
            )
        nodes = sink.of_type("parallel.node")
        assert nodes
        assert [record["attempts"] for record in nodes] == [1] * len(nodes)
        assert sharded == serial


class TestPipelineEquivalence:
    @pytest.mark.parametrize("min_support", SUPPORTS)
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    @pytest.mark.parametrize("strategy", ["hash", "quarter"])
    def test_export_is_byte_identical(
        self, dataset, baselines, min_support, n_workers, strategy
    ):
        baseline = baselines[min_support]
        sharded = Maras(
            MarasConfig(
                min_support=min_support,
                clean=False,
                n_workers=n_workers,
                shard_strategy=strategy,
            )
        ).run(dataset)
        assert export_bytes(sharded) == export_bytes(baseline)

    def test_clusters_ids_and_scores_match(self, dataset, baselines):
        baseline = baselines[SUPPORTS[0]]
        sharded = Maras(
            MarasConfig(
                min_support=SUPPORTS[0], clean=False, n_workers=4
            )
        ).run(dataset)
        catalog = baseline.catalog
        assert [c.stable_id(catalog) for c in sharded.clusters] == [
            c.stable_id(catalog) for c in baseline.clusters
        ]
        method = RankingMethod.EXCLUSIVENESS_CONFIDENCE
        assert [
            (entry.rank, entry.score) for entry in sharded.rank(method)
        ] == [(entry.rank, entry.score) for entry in baseline.rank(method)]

    def test_cleaning_path_matches_too(self, dataset):
        # clean=True exercises the raw-rows entry: cleaning stays a
        # global parent-side stage, so sharding must still not perturb it.
        reports = list(dataset.reports)
        base = Maras(MarasConfig(min_support=3, clean=True)).run(reports)
        sharded = Maras(
            MarasConfig(min_support=3, clean=True, n_workers=2)
        ).run(reports)
        assert export_bytes(sharded) == export_bytes(base)


class TestSurveillanceEquivalence:
    def test_monitor_batches_match_single_process(self, dataset):
        from repro.core.incremental import SurveillanceMonitor

        reports = list(dataset.reports)
        batches = [reports[:200], reports[200:420], reports[420:]]
        serial = SurveillanceMonitor(
            MarasConfig(min_support=4, clean=False, n_workers=1)
        )
        parallel = SurveillanceMonitor(
            MarasConfig(min_support=4, clean=False, n_workers=2)
        )
        for batch in batches:
            serial_delta = serial.ingest(batch)
            parallel_delta = parallel.ingest(batch)
            assert parallel_delta.newly_surfaced == serial_delta.newly_surfaced
            assert parallel_delta.dropped == serial_delta.dropped
            assert parallel_delta.risers == serial_delta.risers
        assert export_bytes(parallel.result) == export_bytes(serial.result)
