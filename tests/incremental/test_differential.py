"""Differential harness: incremental surveillance ≡ from-scratch runs.

The incremental engine's contract is absolute — after *any* batch
schedule, the monitor's result must be **byte-identical** (full JSON
export) to one from-scratch pipeline run over the same history. The
grid: seeds × batch schedules (coarse / fine / skewed) × both clean
modes × worker counts, over streams that interleave follow-up versions
(bit invalidation), exact-content duplicates and empty rows.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.core.incremental import SurveillanceMonitor
from repro.core.pipeline import Maras, MarasConfig
from repro.faers.dataset import ReportDataset

from tests.incremental.streams import (
    dedup_first_version,
    export_bytes,
    make_stream,
    split_schedule,
)

SEED_GRID = (11, 47, 2014)
SCHEDULES = {
    "coarse": (0.5, 1.0),
    "fine": (1 / 6, 2 / 6, 3 / 6, 4 / 6, 5 / 6, 1.0),
    "skewed": (0.6, 0.7, 0.8, 0.9, 1.0),
}
MIN_SUPPORT = 3


@pytest.fixture(scope="module", params=SEED_GRID)
def stream(request):
    return make_stream(request.param)


@pytest.fixture(scope="module")
def references(stream):
    """One from-scratch truth per clean mode (schedule-independent)."""
    truths = {}
    for clean in (True, False):
        config = MarasConfig(min_support=MIN_SUPPORT, clean=clean)
        if clean:
            truths[clean] = Maras(config).run(stream)
        else:
            truths[clean] = Maras(config).run(
                ReportDataset(dedup_first_version(stream))
            )
    return truths


def run_incremental(stream, schedule, *, clean, n_workers=1):
    config = MarasConfig(
        min_support=MIN_SUPPORT,
        clean=clean,
        incremental=True,
        n_workers=n_workers,
    )
    with SurveillanceMonitor(config) as monitor:
        for batch in split_schedule(stream, SCHEDULES[schedule]):
            if batch:
                monitor.ingest(batch)
        return monitor.result


class TestByteIdentity:
    @pytest.mark.parametrize("clean", [True, False])
    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    def test_every_schedule_matches_one_shot(
        self, stream, references, schedule, clean
    ):
        result = run_incremental(stream, schedule, clean=clean)
        assert export_bytes(result) == export_bytes(references[clean])

    @pytest.mark.parametrize("n_workers", [2, 4])
    @pytest.mark.parametrize("clean", [True, False])
    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    def test_workers_do_not_perturb_output(
        self, stream, references, schedule, clean, n_workers
    ):
        # A worker count in the config must not reach the export: the
        # engine ignores it and mines every batch in-process.
        result = run_incremental(
            stream, schedule, clean=clean, n_workers=n_workers
        )
        assert export_bytes(result) == export_bytes(references[clean])

    @pytest.mark.parametrize("clean", [True, False])
    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    def test_engine_mines_in_process_at_any_worker_count(
        self, stream, references, schedule, clean
    ):
        # n_workers shards one-shot mining only: the engine's rebuild
        # (first batch) and every delta re-mine run in this process, so
        # no worker process exists after any ingest.
        config = MarasConfig(
            min_support=MIN_SUPPORT, clean=clean, incremental=True, n_workers=2
        )
        with SurveillanceMonitor(config) as monitor:
            for batch in split_schedule(stream, SCHEDULES[schedule]):
                if batch:
                    monitor.ingest(batch)
                    assert multiprocessing.active_children() == []
        assert export_bytes(monitor.result) == export_bytes(references[clean])

    def test_cleaning_stats_match_one_shot(self, stream, references):
        result = run_incremental(stream, "fine", clean=True)
        assert result.cleaning_stats == references[True].cleaning_stats

    def test_per_batch_results_match_prefix_runs(self, stream):
        """Not just the final state: every intermediate batch's result
        equals a from-scratch run over the stream prefix."""
        config = MarasConfig(min_support=MIN_SUPPORT, clean=True)
        batches = split_schedule(stream, SCHEDULES["skewed"])
        with SurveillanceMonitor(
            MarasConfig(min_support=MIN_SUPPORT, clean=True, incremental=True)
        ) as monitor:
            prefix = []
            for batch in batches:
                prefix.extend(batch)
                monitor.ingest(batch)
                reference = Maras(config).run(list(prefix))
                assert export_bytes(monitor.result) == export_bytes(reference)

    def test_change_feed_matches_full_rescan_monitor(self, stream):
        """The evaluator-facing BatchDelta feed is mode-independent."""
        batches = split_schedule(stream, SCHEDULES["fine"])
        base = MarasConfig(min_support=MIN_SUPPORT, clean=True)
        incremental = MarasConfig(
            min_support=MIN_SUPPORT, clean=True, incremental=True
        )
        with SurveillanceMonitor(base) as slow, SurveillanceMonitor(
            incremental
        ) as fast:
            for batch in batches:
                slow.ingest(batch)
                fast.ingest(batch)
            assert fast.history == slow.history
            assert fast.watchlist() == slow.watchlist()
