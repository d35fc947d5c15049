"""The collector policy: :func:`repro.runtime.collector_paused` and the
invariant that makes pausing safe.

A paused collector frees no reference cycle, so the bulk entry points
that pause it must create none. Each runs here under
``gc.DEBUG_SAVEALL``, which keeps every unreachable object a collection
finds in ``gc.garbage`` instead of freeing it: an entry point that
dropped a cycle would leave it there.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
from collections import Counter

import pytest

from repro.core.incremental import SurveillanceMonitor
from repro.core.pipeline import Maras, MarasConfig
from repro.faers.cleaning import ReportCleaner
from repro.faers.parser import parse_quarter
from repro.faers.schema import CaseReport
from repro.faers.synthetic import SyntheticConfig, SyntheticFAERSGenerator
from repro.faers.writer import write_quarter_files
from repro.runtime import collector_paused
from repro.serve import ResultStore
from repro.store import checkpoint_monitor, config_fingerprint, open_backend


@pytest.fixture(autouse=True)
def collector_on():
    """Every test starts, and leaves the process, with the collector on."""
    gc.enable()
    yield
    gc.enable()


class TestCollectorPaused:
    def test_pauses_and_restores(self):
        with collector_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_nested_pause_restores_only_at_the_outermost_exit(self):
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_exception_inside_restores(self):
        with pytest.raises(RuntimeError):
            with collector_paused():
                raise RuntimeError("boom")
        assert gc.isenabled()

    def test_caller_disabled_collector_stays_disabled(self):
        gc.disable()
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_decorator_is_reentrant(self):
        seen = []

        @collector_paused()
        def descend(depth):
            seen.append(gc.isenabled())
            if depth:
                descend(depth - 1)

        descend(2)
        assert seen == [False, False, False]
        assert gc.isenabled()

    def test_pauses_overlapping_across_threads(self):
        """The collector stays off until the last open pause ends."""
        seen_on = []

        def pause_repeatedly():
            for _ in range(5000):
                with collector_paused():
                    for _ in range(20):
                        if gc.isenabled():
                            seen_on.append(True)

        threads = [threading.Thread(target=pause_repeatedly) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not seen_on
        assert gc.isenabled()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.parametrize("paused_by_caller", [False, True])
    def test_child_forked_under_a_pause(self, paused_by_caller):
        """A pause's child collects; a caller's own disable is inherited."""
        if paused_by_caller:
            gc.disable()
        read_end, write_end = os.pipe()
        with collector_paused():
            pid = os.fork()
            if pid == 0:
                os.write(write_end, b"1" if gc.isenabled() else b"0")
                os._exit(0)
        os.close(write_end)
        with os.fdopen(read_end, "rb") as reader:
            reported = reader.read()
        os.waitpid(pid, 0)
        assert reported == (b"0" if paused_by_caller else b"1")


def assert_no_cyclic_garbage(call):
    """Run ``call`` twice (the first warms caches) and fail on dropped cycles."""
    call()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        call()
        gc.collect()
        leaked = Counter(type(obj).__qualname__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not leaked, f"{call.__name__} left cyclic garbage: {leaked.most_common(10)}"


@pytest.fixture(scope="module")
def quarter(tmp_path_factory):
    reports = SyntheticFAERSGenerator(
        SyntheticConfig(n_reports=300, n_drugs=120, n_adrs=40, seed=7)
    ).generate()
    files = write_quarter_files(reports, tmp_path_factory.mktemp("quarter"))
    return reports, files


CONFIG = dict(min_support=3, clean=True)


class TestBulkEntryPointsDropNoCycles:
    def test_parse_quarter(self, quarter):
        _, files = quarter

        def parse():
            parse_quarter(*files.as_tuple(), quarter="2014Q1")

        assert_no_cyclic_garbage(parse)

    def test_clean(self, quarter):
        reports, _ = quarter

        def clean():
            ReportCleaner().clean(reports)

        assert_no_cyclic_garbage(clean)

    def test_maras_run(self, quarter):
        reports, _ = quarter

        def run():
            Maras(MarasConfig(**CONFIG)).run(reports).records()

        assert_no_cyclic_garbage(run)

    def test_result_store(self, quarter, tmp_path):
        reports, _ = quarter
        result = Maras(MarasConfig(**CONFIG)).run(reports)

        def add_and_save():
            store = ResultStore()
            store.add_result("q1", result)
            store.save(f"sqlite:///{tmp_path / 'runs.db'}")

        assert_no_cyclic_garbage(add_and_save)

    def test_stream_batch_refresh_and_checkpoint(self, quarter, tmp_path):
        """A follow-up version, a store refresh and a delta checkpoint."""
        reports, _ = quarter
        config = MarasConfig(**CONFIG, incremental=True)
        base, rest = reports[:200], reports[200:]
        follow_up = CaseReport.build(
            base[0].case_id,
            set(base[0].drugs) | set(base[1].drugs),
            set(base[0].adrs) | set(base[1].adrs),
            quarter="2014Q1",
        )
        batches = iter([rest[:50], [*rest[50:], follow_up]])
        store = ResultStore()
        with open_backend(f"sqlite:///{tmp_path / 'watch.db'}") as backend:
            with SurveillanceMonitor(config) as monitor:
                monitor.ingest(base)
                store.add_result("watch", monitor.result)
                checkpoint_monitor(
                    backend,
                    "watch",
                    monitor,
                    fingerprint=config_fingerprint(config),
                )

                def ingest_refresh_checkpoint():
                    monitor.ingest(next(batches))
                    store.refresh_from("watch", monitor)
                    checkpoint_monitor(
                        backend,
                        "watch",
                        monitor,
                        fingerprint=config_fingerprint(config),
                    )

                assert_no_cyclic_garbage(ingest_refresh_checkpoint)
                assert monitor.engine_stats["n_rows_updated"] >= 1
