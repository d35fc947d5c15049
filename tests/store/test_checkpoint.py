"""Checkpoint/restore byte-identity and resume guards (in process).

The differential contract: a monitor checkpointed into SQLite after any
prefix of a batch schedule, restored from the stored JSON, and fed the
remaining batches must export byte-for-byte what an uninterrupted
monitor exports. The grid runs both clean modes over the same follow-up
laden streams the incremental harness uses, cutting at every batch
boundary.
"""

from __future__ import annotations

import pytest

from repro.core.incremental import SurveillanceMonitor
from repro.core.pipeline import MarasConfig
from repro.errors import StoreError
from repro.store import (
    CHECKPOINT_VERSION,
    SQLiteBackend,
    checkpoint_monitor,
    config_fingerprint,
    restore_monitor,
    verify_journal,
)
from repro.store.backend import JournalEntry
from tests.incremental.streams import export_bytes, make_stream, split_schedule

MIN_SUPPORT = 3
SCHEDULES = {
    "coarse": (0.5, 1.0),
    "fine": (0.2, 0.35, 0.5, 0.65, 0.8, 1.0),
}


def _config(clean: bool) -> MarasConfig:
    return MarasConfig(min_support=MIN_SUPPORT, clean=clean, incremental=True)


def _run_through_store(backend, config, batches, cut):
    """Ingest ``cut`` batches, checkpoint, restore, finish the stream."""
    fingerprint = config_fingerprint(config)
    with SurveillanceMonitor(config) as monitor:
        for index in range(cut):
            monitor.ingest(batches[index])
            checkpoint_monitor(
                backend,
                "run",
                monitor,
                fingerprint=fingerprint,
                journal=[
                    JournalEntry(
                        index, [r.case_id for r in batches[index]]
                    )
                ],
            )
    resumed = restore_monitor(backend, "run", config)
    assert resumed is not None
    assert resumed.n_batches == cut
    verify_journal(backend, "run", batches, cut)
    with resumed:
        for batch in batches[cut:]:
            resumed.ingest(batch)
        return export_bytes(resumed.result)


class TestByteIdentity:
    @pytest.mark.parametrize("clean", [False, True], ids=["noclean", "clean"])
    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    @pytest.mark.parametrize("seed", [11, 47])
    def test_resumed_stream_matches_uninterrupted(
        self, tmp_path, seed, schedule, clean
    ):
        stream = make_stream(seed)
        batches = split_schedule(stream, SCHEDULES[schedule])
        config = _config(clean)
        with SurveillanceMonitor(config) as reference:
            for batch in batches:
                reference.ingest(batch)
            expected = export_bytes(reference.result)
        for cut in range(1, len(batches)):
            with SQLiteBackend(tmp_path / f"cut{cut}.db") as backend:
                assert (
                    _run_through_store(backend, config, batches, cut)
                    == expected
                ), f"seed={seed} schedule={schedule} clean={clean} cut={cut}"


class TestResumeGuards:
    @pytest.fixture
    def backend(self, tmp_path):
        with SQLiteBackend(tmp_path / "guards.db") as backend:
            yield backend

    @pytest.fixture
    def checkpointed(self, backend):
        config = _config(False)
        batches = split_schedule(make_stream(11), SCHEDULES["coarse"])
        with SurveillanceMonitor(config) as monitor:
            monitor.ingest(batches[0])
            checkpoint_monitor(
                backend,
                "run",
                monitor,
                fingerprint=config_fingerprint(config),
                journal=[
                    JournalEntry(0, [r.case_id for r in batches[0]])
                ],
            )
        return config, batches

    def test_absent_checkpoint_restores_none(self, backend):
        assert restore_monitor(backend, "run", _config(False)) is None

    def test_config_drift_is_refused(self, backend, checkpointed):
        drifted = MarasConfig(
            min_support=MIN_SUPPORT + 1, clean=False, incremental=True
        )
        with pytest.raises(StoreError, match="different\\s+mining config"):
            restore_monitor(backend, "run", drifted)

    def test_worker_count_is_not_config_drift(self, checkpointed):
        config, _ = checkpointed
        parallel = MarasConfig(
            min_support=MIN_SUPPORT,
            clean=False,
            incremental=True,
            n_workers=4,
        )
        assert config_fingerprint(parallel) == config_fingerprint(config)

    def test_clean_mode_mismatch_is_refused(self, backend, checkpointed):
        # clean is an output-affecting field, so the fingerprint guard
        # catches the mismatch before the engine even loads.
        with pytest.raises(StoreError, match="different\\s+mining config"):
            restore_monitor(backend, "run", _config(True))

    def test_engine_refuses_opposite_clean_mode(self, checkpointed):
        from repro.incremental.engine import IncrementalEngine

        config, batches = checkpointed
        with SurveillanceMonitor(config) as monitor:
            monitor.ingest(batches[0])
            engine_state = monitor.checkpoint_state()["engine"]
        with pytest.raises(StoreError, match="refusing to mix"):
            IncrementalEngine.from_state(_config(True), engine_state)

    def test_layout_version_is_checked(self, backend, checkpointed):
        config, _ = checkpointed
        checkpoint = backend.load_checkpoint("run")
        backend.save_checkpoint(
            "run",
            {**checkpoint.state, "version": CHECKPOINT_VERSION + 1},
            n_batches=checkpoint.n_batches,
            fingerprint=checkpoint.fingerprint,
            commit_id="next",
        )
        with pytest.raises(StoreError, match="layout version"):
            restore_monitor(backend, "run", config)

    def test_changed_input_fails_journal_verification(
        self, backend, checkpointed
    ):
        _, batches = checkpointed
        drifted = [list(batches[0][:-1])] + [list(b) for b in batches[1:]]
        with pytest.raises(StoreError, match="does not match the journal"):
            verify_journal(backend, "run", drifted, 1)

    def test_missing_journal_row_is_inconsistent(self, backend, checkpointed):
        _, batches = checkpointed
        with pytest.raises(StoreError, match="no journal row"):
            verify_journal(backend, "run", batches, 2)

    def test_full_rescan_monitor_cannot_checkpoint(self):
        config = MarasConfig(
            min_support=MIN_SUPPORT, clean=True, incremental=False
        )
        batches = split_schedule(make_stream(11), SCHEDULES["coarse"])
        with SurveillanceMonitor(config) as monitor:
            monitor.ingest(batches[0])
            with pytest.raises(StoreError, match="incremental"):
                monitor.checkpoint_state()

    def test_engine_cannot_checkpoint_before_first_batch(self):
        from repro.incremental.engine import IncrementalEngine

        engine = IncrementalEngine(_config(False))
        with pytest.raises(StoreError, match="before the first batch"):
            engine.checkpoint_state()


# -- per-batch commits: only what a batch changed ------------------------

#: A small first batch, then 23 batches of ~4% of the stream each.
LONG_SCHEDULE = (0.1,) + tuple(
    round(0.1 + 0.04 * step, 2) for step in range(1, 23)
) + (1.0,)


def _commits(backend, monkeypatch) -> list[tuple[str, list[int]]]:
    """Record, per commit, whether it was whole or a delta, and its positions."""
    commits: list[tuple[str, list[int]]] = []
    real = backend.save_checkpoint

    def spy(run, state, **kwargs):
        real(run, state, **kwargs)
        kind = "whole" if kwargs.get("parent") is None else "delta"
        commits.append((kind, list(state["records"])))

    monkeypatch.setattr(backend, "save_checkpoint", spy)
    return commits


def _checkpoint(backend, monitor, config, index, batch):
    checkpoint_monitor(
        backend,
        "run",
        monitor,
        fingerprint=config_fingerprint(config),
        journal=[JournalEntry(index, [r.case_id for r in batch])],
    )


class TestPerBatchCommits:
    @pytest.mark.parametrize("clean", [False, True], ids=["noclean", "clean"])
    def test_restore_at_every_cut_matches_uninterrupted(
        self, tmp_path, monkeypatch, clean
    ):
        batches = split_schedule(make_stream(47), LONG_SCHEDULE)
        config = _config(clean)
        exports, feeds = [], []
        with SurveillanceMonitor(config) as reference:
            for batch in batches:
                feeds.append(reference.ingest(batch))
                exports.append(export_bytes(reference.result))
        with SQLiteBackend(tmp_path / "long.db") as backend:
            commits = _commits(backend, monkeypatch)
            with SurveillanceMonitor(config) as monitor:
                for index, batch in enumerate(batches[:-1]):
                    monitor.ingest(batch)
                    _checkpoint(backend, monitor, config, index, batch)
                    restored = restore_monitor(backend, "run", config)
                    with restored:
                        label = f"clean={clean} cut={index + 1}"
                        assert restored.n_batches == monitor.n_batches, label
                        assert len(restored) == len(monitor), label
                        assert export_bytes(restored.result) == exports[index]
                        assert restored.ingest(batches[index + 1]) == (
                            feeds[index + 1]
                        ), label
                        assert (
                            export_bytes(restored.result) == exports[index + 1]
                        ), label
        # The first commit writes the whole state, every later one a delta.
        assert [kind for kind, _ in commits] == ["whole"] + ["delta"] * (
            len(batches) - 2
        )

    def test_follow_ups_update_committed_positions(self, tmp_path, monkeypatch):
        # Clean mode: a follow-up version changes the merged report of a
        # case committed earlier, so some delta writes over its position.
        batches = split_schedule(make_stream(47), LONG_SCHEDULE)
        config = _config(True)
        with SQLiteBackend(tmp_path / "puts.db") as backend:
            commits = _commits(backend, monkeypatch)
            with SurveillanceMonitor(config) as monitor:
                for index, batch in enumerate(batches):
                    monitor.ingest(batch)
                    _checkpoint(backend, monitor, config, index, batch)
        updates, held = [], 0
        for _, positions in commits:
            updates.extend(p for p in positions if p < held)
            held = max([held - 1, *positions]) + 1
        assert updates

    @pytest.mark.parametrize("clean", [False, True], ids=["noclean", "clean"])
    def test_loaded_state_is_the_whole_state(self, tmp_path, clean):
        batches = split_schedule(make_stream(11), LONG_SCHEDULE)
        config = _config(clean)
        with SQLiteBackend(tmp_path / "deltas.db") as backend, SQLiteBackend(
            tmp_path / "whole.db"
        ) as whole, SurveillanceMonitor(config) as monitor, SurveillanceMonitor(
            config
        ) as twin:
            for index, batch in enumerate(batches):
                monitor.ingest(batch)
                twin.ingest(batch)
                _checkpoint(backend, monitor, config, index, batch)
                # The twin always writes its whole state into a cleared run.
                whole.clear_checkpoint("run")
                _checkpoint(whole, twin, config, index, batch)
                loaded = backend.load_checkpoint("run")
                expected = whole.load_checkpoint("run")
                assert loaded.state == expected.state, f"batch {index}"
                assert loaded.n_batches == expected.n_batches == index + 1
                assert loaded.commit_id == monitor.checkpoint_id

    def test_second_monitor_writes_whole_state(self, tmp_path, monkeypatch):
        batches = split_schedule(make_stream(11), LONG_SCHEDULE)
        config = _config(False)
        with SQLiteBackend(tmp_path / "lineage.db") as backend:
            commits = _commits(backend, monkeypatch)
            with SurveillanceMonitor(config) as first, SurveillanceMonitor(
                config
            ) as second:
                for index in range(3):
                    first.ingest(batches[index])
                    _checkpoint(backend, first, config, index, batches[index])
                assert [k for k, _ in commits] == ["whole", "delta", "delta"]
                # Another lineage under the same run name: its whole
                # state, never a delta on top of the first monitor's.
                second.ingest(batches[0])
                _checkpoint(backend, second, config, 0, batches[0])
                assert commits[-1][0] == "whole"
                restored = restore_monitor(backend, "run", config)
                with restored:
                    assert restored.n_batches == 1
                    assert export_bytes(restored.result) == export_bytes(
                        second.result
                    )
                # The first monitor's commit is gone: it writes whole too.
                first.ingest(batches[3])
                _checkpoint(backend, first, config, 3, batches[3])
                assert commits[-1][0] == "whole"
                restored = restore_monitor(backend, "run", config)
                with restored:
                    assert restored.n_batches == 4
                    assert export_bytes(restored.result) == export_bytes(
                        first.result
                    )

    @pytest.mark.parametrize("clean", [False, True], ids=["noclean", "clean"])
    @pytest.mark.parametrize("when", ["before", "after"])
    # Batch 0 writes the whole state; batch 5 writes a delta that, in
    # clean mode, updates the merged report of a case committed earlier.
    @pytest.mark.parametrize("fail_at", [0, 5], ids=["whole", "delta"])
    def test_failed_commit_loses_nothing(
        self, tmp_path, monkeypatch, clean, when, fail_at
    ):
        """A commit raising StoreError once, then the next one succeeding.

        ``before``: the commit never reached the store. ``after``: it
        did, but the writer saw an error — the stored commit is then
        unknown to the monitor, which writes its whole state next.
        """
        batches = split_schedule(make_stream(47), LONG_SCHEDULE)
        config = _config(clean)
        with SurveillanceMonitor(config) as reference:
            for batch in batches:
                reference.ingest(batch)
            expected = export_bytes(reference.result)
        cut = fail_at + 3
        with SQLiteBackend(tmp_path / "flaky.db") as backend:
            real = backend.save_checkpoint
            armed = {"on": False}

            def flaky(*args, **kwargs):
                if not armed["on"]:
                    return real(*args, **kwargs)
                armed["on"] = False
                if when == "after":
                    real(*args, **kwargs)
                raise StoreError("injected commit failure")

            monkeypatch.setattr(backend, "save_checkpoint", flaky)
            fingerprint = config_fingerprint(config)
            # The next commit newly covers the failed batch too, so its
            # journal row rides along with it.
            pending: list[JournalEntry] = []
            with SurveillanceMonitor(config) as monitor:
                for index in range(cut):
                    monitor.ingest(batches[index])
                    pending.append(
                        JournalEntry(index, [r.case_id for r in batches[index]])
                    )
                    armed["on"] = index == fail_at
                    try:
                        checkpoint_monitor(
                            backend,
                            "run",
                            monitor,
                            fingerprint=fingerprint,
                            journal=pending,
                        )
                    except StoreError as error:
                        assert index == fail_at and "injected" in str(error)
                        continue
                    assert index != fail_at, "the failure was not reached"
                    pending = []
                # The stored state is the monitor's whole state, the
                # failed batch's changes included.
                with SQLiteBackend(tmp_path / "whole.db") as whole:
                    checkpoint_monitor(
                        whole, "run", monitor, fingerprint=fingerprint
                    )
                    assert (
                        backend.load_checkpoint("run").state
                        == whole.load_checkpoint("run").state
                    )
            resumed = restore_monitor(backend, "run", config)
            assert resumed.n_batches == cut
            verify_journal(backend, "run", batches, cut)
            with resumed:
                for index in range(cut, len(batches)):
                    resumed.ingest(batches[index])
                    _checkpoint(
                        backend, resumed, config, index, batches[index]
                    )
                assert export_bytes(resumed.result) == expected
            again = restore_monitor(backend, "run", config)
            with again:
                assert export_bytes(again.result) == expected

    def test_version_one_checkpoint_is_refused(self, tmp_path):
        import sqlite3

        # A store file as a layout-1 build left it: the whole state in
        # one checkpoints row, and no commit id column.
        path = tmp_path / "v1.db"
        config = _config(False)
        with sqlite3.connect(path) as raw:
            raw.execute(
                "CREATE TABLE checkpoints (run TEXT PRIMARY KEY, updated_at"
                " TEXT NOT NULL, n_batches INTEGER NOT NULL, fingerprint"
                " TEXT NOT NULL, state TEXT NOT NULL)"
            )
            raw.execute(
                "INSERT INTO checkpoints VALUES ('run', '2026-01-01T00:00:00Z',"
                " 1, ?, ?)",
                (
                    config_fingerprint(config),
                    '{"version":1,"batch_index":1,"n_reports":0,'
                    '"seen_case_ids":[],"engine":{}}',
                ),
            )
        with SQLiteBackend(path) as backend:
            assert backend.load_checkpoint("run").commit_id is None
            with pytest.raises(StoreError, match="layout version 1;"):
                restore_monitor(backend, "run", config)

    def test_cleared_run_forgets_its_rows(self, tmp_path):
        import sqlite3

        config = _config(True)
        batches = split_schedule(make_stream(11), LONG_SCHEDULE)
        path = tmp_path / "cleared.db"
        with SQLiteBackend(path) as backend:
            with SurveillanceMonitor(config) as monitor:
                for index in range(5):
                    monitor.ingest(batches[index])
                    _checkpoint(backend, monitor, config, index, batches[index])
                backend.clear_checkpoint("run")
                assert restore_monitor(backend, "run", config) is None
                assert backend.checkpoint_commit("run") is None
                with sqlite3.connect(path) as raw:
                    for table in ("checkpoint_records", "checkpoint_seen"):
                        (n_rows,) = raw.execute(
                            f"SELECT COUNT(*) FROM {table} WHERE run = 'run'"
                        ).fetchone()
                        assert n_rows == 0, table
                # The monitor's own next commit finds no parent: whole.
                monitor.ingest(batches[5])
                _checkpoint(backend, monitor, config, 5, batches[5])
                restored = restore_monitor(backend, "run", config)
                with restored:
                    assert restored.n_batches == 6
                    assert export_bytes(restored.result) == export_bytes(
                        monitor.result
                    )
            backend.clear_checkpoint("run")
            # A fresh stream under the same name sees nothing stale.
            other = split_schedule(make_stream(47), LONG_SCHEDULE)
            with SurveillanceMonitor(config) as fresh:
                fresh.ingest(other[0])
                _checkpoint(backend, fresh, config, 0, other[0])
                restored = restore_monitor(backend, "run", config)
                with restored:
                    assert restored.n_batches == 1
                    assert len(restored) == len(fresh)
                    assert export_bytes(restored.result) == export_bytes(
                        fresh.result
                    )
