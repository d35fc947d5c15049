"""Durable-store performance: catalog ops and checkpoint round trips.

Beyond the paper: the production posture the store subsystem adds —
versioned snapshot saves, warm-restart loads, per-batch checkpoints —
must cost little next to mining itself, or nobody runs with
``--store`` enabled. Measures, for both backends where applicable:

- ``save_run`` / ``load_run`` latency over a chain of versions;
- ``compact()`` reclaim on the SQLite catalog (bytes on disk);
- the checkpoint+restore round trip of a live surveillance stream,
  including the serialized state size — the per-batch durability tax;
- on a longer stream (a standing base, then 100 small batches), the
  checkpoint cost of the first and the last batches, the bytes a batch
  commits and the restore time, in both clean modes (the clean stream
  re-submits follow-up versions of earlier cases): a checkpoint commits
  only the batch's change, so its cost must stay flat as the history
  behind it grows.

Appends to ``BENCH_store.json`` via the shared trajectory writer.
"""

from __future__ import annotations

import json
import random
import statistics
import time

import pytest

from repro.core import MarasConfig
from repro.core.export import export_result
from repro.core.incremental import SurveillanceMonitor
from repro.faers import (
    CaseReport,
    ReportDataset,
    SyntheticFAERSGenerator,
    quarter_config,
)
from repro.store import (
    DirectoryBackend,
    SQLiteBackend,
    checkpoint_monitor,
    config_fingerprint,
    restore_monitor,
)
from repro.store.backend import JournalEntry

from benchmarks._trajectory import REPO_ROOT, append_run, base_record
from benchmarks.conftest import write_artifact

SCALE = 0.02
N_VERSIONS = 20
N_BATCHES = 6
MIN_SUPPORT = 5

# Longer stream: a standing base, then many small batches on top of it.
STREAM_SCALE = 0.05
STREAM_BASE = 1800
STREAM_BATCH = 28
STREAM_BATCHES = 100
STREAM_WINDOW = 10  # batches per end whose median is recorded
STREAM_FOLLOW_UPS = 6  # follow-up versions per batch of the clean stream
#: Late-batch checkpoint cost over early-batch cost.
MAX_LATE_OVER_EARLY = 3.0

TRAJECTORY_PATH = REPO_ROOT / "BENCH_store.json"


def _mined_payload() -> dict:
    from repro.core import Maras

    generator = SyntheticFAERSGenerator(quarter_config("2014Q1", scale=SCALE))
    dataset = ReportDataset(generator.generate())
    result = Maras(MarasConfig(min_support=MIN_SUPPORT, clean=False)).run(
        dataset
    )
    return export_result(result)


def _timed(operation, repeats: int) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        operation()
    return (time.perf_counter() - start) / repeats * 1000.0


def test_store_benchmark(tmp_path):
    payload = _mined_payload()
    payload_bytes = len(
        json.dumps(payload, sort_keys=True, separators=(",", ":"))
    )

    # -- catalog ops, both backends ------------------------------------
    timings: dict[str, float] = {}
    directory = DirectoryBackend(tmp_path / "dirstore")
    timings["dir_save_ms"] = _timed(
        lambda: directory.save_run("q1", payload), N_VERSIONS
    )
    timings["dir_load_ms"] = _timed(
        lambda: directory.load_run("q1"), N_VERSIONS
    )

    db_path = tmp_path / "runs.db"
    with SQLiteBackend(db_path) as backend:
        timings["sqlite_save_ms"] = _timed(
            lambda: backend.save_run("q1", payload), N_VERSIONS
        )
        timings["sqlite_load_ms"] = _timed(
            lambda: backend.load_run("q1"), N_VERSIONS
        )
        def on_disk() -> int:
            # WAL mode: pages live in the -wal sidecar until folded in.
            return sum(
                p.stat().st_size
                for suffix in ("", "-wal", "-shm")
                for p in [db_path.with_name(db_path.name + suffix)]
                if p.exists()
            )

        size_before = on_disk()
        dropped = backend.compact()
        size_after = on_disk()
    assert dropped == N_VERSIONS - 1
    assert size_after < size_before  # VACUUM reclaims superseded bodies

    # -- checkpoint round trip on a live stream ------------------------
    generator = SyntheticFAERSGenerator(quarter_config("2014Q2", scale=SCALE))
    reports = list(ReportDataset(generator.generate()))
    size = -(-len(reports) // N_BATCHES)
    batches = [
        reports[i * size : (i + 1) * size] for i in range(N_BATCHES)
    ]
    config = MarasConfig(
        min_support=MIN_SUPPORT, clean=False, incremental=True
    )
    fingerprint = config_fingerprint(config)
    checkpoint_ms = []
    with SQLiteBackend(tmp_path / "watch.db") as backend:
        with SurveillanceMonitor(config) as monitor:
            for index, batch in enumerate(batches):
                monitor.ingest(batch)
                start = time.perf_counter()
                checkpoint_monitor(
                    backend,
                    "q2",
                    monitor,
                    fingerprint=fingerprint,
                    journal=[
                        JournalEntry(index, [r.case_id for r in batch])
                    ],
                )
                checkpoint_ms.append((time.perf_counter() - start) * 1000.0)
            expected = export_result(monitor.result)
        state_bytes = len(
            json.dumps(
                backend.load_checkpoint("q2").state,
                sort_keys=True,
                separators=(",", ":"),
            )
        )
        start = time.perf_counter()
        restored = restore_monitor(backend, "q2", config)
        restore_ms = (time.perf_counter() - start) * 1000.0
        with restored:
            assert export_result(restored.result) == expected
    timings["checkpoint_ms"] = sum(checkpoint_ms) / len(checkpoint_ms)
    timings["restore_ms"] = restore_ms

    lines = [
        f"Durable store — {N_VERSIONS} versions of a "
        f"{payload_bytes:,d}-byte payload, {N_BATCHES}-batch stream",
        f"{'operation':<22s} {'ms':>10s}",
    ]
    for name, value in timings.items():
        lines.append(f"{name:<22s} {value:>10.2f}")
    lines.append(
        f"compact reclaimed {size_before - size_after:,d} bytes "
        f"({size_before:,d} -> {size_after:,d})"
    )
    lines.append(f"checkpoint state: {state_bytes:,d} bytes")
    artifact = "\n".join(lines)
    print("\n" + artifact)
    write_artifact("store.txt", artifact)

    append_run(
        TRAJECTORY_PATH,
        "store",
        "store_roundtrip",
        base_record(
            payload_bytes=payload_bytes,
            n_versions=N_VERSIONS,
            n_batches=N_BATCHES,
            **{name: round(value, 3) for name, value in timings.items()},
            compact_reclaimed_bytes=size_before - size_after,
            checkpoint_state_bytes=state_bytes,
        ),
    )

    # The durability tax must stay well under mining cost: a checkpoint
    # round trip is a few dozen ms at this scale, not seconds.
    assert timings["checkpoint_ms"] < 1000.0
    assert timings["sqlite_load_ms"] < 1000.0


def _follow_up(report: CaseReport, donor: CaseReport) -> CaseReport:
    """A later version of ``report`` adding the donor's first drug and ADR."""
    return CaseReport.build(
        report.case_id,
        set(report.drugs) | {donor.drugs[0]},
        set(report.adrs) | {donor.adrs[0]},
        quarter=report.quarter,
    )


@pytest.mark.parametrize("clean", [False, True], ids=["noclean", "clean"])
def test_checkpoint_cost_is_flat_in_history(tmp_path, clean):
    """Late-batch checkpoints cost what early ones do: deltas, not history.

    The stream takes a 1,800-report base and then 100 batches of 28,
    checkpointing after each; in clean mode each batch also carries
    follow-up versions of earlier cases, which update committed
    records. The first commit writes the whole state and is excluded;
    the median cost and size of the first and of the last
    ``STREAM_WINDOW`` batch commits are recorded with the restore time
    of the final checkpoint.
    """
    generator = SyntheticFAERSGenerator(
        quarter_config("2014Q2", scale=STREAM_SCALE)
    )
    reports = list(ReportDataset(generator.generate()))
    needed = STREAM_BASE + STREAM_BATCH * STREAM_BATCHES
    assert len(reports) >= needed, len(reports)
    base = reports[:STREAM_BASE]
    batches = [
        reports[start : start + STREAM_BATCH]
        for start in range(STREAM_BASE, needed, STREAM_BATCH)
    ]
    if clean:
        rng = random.Random(7)
        batches = [
            batch
            + [
                _follow_up(reports[rng.randrange(start)], rng.choice(reports))
                for _ in range(STREAM_FOLLOW_UPS)
            ]
            for start, batch in zip(range(STREAM_BASE, needed, STREAM_BATCH), batches)
        ]
    config = MarasConfig(
        min_support=MIN_SUPPORT, clean=clean, incremental=True
    )
    fingerprint = config_fingerprint(config)
    commit_ms: list[float] = []
    states: list[dict] = []
    with SQLiteBackend(tmp_path / "stream.db") as backend:
        real = backend.save_checkpoint

        def capture(run, state, **kwargs):
            states.append(state)
            real(run, state, **kwargs)

        backend.save_checkpoint = capture
        with SurveillanceMonitor(config) as monitor:
            monitor.ingest(base)
            for index, batch in enumerate(batches):
                monitor.ingest(batch)
                start = time.perf_counter()
                checkpoint_monitor(
                    backend,
                    "stream",
                    monitor,
                    fingerprint=fingerprint,
                    journal=[
                        JournalEntry(index, [r.case_id for r in batch])
                    ],
                )
                commit_ms.append((time.perf_counter() - start) * 1000.0)
            expected = export_result(monitor.result)
        start = time.perf_counter()
        restored = restore_monitor(backend, "stream", config)
        restore_ms = (time.perf_counter() - start) * 1000.0
        with restored:
            assert export_result(restored.result) == expected
    whole_bytes = len(json.dumps(states[0], separators=(",", ":")))
    delta_bytes = [
        len(json.dumps(state, separators=(",", ":"))) for state in states[1:]
    ]
    n_updates = sum(
        position < STREAM_BASE for state in states[1:] for position in state["records"]
    )
    delta_ms = commit_ms[1:]
    first_ms = statistics.median(delta_ms[:STREAM_WINDOW])
    last_ms = statistics.median(delta_ms[-STREAM_WINDOW:])
    first_bytes = statistics.median(delta_bytes[:STREAM_WINDOW])
    last_bytes = statistics.median(delta_bytes[-STREAM_WINDOW:])

    mode = "clean, with follow-ups" if clean else "no-clean"
    artifact = "\n".join(
        [
            f"Per-batch checkpoint ({mode}) — {STREAM_BASE}-report base, "
            f"then {STREAM_BATCHES} batches of {STREAM_BATCH}",
            f"first commit (whole)    {commit_ms[0]:8.3f} ms "
            f"{whole_bytes:10,d} bytes",
            f"first {STREAM_WINDOW} batch commits  {first_ms:8.3f} ms "
            f"{first_bytes:10,.0f} bytes (median)",
            f"last {STREAM_WINDOW} batch commits   {last_ms:8.3f} ms "
            f"{last_bytes:10,.0f} bytes (median)",
            f"base records updated    {n_updates:8d}",
            f"restore                 {restore_ms:8.2f} ms",
        ]
    )
    print("\n" + artifact)
    suffix = "_clean" if clean else ""
    write_artifact(f"store_stream{suffix}.txt", artifact)
    append_run(
        TRAJECTORY_PATH,
        "store",
        f"store_stream{suffix}",
        base_record(
            base_reports=STREAM_BASE,
            batch_reports=STREAM_BATCH,
            n_batches=STREAM_BATCHES,
            follow_ups_per_batch=STREAM_FOLLOW_UPS if clean else 0,
            whole_checkpoint_ms=round(commit_ms[0], 3),
            whole_checkpoint_bytes=whole_bytes,
            first_checkpoint_ms=round(first_ms, 3),
            last_checkpoint_ms=round(last_ms, 3),
            first_checkpoint_bytes=round(first_bytes),
            last_checkpoint_bytes=round(last_bytes),
            base_records_updated=n_updates,
            restore_ms=round(restore_ms, 3),
        ),
    )

    # Gate: the checkpoint of a late batch costs what an early one did.
    assert last_ms / first_ms <= MAX_LATE_OVER_EARLY, (first_ms, last_ms)
    if clean:
        assert n_updates > 0  # follow-ups did update committed records
