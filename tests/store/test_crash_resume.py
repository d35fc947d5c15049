"""SIGKILL-and-resume harness: the durability acceptance criterion.

Each case runs ``mediar watch --store sqlite:///…`` as a real
subprocess with a crash hook armed (the CLI SIGKILLs itself at a chosen
batch, either *before* the checkpoint commit — losing that batch's work
— or *after* it — dying between batches), then reruns the same command
and asserts the final JSON export is byte-identical to an uninterrupted
run's. The grid crosses quarters (different streams), batch schedules,
kill positions and kill modes.

Set ``DURABILITY_ARTIFACT_DIR`` to persist the SQLite stores outside
pytest's tmp dir — the CI durability-smoke job points it at a directory
it uploads when the job fails.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC_ROOT = str(Path(repro.__file__).resolve().parents[1])
SCALE = "0.004"


def _work_dir(tmp_path: Path, label: str) -> Path:
    root = os.environ.get("DURABILITY_ARTIFACT_DIR")
    directory = (Path(root) if root else tmp_path) / label
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def run_watch(
    directory: Path,
    quarter: str,
    batches: int,
    *,
    out: Path | None = None,
    kill: tuple[str, int] | None = None,
) -> subprocess.CompletedProcess:
    database = directory / "store.db"
    command = [
        sys.executable,
        "-m",
        "repro.cli",
        "watch",
        "--synthetic",
        quarter,
        "--scale",
        SCALE,
        "--batches",
        str(batches),
        "--store",
        f"sqlite://{database}",
        "--run",
        quarter,
    ]
    if out is not None:
        command += ["--out", str(out)]
    env = {**os.environ, "PYTHONPATH": SRC_ROOT}
    env.pop("MEDIAR_WATCH_KILL_BEFORE_CHECKPOINT", None)
    env.pop("MEDIAR_WATCH_KILL_AFTER_CHECKPOINT", None)
    if kill is not None:
        mode, index = kill
        env[f"MEDIAR_WATCH_KILL_{mode}_CHECKPOINT"] = str(index)
    return subprocess.run(
        command, env=env, capture_output=True, text=True, timeout=300
    )


_REFERENCE_CACHE: dict[tuple[str, int], bytes] = {}


def reference_bytes(tmp_path: Path, quarter: str, batches: int) -> bytes:
    key = (quarter, batches)
    if key not in _REFERENCE_CACHE:
        directory = _work_dir(tmp_path, f"ref-{quarter}-{batches}")
        out = directory / "export.json"
        completed = run_watch(directory, quarter, batches, out=out)
        assert completed.returncode == 0, completed.stderr
        _REFERENCE_CACHE[key] = out.read_bytes()
    return _REFERENCE_CACHE[key]


class TestCrashResume:
    @pytest.mark.parametrize("mode", ["BEFORE", "AFTER"])
    @pytest.mark.parametrize("kill_at", [0, 2])
    @pytest.mark.parametrize(
        "quarter,batches", [("2014Q1", 4), ("2014Q2", 5)]
    )
    def test_killed_watch_resumes_byte_identical(
        self, tmp_path, quarter, batches, kill_at, mode
    ):
        expected = reference_bytes(tmp_path, quarter, batches)
        label = f"{quarter}-{batches}-{mode}-{kill_at}"
        directory = _work_dir(tmp_path, label)
        killed = run_watch(
            directory, quarter, batches, kill=(mode, kill_at)
        )
        # SIGKILL: no exit handler ran, no graceful teardown.
        assert killed.returncode == -9, (
            killed.returncode,
            killed.stdout,
            killed.stderr,
        )
        out = directory / "export.json"
        resumed = run_watch(directory, quarter, batches, out=out)
        assert resumed.returncode == 0, resumed.stderr
        done = kill_at + 1 if mode == "AFTER" else kill_at
        if done:
            assert (
                f"resumed run {quarter!r} from its checkpoint: "
                f"{done}/{batches}" in resumed.stdout
            )
        else:
            # Killed inside the very first batch: nothing was committed,
            # so the rerun starts from scratch.
            assert "resumed" not in resumed.stdout
        assert out.read_bytes() == expected, label

    def test_completed_watch_reruns_as_republish(self, tmp_path):
        """A second run over a finished stream re-publishes, unchanged."""
        directory = _work_dir(tmp_path, "republish")
        first_out = directory / "first.json"
        second_out = directory / "second.json"
        first = run_watch(directory, "2014Q1", 3, out=first_out)
        assert first.returncode == 0, first.stderr
        second = run_watch(directory, "2014Q1", 3, out=second_out)
        assert second.returncode == 0, second.stderr
        assert "resumed run '2014Q1' from its checkpoint: 3/3" in second.stdout
        assert first_out.read_bytes() == second_out.read_bytes()


class TestCrashResumeLongSchedule:
    """Kills on a longer schedule, around whole and delta commits.

    ``2014Q1`` in 8 equal batches: batch 0 commits the whole state and
    every later batch commits a delta on top of it. Killing at batch 1
    leaves the whole commit (before) or the first delta (after); killing
    at batch 6 leaves a long chain of deltas.
    """

    QUARTER = "2014Q1"
    BATCHES = 8

    @pytest.mark.parametrize("mode", ["BEFORE", "AFTER"])
    @pytest.mark.parametrize("kill_at", [1, 6])
    def test_killed_watch_resumes_byte_identical(self, tmp_path, kill_at, mode):
        from repro.store import SQLiteBackend

        quarter, batches = self.QUARTER, self.BATCHES
        expected = reference_bytes(tmp_path, quarter, batches)
        label = f"{quarter}-{batches}-{mode}-{kill_at}"
        directory = _work_dir(tmp_path, label)
        killed = run_watch(directory, quarter, batches, kill=(mode, kill_at))
        assert killed.returncode == -9, (killed.returncode, killed.stderr)
        done = kill_at + 1 if mode == "AFTER" else kill_at
        with SQLiteBackend(directory / "store.db") as backend:
            checkpoint = backend.load_checkpoint(quarter)
        assert checkpoint.n_batches == done, label
        assert checkpoint.state["batch_index"] == done, label
        out = directory / "export.json"
        resumed = run_watch(directory, quarter, batches, out=out)
        assert resumed.returncode == 0, resumed.stderr
        assert (
            f"resumed run {quarter!r} from its checkpoint: {done}/{batches}"
            in resumed.stdout
        )
        assert out.read_bytes() == expected, label


class TestServeStoreErrors:
    """Satellite: serve --load on a bad store is a one-line nonzero exit."""

    def _serve(self, target) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--load", str(target)],
            env={**os.environ, "PYTHONPATH": SRC_ROOT},
            capture_output=True,
            text=True,
            timeout=120,
        )

    def test_empty_directory(self, tmp_path):
        completed = self._serve(tmp_path)
        assert completed.returncode == 2
        error_lines = completed.stderr.strip().splitlines()
        assert len(error_lines) == 1
        assert error_lines[0].startswith("error: no run snapshots")

    def test_corrupt_snapshot(self, tmp_path):
        (tmp_path / "broken.json").write_text("{nope", encoding="utf-8")
        completed = self._serve(tmp_path)
        assert completed.returncode == 2
        error_lines = completed.stderr.strip().splitlines()
        assert len(error_lines) == 1
        assert "not valid JSON" in error_lines[0]
