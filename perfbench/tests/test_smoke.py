"""Smoke test of the repo benchmark at tiny sizes.

Runs every workload once untraced and once traced through the real
command line, and checks what a consumer of the results relies on: the
last line is the result object, every metric named in
``BENCHMARK.json`` is present with its unit, and every correctness
check ran and passed.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CHECKS = {
    "batch.export_digest_stable",
    "batch.planted_recovered",
    "stream.matches_one_shot",
    "stream.gets_ok",
    "query.responses_ok",
}


def run(workload: str, trace: int) -> tuple[dict, dict]:
    completed = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "7",
         "--seconds", "3", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_and_check(workload: str, trace: int) -> None:
    report, result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(report["checks"]) == CHECKS and all(report["checks"].values())
    assert report["seed"] == 7 and report["cpu_count"] >= 1 and report["loadavg"]
    names = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in names}
    for metric in names:
        reading = result["metrics"][metric["name"]]
        assert reading["unit"] == metric["unit"], metric["name"]
        assert isinstance(reading["value"], (int, float)), metric["name"]


def test_refuses_without_the_system(tmp_path: Path) -> None:
    """Outside a checkout (no ``src``) it fails without printing a result."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    for directory in SPEC["paths"]:
        shutil.copytree(ROOT / directory, tmp_path / directory)
    completed = subprocess.run(
        [*SPEC["command"], "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
