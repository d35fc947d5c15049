"""Share of each perfbench phase's time spent in the cyclic collector.

    python3 benchmarks/gc_share.py --workload spill --seed 1 --seconds 32 --trace 0

Runs ``perfbench/run.py`` in this process with the same arguments and a
``gc.callbacks`` hook that times every collection and charges it to
the phase slot running at the time: a batch job, a stream cold start,
or a slot of ten small stream batches. The benchmark itself is not
modified; its result line is printed as usual, followed by one JSON
line that sums, per slot kind, the slots' wall time, the collector's
time in them, the collections per generation, the mean time of a full
(generation 2) collection and the objects the collections freed. The
wrapper adds two clock reads per collection, so the benchmark's own
figures from such a run are not for comparison.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import phases, run  # noqa: E402

_current: list[str] = []
_started = [0.0]
_totals: dict[str, dict] = defaultdict(
    lambda: {
        "slots": 0,
        "wall_s": 0.0,
        "gc_s": 0.0,
        "collections": [0, 0, 0],
        "full_s": 0.0,
        "collected": 0,
    }
)


def _on_collection(phase: str, info: dict) -> None:
    if phase == "start":
        _started[0] = time.perf_counter()
        return
    if not _current:
        return
    elapsed = time.perf_counter() - _started[0]
    totals = _totals[_current[-1]]
    totals["gc_s"] += elapsed
    totals["collections"][info["generation"]] += 1
    totals["collected"] += info["collected"]
    if info["generation"] == 2:
        totals["full_s"] += elapsed


def _charged(kind: str, method):
    def slot(self, *args, **kwargs):
        _current.append(kind)
        start = time.perf_counter()
        try:
            return method(self, *args, **kwargs)
        finally:
            totals = _totals[kind]
            totals["slots"] += 1
            totals["wall_s"] += time.perf_counter() - start
            _current.pop()

    return slot


def summary() -> dict:
    out = {}
    for kind, totals in sorted(_totals.items()):
        n_full = totals["collections"][2]
        out[kind] = {
            "slots": totals["slots"],
            "wall_s": round(totals["wall_s"], 3),
            "gc_s": round(totals["gc_s"], 3),
            "gc_share": round(totals["gc_s"] / totals["wall_s"], 3)
            if totals["wall_s"]
            else None,
            "collections_by_generation": totals["collections"],
            "full_collection_mean_ms": round(1e3 * totals["full_s"] / n_full, 1)
            if n_full
            else None,
            "collected": totals["collected"],
        }
    return out


def main(argv=None) -> int:
    phases.BatchPhase.step = _charged("batch", phases.BatchPhase.step)
    phases.StreamPhase._cold_start = _charged(
        "stream.cold_start", phases.StreamPhase._cold_start
    )
    phases.StreamPhase._small_batches = _charged(
        "stream.small_batches", phases.StreamPhase._small_batches
    )
    gc.callbacks.append(_on_collection)
    try:
        status = run.main(argv)
    finally:
        gc.callbacks.remove(_on_collection)
    print(json.dumps({"gc_share": summary()}))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
