"""The repo benchmark: one run = set-up, then the batch, stream and query phases.

    python3 perfbench/run.py --workload spill --seed 1 --seconds 30 --trace 0

Every run measures all three phases of the MeDIAR deployment:

- ``query``  — open-loop HTTP at fixed rates against one forked async
  serving process over the run the batch job produces;
- ``batch``  — back-to-back ``mediar run`` jobs: parse → clean → mine →
  snapshot → SQLite catalog → first GET;
- ``stream`` — ``mediar watch --workers 2 --store sqlite://…`` as a
  serving process that also ingests: cold starts, then small batches
  each refreshed, answered and checkpointed.

``--workload`` picks the query traffic mix (see ``inputs.WORKLOADS``).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` also runs
the traced pass and prints the per-layer metrics plus the tracing
overhead. The last line of standard output is the result object; the
full report (checks, per-step load, machine context) goes to the line
before it and to ``.perfbench_out/``. See ``perfbench/README.md``.

The gated timings (``setup_s`` and the two throughputs) are rescaled to
the nominal speed of ``perfbench.gauge``, read between slots; their
wall-clock values are in the report and in the traced run's metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from contextlib import ExitStack
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

#: Measured with tracing off but reported only by traced runs, with the
#: per-layer metrics: on a shared 2-vCPU machine their run-to-run spread
#: over ten seeds (up to 0.26-0.84 of the median) reaches or exceeds the
#: largest regression bound a metric may have (0.25).
#: `stream.first_result_s` swings with the pool's residency-miss storm;
#: the others with the machine's scheduling noise and speed drift.
UNSTEADY = (
    "query.max_rps",
    "stream.first_result_s",
    "stream.freshness_p50_s",
    "stream.freshness_p90_s",
    "query.light.p50_ms",
    "query.light.p99_ms",
    "query.heavy.p50_ms",
    "query.heavy.p99_ms",
)

UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "batch.reports_per_s": "1/s",
    "stream.first_result_s": "s",
    "stream.freshness_p50_s": "s",
    "stream.freshness_p90_s": "s",
    "stream.reports_per_s": "1/s",
    "query.light.p50_ms": "ms",
    "query.light.p99_ms": "ms",
    "query.heavy.p50_ms": "ms",
    "query.heavy.p99_ms": "ms",
    "query.max_rps": "1/s",
    "batch.wall_reports_per_s": "1/s",
    "stream.wall_reports_per_s": "1/s",
    "bench.setup_wall_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="MeDIAR repo benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny: seconds-long smoke run (perfbench/tests)",
    )
    return parser.parse_args(argv)


def _load_system():
    """Import the system under test from the checkout's ``src``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from perfbench import gauge, inputs, phases, procs, tracing
    except ImportError as error:
        print(f"error: cannot import the system under test: {error}", file=sys.stderr)
        raise SystemExit(2) from None
    return gauge, inputs, phases, procs, tracing


def _units(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    gauge, inputs, phases, procs, tracing = _load_system()
    if args.workload not in inputs.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(inputs.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    profile = inputs.PROFILES[args.size]
    workload = inputs.WORKLOADS[args.workload]
    context = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        **procs.machine_context(),
        "leftover_processes": procs.leftover_processes(),
    }
    if context["leftover_processes"]:
        print(
            "warning: processes of an earlier benchmark run are still alive: "
            f"{context['leftover_processes']}",
            file=sys.stderr,
        )
    procs.install_child_reaper()
    procs.install_signal_exit()
    work = OUT / f"work-{os.getpid()}"
    passes, peaks = {}, {}
    setup_times, setup_scaled = [], []
    speed = gauge.SpeedGauge()
    tracers = {"untraced": tracing.NO_TRACE}
    if args.trace:
        tracers["traced"] = tracing.Tracer()
    servers = ExitStack()
    try:
        rounds = []  # index of the gauge reading taken right before each round
        for _ in range(profile.setup_rounds):
            servers.close()  # the previous round's server
            speed.read()
            rounds.append(len(speed.readings_ms) - 1)
            started = time.perf_counter()
            shutil.rmtree(work, ignore_errors=True)
            prep = phases.prepare(profile, workload, args.seed, args.seconds, work)
            server = servers.enter_context(phases.serving(prep.store, traced=False))
            setup_times.append(time.perf_counter() - started)
        for name, tracer in tracers.items():
            if tracer.enabled:
                servers.close()  # the untraced pass's server
                server = servers.enter_context(phases.serving(prep.store, traced=True))
            passes[name], peaks[name] = phases.run_pass(
                prep, server, profile, args.seconds, tracer, speed
            )
            if not setup_scaled:  # the first pass's readings follow set-up
                setup_scaled = [t * speed.factor(i) for t, i in zip(setup_times, rounds)]
    except BaseException:
        traceback.print_exc()
        return 1
    finally:
        servers.close()
        leftover = procs.reap_children()
        if leftover:
            print(f"warning: reaped leftover children {leftover}", file=sys.stderr)
        shutil.rmtree(work, ignore_errors=True)

    results = [result for phase_results in passes.values() for result in phase_results.values()]
    checks = {name: ok for result in results for name, ok in result.checks.items()}
    attempted = sum(result.attempted for result in results)
    failed = sum(result.failed for result in results)
    untraced = passes["untraced"]
    if args.trace:
        traced = passes["traced"]
        metrics = {name: v for r in traced.values() for name, v in r.layers.items()}
        metrics.update(_overheads(untraced, traced))
        measured = {name: v for r in untraced.values() for name, v in r.metrics.items()}
        metrics.update({name: measured[name] for name in UNSTEADY})
        for phase in ("batch", "stream"):
            metrics[f"{phase}.wall_reports_per_s"] = untraced[phase].detail["wall_reports_per_s"]
        metrics["bench.setup_wall_s"] = statistics.median(setup_times)
        metrics["bench.gauge_ms"] = statistics.median(speed.readings_ms)
        self_times = tracers["traced"].self_seconds()
        # Pipelined query.request spans overlap, so "http" gets no self time.
        for layer in ("faers", "core", "incremental", "serve", "store", "bench"):
            metrics[f"{layer}.self_s"] = self_times.get(layer, 0.0)
        tracers["traced"].write(OUT / f"trace-{workload.name}-seed{args.seed}.jsonl")
    else:
        metrics = {
            name: v
            for r in untraced.values()
            for name, v in r.metrics.items()
            if name not in UNSTEADY
        }
        metrics["setup_s"] = statistics.median(setup_scaled)
        metrics["peak_rss_mb"] = peaks["untraced"]
    report = {
        **context,
        "setup_wall_s": [round(v, 4) for v in setup_times],
        "setup_scaled_s": [round(v, 4) for v in setup_scaled],
        "gauge_ms": [round(v, 3) for v in speed.readings_ms],
        "checks": checks,
        "phases": {
            pass_name: {phase: r.detail for phase, r in phase_results.items()}
            for pass_name, phase_results in passes.items()
        },
    }
    result = {
        "correct": bool(checks) and all(checks.values()) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": _units(name)}
            for name, value in sorted(metrics.items())
        },
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**report, "result": result}, indent=1, default=str))
    print(json.dumps({"report": report}, default=str))
    print(json.dumps(result))
    return 0


def _overheads(untraced, traced) -> dict:
    """Tracing overhead per phase: traced vs untraced headline time, in %."""
    pairs = {
        "batch.trace_overhead_pct": ("batch", "median_job_scaled_s", False),
        "stream.trace_overhead_pct": ("stream", "stream.freshness_p50_s", True),
        "query.trace_overhead_pct": ("query", "query.light.p50_ms", True),
    }
    overheads = {}
    for name, (phase, key, is_metric) in pairs.items():
        if is_metric:
            base, with_trace = untraced[phase].metrics[key], traced[phase].metrics[key]
        else:
            base, with_trace = untraced[phase].detail[key], traced[phase].detail[key]
        overheads[name] = 100.0 * (with_trace / base - 1.0)
    return overheads


if __name__ == "__main__":
    raise SystemExit(main())
