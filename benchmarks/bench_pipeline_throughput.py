"""Pipeline throughput across data scales.

How the end-to-end pipeline (clean-off, closed mining, rule generation,
MCAC construction) scales with quarter size — the evidence behind the
claim that the full FAERS scale is reachable. Reported as reports/sec
per scale; the shape claim is sub-quadratic growth (doubling the data
costs clearly less than 4× the time).

``test_pipeline_bitsets`` times the middle scale on its own, under its
``pipeline-set-vs-bitset`` group name, so its records stay comparable
across runs.
"""

from __future__ import annotations

import time

import pytest

from repro.core import Maras, MarasConfig
from repro.faers import ReportDataset, SyntheticFAERSGenerator, quarter_config
from repro.obs import MetricsRegistry

from benchmarks.conftest import write_artifact

SCALES = (0.01, 0.02, 0.04)


@pytest.fixture(scope="module")
def datasets():
    return {
        scale: ReportDataset(
            SyntheticFAERSGenerator(quarter_config("2014Q1", scale=scale)).generate()
        )
        for scale in SCALES
    }


@pytest.mark.benchmark(group="pipeline-throughput")
@pytest.mark.parametrize("scale", SCALES)
def test_pipeline_scale(benchmark, datasets, scale):
    maras = Maras(MarasConfig(min_support=5, clean=False))
    result = benchmark.pedantic(
        lambda: maras.run(datasets[scale]), rounds=3, iterations=1
    )
    assert result.clusters
    # One extra profiled run (outside the timed rounds) attaches
    # per-stage wall times and counters to the benchmark record, so the
    # perf trajectory is comparable across PRs.
    profiled = Maras(
        MarasConfig(min_support=5, clean=False), registry=MetricsRegistry()
    ).run(datasets[scale])
    benchmark.extra_info["stage_seconds"] = {
        t.name: round(t.total_seconds, 6) for t in profiled.metrics.timers
    }
    benchmark.extra_info["counters"] = dict(profiled.metrics.counters)


@pytest.mark.benchmark(group="pipeline-set-vs-bitset")
def test_pipeline_bitsets(benchmark, datasets):
    maras = Maras(MarasConfig(min_support=5, clean=False))
    result = benchmark.pedantic(
        lambda: maras.run(datasets[0.02]), rounds=3, iterations=1
    )
    assert result.clusters


def test_throughput_subquadratic(datasets):
    maras = Maras(MarasConfig(min_support=5, clean=False))
    timings = {}
    for scale in SCALES:
        start = time.perf_counter()
        maras.run(datasets[scale])
        timings[scale] = time.perf_counter() - start

    lines = [
        "Pipeline throughput by scale (min-support 5)",
        f"{'scale':>7s} {'reports':>9s} {'seconds':>9s} {'reports/s':>10s}",
    ]
    for scale in SCALES:
        n = len(datasets[scale])
        lines.append(
            f"{scale:>7.2f} {n:>9,d} {timings[scale]:>9.2f} "
            f"{n / timings[scale]:>10,.0f}"
        )
    artifact = "\n".join(lines)
    print("\n" + artifact)
    write_artifact("pipeline_throughput.txt", artifact)

    # 4× the reports must cost well under 16× the time (sub-quadratic).
    assert timings[0.04] < 16 * max(timings[0.01], 1e-3)
