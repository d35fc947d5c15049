"""Set-up and the three timed phases of a run: ``batch``, ``stream``, ``query``.

Each phase drives the system only through its public calls and checks
its outputs; a failed check counts as a failed operation of the phase.
With a :class:`~perfbench.tracing.Tracer` the same calls are wrapped in
spans and a real :class:`~repro.obs.MetricsRegistry` (with an in-memory
event sink) is passed into ``Maras``, ``SurveillanceMonitor`` and
``QueryEngine``; untraced, they get the default no-op registry.
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import json
import random
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro import Maras, MarasConfig
from repro.core.export import export_result
from repro.core.incremental import SurveillanceMonitor
from repro.faers import ReportDataset
from repro.obs import InMemorySink, MetricsRegistry
from repro.serve import ApiResponder, QueryEngine, ResultStore, forked_workers
from repro.store import JournalEntry, checkpoint_monitor, config_fingerprint, open_backend

from perfbench import inputs
from perfbench.loadgen import LoadGenerator, percentile, summarize
from perfbench.procs import child_pids, peak_rss_mib, reset_peak_rss

RUN = inputs.QUARTER  # the run `mediar run` names after the quarter
STREAM_RUN = "stream"
HOT_PATH = "/v1/clusters"  # the first hot GET: default listing, byte-cached


def _registry(traced: bool):
    return MetricsRegistry(sink=InMemorySink()) if traced else None


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _counters(registry) -> dict[str, int]:
    return dict(registry.snapshot().counters) if registry is not None else {}


def _timer_totals(registry) -> dict[str, float]:
    """Seconds per span name, nested paths folded onto their last name."""
    totals: dict[str, float] = {}
    if registry is None:
        return totals
    for reading in registry.snapshot().timers:
        name = reading.name.rsplit("/", 1)[-1]
        totals[name] = totals.get(name, 0.0) + reading.total_seconds
    return totals


def _diff(after: dict, before: dict) -> dict:
    return {name: value - before.get(name, 0) for name, value in after.items()}


# -- set-up ----------------------------------------------------------------


@dataclass
class Prepared:
    """What set-up hands the timed phases."""

    work: Path
    files: tuple
    n_parsed: int
    targets: set
    base: list
    batches: list
    store: ResultStore
    traffic: inputs.Traffic
    steps: dict  # rate -> arrivals of each window


def prepare(profile, workload, seed: int, seconds: float, work: Path) -> Prepared:
    """Data generation, file writes, stream parse/clean, serving-run mine."""
    generator, reports = inputs.generate_quarter(seed, profile.scale)
    files = inputs.write_files(reports, work / "quarter")
    parsed = inputs.parse_files(files)
    cleaned = inputs.clean(parsed)
    base, batches = inputs.stream_batches(cleaned, profile)
    result = Maras(
        MarasConfig(min_support=inputs.MIN_SUPPORT, max_drugs=inputs.MAX_DRUGS, clean=False)
    ).run(ReportDataset(cleaned))
    store = ResultStore()
    snapshot = store.add_result(RUN, result)
    # Expected answers come from a responder of their own, so the
    # serving responder's response LRU starts as cold as `mediar serve`.
    oracle = ApiResponder(QueryEngine(ResultStore()))
    oracle.engine.store.add_snapshot(snapshot)
    traffic = inputs.Traffic(wire=[], expected=[], index={})
    pools = inputs.query_pools(snapshot, workload, seed)
    steps = {}
    windows = {rate: (1, profile.ladder_window_share) for rate in profile.ladder_rps}
    for rate in (profile.light_rps, profile.heavy_rps):
        windows[rate] = (profile.headline_windows, profile.headline_window_share)
    for rate, (count, share) in windows.items():
        window = max(share * seconds, profile.min_step_requests / rate)
        steps[rate] = [
            inputs.schedule(
                pools,
                traffic,
                oracle,
                rate,
                window,
                random.Random(f"{seed}:{workload.name}:{rate:g}:{index}"),
            )
            for index in range(count)
        ]
    return Prepared(
        work=work,
        files=files,
        n_parsed=len(parsed),
        targets=inputs.planted_targets(cleaned, generator.ground_truth()),
        base=base,
        batches=batches,
        store=store,
        traffic=traffic,
        steps=steps,
    )


@dataclass
class Server:
    url: str
    pid: int


def _request_quantiles(sink: InMemorySink):
    """``/v1/metrics`` hook: server-side request-time quantiles from the sink."""

    def extra(payload: dict) -> dict:
        seconds = [
            record["seconds"]
            for record in sink.events
            if record.get("name") == "serve.http.request"
        ]
        payload["perfbench"] = {
            "requests": len(seconds),
            "request_p50_ms": percentile(seconds, 50) * 1e3,
            "request_p99_ms": percentile(seconds, 99) * 1e3,
        }
        return payload

    return extra


def get(url: str, path: str) -> tuple[int, bytes]:
    host, port = url.removeprefix("http://").rsplit(":", 1)
    connection = http.client.HTTPConnection(host, int(port), timeout=10)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


@contextmanager
def serving(store: ResultStore, traced: bool):
    """One forked async serving process over ``store``, warmed up."""
    registry = _registry(traced)
    responder = ApiResponder(QueryEngine(store, registry=registry))
    if registry is not None:
        responder.metrics_extra = _request_quantiles(registry.sink)
    responder.warm()
    # Fork from a collected heap: otherwise the set-up's garbage is
    # inherited and the server's first full collection stalls it.
    gc.collect()
    before = set(child_pids())
    with forked_workers(responder, 1) as url:
        (pid,) = set(child_pids()) - before
        for path in ("/v1/healthz", "/v1/runs", HOT_PATH, "/v1/associations"):
            deadline = time.monotonic() + 10
            while True:
                try:
                    status, _ = get(url, path)
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.01)
            if status != 200:
                raise RuntimeError(f"warm-up GET {path} answered {status}")
        yield Server(url, pid)


# -- phases ----------------------------------------------------------------
#
# Each phase is a queue of slots (a batch job, a cold start, a chunk of
# stream batches, a query window). `interleave` runs the three queues in
# step, so every phase samples the whole timed span: on a shared machine
# whose speed drifts over tens of seconds, a phase run in one block would
# read whichever drift it happened to land in. Between slots it reads the
# speed gauge, and each phase keeps, per slot, the factor that rescales
# durations measured in it to the gauge's nominal speed.


@dataclass
class PhaseResult:
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)  # check name -> passed
    metrics: dict = field(default_factory=dict)  # end-to-end, by name
    layers: dict = field(default_factory=dict)  # per-layer, by name
    detail: dict = field(default_factory=dict)  # recorded, not a metric


def interleave(phases, gauge) -> None:
    """Run every phase's slots, always advancing the one furthest behind."""
    slots = []  # (phase, index of the gauge reading taken right before the slot)
    gauge.read()
    while True:
        pending = [phase for phase in phases if phase.done < phase.total]
        if not pending:
            break
        phase = min(pending, key=lambda phase: phase.done / phase.total)
        slots.append((phase, len(gauge.readings_ms) - 1))
        phase.step()
        gauge.read()
    gauge.settle()
    for phase, before in slots:
        phase.speed.append(gauge.factor(before))


class BatchPhase:
    """Back-to-back `mediar run` jobs over the quarter files, one per slot."""

    def __init__(self, prep: Prepared, jobs: int, tracer) -> None:
        self.prep = prep
        self.tracer = tracer
        self.total = jobs
        self.done = 0
        self.catalog = f"sqlite:///{prep.work / 'catalog.db'}"
        self.config = MarasConfig(
            min_support=inputs.MIN_SUPPORT, max_drugs=inputs.MAX_DRUGS, clean=False
        )
        self.jobs: list[dict] = []
        self.speed: list[float] = []  # per slot (one job each)
        self.out = PhaseResult()
        self.digests: set[str] = set()
        self.recovered = True

    def step(self) -> None:
        tracer, prep = self.tracer, self.prep
        registry = _registry(tracer.enabled)
        trace = f"job{self.done}"
        t0 = time.perf_counter()
        with tracer.span("batch.job", "bench", trace) as root:
            with tracer.span("faers.parse_quarter", "faers", trace, root):
                parsed = inputs.parse_files(prep.files)
                t_clean = time.perf_counter()
            with tracer.span("faers.clean", "faers", trace, root):
                cleaned = inputs.clean(parsed)
                t_run = time.perf_counter()
            with tracer.span("core.Maras.run", "core", trace, root):
                result = Maras(self.config, registry=registry).run(ReportDataset(cleaned))
                t_add = time.perf_counter()
            with tracer.span("serve.add_result", "serve", trace, root):
                store = ResultStore()
                snapshot = store.add_result(RUN, result)
                t_save = time.perf_counter()
            with tracer.span("store.save", "store", trace, root):
                store.save(self.catalog)
                t_get = time.perf_counter()
            with tracer.span("serve.first_get", "serve", trace, root):
                answer = ApiResponder(QueryEngine(store, registry=registry)).handle(
                    "GET", HOT_PATH
                )
        t1 = time.perf_counter()
        digest = _digest(snapshot.payload)
        recovered = prep.targets <= inputs.cluster_targets(snapshot.payload)
        self.digests.add(digest)
        self.recovered &= recovered
        self.out.attempted += 1
        self.out.failed += not (answer.status == 200 and recovered and len(self.digests) == 1)
        self.jobs.append(
            {
                "wall_s": t1 - t0,
                "parse_s": t_clean - t0,
                "clean_s": t_run - t_clean,
                "run_s": t_add - t_run,
                "add_s": t_save - t_add,
                "save_s": t_get - t_save,
                "kept_ratio": len(cleaned) / len(parsed),
                "timers": _timer_totals(registry),
                "counters": _counters(registry),
            }
        )
        self.done += 1

    def finish(self) -> PhaseResult:
        out, jobs = self.out, self.jobs
        out.checks["batch.export_digest_stable"] = len(self.digests) == 1
        out.checks["batch.planted_recovered"] = self.recovered and bool(self.prep.targets)
        wall = statistics.median(job["wall_s"] for job in jobs)
        scaled = statistics.median(job["wall_s"] * f for job, f in zip(jobs, self.speed))
        out.metrics["batch.reports_per_s"] = self.prep.n_parsed / scaled
        out.detail = {
            "median_job_s": wall,
            "median_job_scaled_s": scaled,
            "wall_reports_per_s": self.prep.n_parsed / wall,
            "job_wall_s": [round(j["wall_s"], 4) for j in jobs],
            "speed": [round(f, 4) for f in self.speed],
        }
        if self.tracer.enabled:
            out.layers.update(_batch_layers(jobs))
        return out


def _median_of(jobs, key):
    return statistics.median(job[key] for job in jobs)


def _batch_layers(jobs) -> dict:
    def timer(name):
        return statistics.median(job["timers"].get(name, 0.0) for job in jobs)

    def counter(name):
        return statistics.median(job["counters"].get(name, 0) for job in jobs)

    hits = counter("oracle.support_hits")
    misses = counter("oracle.support_misses")
    return {
        "faers.parse_s": _median_of(jobs, "parse_s"),
        "faers.clean_s": _median_of(jobs, "clean_s"),
        "faers.clean.kept_ratio": _median_of(jobs, "kept_ratio"),
        "core.run_s": _median_of(jobs, "run_s"),
        "mining.fpclose_s": timer("pipeline.mine"),
        "core.prepare_s": timer("pipeline.prepare"),
        "core.index_s": timer("pipeline.index"),
        "core.filter_s": timer("pipeline.filter"),
        "core.cluster_s": timer("pipeline.cluster"),
        "mining.closed_itemsets": counter("fpclose.closed_itemsets"),
        "mining.closure_item_checks": counter("fpclose.closure_item_checks"),
        "core.rules": counter("pipeline.rules"),
        "core.clusters": counter("pipeline.clusters"),
        "core.oracle.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.add_result_s": _median_of(jobs, "add_s"),
        "store.save_run_s": _median_of(jobs, "save_s"),
    }


class StreamPhase:
    """`mediar watch --workers 2 --store sqlite://…` as a serving process.

    The first ``cold_starts`` slots each build a cold monitor that takes
    the standing base and answers a first hot GET; the last of them then
    ingests the small batches, ``chunk`` per slot, refreshing the served
    snapshot, answering a first hot GET and checkpointing to SQLite
    after each.
    """

    def __init__(
        self, prep: Prepared, cold_starts: int, chunk: int, others: set[int], tracer
    ) -> None:
        self.prep = prep
        self.others = others  # child processes that are not pool workers
        self.tracer = tracer
        self.cold_starts = cold_starts
        self.chunk = chunk
        self.total = cold_starts + -(-len(prep.batches) // chunk)
        self.done = 0
        self.registry = _registry(tracer.enabled)
        self.config = MarasConfig(
            min_support=inputs.MIN_SUPPORT,
            max_drugs=inputs.MAX_DRUGS,
            clean=False,  # the input is already cleaned, as `mediar watch` feeds it
            incremental=True,
            n_workers=inputs.STREAM_WORKERS,
        )
        self.fingerprint = config_fingerprint(self.config)
        self.monitor = self.backend = self.store = self.responder = None
        self.first_results: list[float] = []
        self.cold_mines: list[float] = []
        #: per small batch: ingest, refresh, get, checkpoint, fresh, total, slot
        self.rows: list[tuple] = []
        self.speed: list[float] = []  # per slot
        self.n_reports = 0
        self.carried = self.mined = 0
        self.worker_peak_mb = 0.0
        self.gets_ok = True
        self.out = PhaseResult()
        self.before: tuple[dict, dict] = ({}, {})

    def _close_monitor(self) -> None:
        if self.monitor is not None:
            workers = set(child_pids()) - self.others
            peak = sum(peak_rss_mib(pid) for pid in workers)
            self.worker_peak_mb = max(self.worker_peak_mb, peak)
            self.monitor.close()
            self.monitor = None

    def close(self) -> None:
        self._close_monitor()
        if self.backend is not None:
            self.backend.close()
            self.backend = None

    def step(self) -> None:
        if self.done < self.cold_starts:
            self._cold_start()
        else:
            self._small_batches()
        self.done += 1

    def _cold_start(self) -> None:
        tracer, registry = self.tracer, self.registry
        self._close_monitor()
        trace = f"cold{self.done}"
        t0 = time.perf_counter()
        with tracer.span("stream.cold_start", "bench", trace) as root:
            self.monitor = SurveillanceMonitor(self.config, registry=registry)
            with tracer.span("incremental.ingest", "incremental", trace, root):
                t_mine = time.perf_counter()
                self.monitor.ingest(self.prep.base)
                self.cold_mines.append(time.perf_counter() - t_mine)
            with tracer.span("serve.add_result", "serve", trace, root):
                self.store = ResultStore()
                self.store.add_result(STREAM_RUN, self.monitor.result)
            self.responder = ApiResponder(QueryEngine(self.store, registry=registry))
            with tracer.span("serve.first_get", "serve", trace, root):
                self.gets_ok &= self.responder.handle("GET", HOT_PATH).status == 200
        self.first_results.append(time.perf_counter() - t0)
        self.out.attempted += 1

    def _small_batches(self) -> None:
        tracer, monitor = self.tracer, self.monitor
        if self.backend is None:
            self.backend = open_backend(f"sqlite:///{self.prep.work / 'watch.db'}")
            self.before = (_timer_totals(self.registry), _counters(self.registry))
        first = (self.done - self.cold_starts) * self.chunk
        for index in range(first, min(first + self.chunk, len(self.prep.batches))):
            batch = self.prep.batches[index]
            trace = f"batch{index}"
            with tracer.span("stream.batch", "bench", trace) as root:
                t0 = time.perf_counter()
                with tracer.span("incremental.ingest", "incremental", trace, root):
                    monitor.ingest(batch)
                    t1 = time.perf_counter()
                with tracer.span("serve.refresh_from", "serve", trace, root):
                    self.store.refresh_from(STREAM_RUN, monitor)
                    t2 = time.perf_counter()
                with tracer.span("serve.first_get", "serve", trace, root):
                    self.gets_ok &= self.responder.handle("GET", HOT_PATH).status == 200
                    t3 = time.perf_counter()
                with tracer.span("store.checkpoint_monitor", "store", trace, root):
                    journal = [
                        JournalEntry(monitor.n_batches - 1, [r.case_id for r in batch])
                    ]
                    checkpoint_monitor(
                        self.backend,
                        STREAM_RUN,
                        monitor,
                        fingerprint=self.fingerprint,
                        journal=journal,
                    )
                    t4 = time.perf_counter()
            self.rows.append((t1 - t0, t2 - t1, t3 - t2, t4 - t3, t3 - t0, t4 - t0, self.done))
            self.n_reports += len(batch)
            stats = monitor.engine_stats
            self.carried += int(stats.get("n_carried", 0))
            self.mined += int(stats.get("n_mined", 0))
            self.out.attempted += 1

    def finish(self) -> PhaseResult:
        """Close the stream, then check it against a one-shot mine."""
        out, prep, registry = self.out, self.prep, self.registry
        streamed = export_result(self.monitor.result)
        checkpoint = self.backend.load_checkpoint(STREAM_RUN)
        checkpoint_bytes = len(
            json.dumps(checkpoint.state, sort_keys=True, separators=(",", ":")).encode()
        )
        timers = _diff(_timer_totals(registry), self.before[0])
        counters_all = _counters(registry)
        counters = _diff(counters_all, self.before[1])
        self.close()
        ingested = [*prep.base, *(report for batch in prep.batches for report in batch)]
        one_shot = Maras(
            MarasConfig(min_support=inputs.MIN_SUPPORT, max_drugs=inputs.MAX_DRUGS, clean=False)
        ).run(ReportDataset(ingested))
        identical = json.dumps(streamed, sort_keys=True) == json.dumps(
            export_result(one_shot), sort_keys=True
        )
        out.checks["stream.matches_one_shot"] = identical
        out.checks["stream.gets_ok"] = self.gets_ok
        out.failed += (not identical) + (not self.gets_ok)
        rows = self.rows
        freshness = [row[4] for row in rows]
        out.metrics["stream.first_result_s"] = statistics.median(self.first_results)
        out.metrics["stream.freshness_p50_s"] = percentile(freshness, 50)
        out.metrics["stream.freshness_p90_s"] = percentile(freshness, 90)
        wall = sum(row[5] for row in rows)
        scaled = sum(row[5] * self.speed[row[6]] for row in rows)
        out.metrics["stream.reports_per_s"] = self.n_reports / scaled
        out.detail = {
            "wall_reports_per_s": self.n_reports / wall,
            "batch_scaled_s": [round(row[5] * self.speed[row[6]], 5) for row in rows],
            "speed": [round(f, 4) for f in self.speed],
            "base_reports": len(prep.base),
            "small_batches": len(rows),
            "small_batch_reports": self.n_reports,
            "first_result_s": [round(v, 4) for v in self.first_results],
            "cold_mine_s": [round(v, 4) for v in self.cold_mines],
        }
        if self.tracer.enabled:
            out.layers.update(
                _stream_layers(rows, self.cold_mines, timers, counters, counters_all, registry)
            )
            carried, mined = self.carried, self.mined
            out.layers["incremental.reuse_ratio"] = (
                carried / (carried + mined) if carried + mined else 0.0
            )
            out.layers["store.checkpoint_bytes"] = checkpoint_bytes
        return out


def _stream_layers(rows, cold_mines, timers, counters, counters_all, registry) -> dict:
    n = len(rows)
    nodes = registry.sink.of_type("parallel.node")
    misses = counters_all.get("parallel.pool.residency_misses", 0)
    layers = {
        "incremental.ingest_p50_s": percentile([r[0] for r in rows], 50),
        "incremental.ingest_p90_s": percentile([r[0] for r in rows], 90),
        "incremental.full_rebuilds": counters.get("incremental.full_rebuilds", 0),
        "parallel.cold_mine_s": statistics.median(cold_mines),
        "parallel.nodes": len(nodes),
        "parallel.node.retries": sum(node["attempts"] - 1 for node in nodes),
        "parallel.node.busy_s": sum(node["seconds"] for node in nodes),
        "parallel.node.wait_s": sum(node["wait_seconds"] - node["seconds"] for node in nodes),
        "parallel.queue_depth_max": max((node["queue_depth"] for node in nodes), default=0),
        "parallel.residency_hit_ratio": len(nodes) / (len(nodes) + misses) if nodes else 0.0,
        "serve.snapshot_s": percentile([r[1] for r in rows], 50),
        "serve.first_get_s": percentile([r[2] for r in rows], 50),
        "store.checkpoint_p50_s": percentile([r[3] for r in rows], 50),
    }
    for stage in ("clean", "encode", "mine", "downstream"):
        layers[f"incremental.{stage}_s"] = timers.get(f"incremental.{stage}", 0.0) / n
    for name in ("residency_misses", "reuse", "delta_ships", "cold_start", "worker_replacements"):
        layers[f"parallel.pool.{name}"] = counters_all.get(f"parallel.pool.{name}", 0)
    for name in ("candidates", "reintersections"):
        layers[f"parallel.merge.{name}"] = counters_all.get(f"parallel.merge.{name}", 0)
    return layers


class QueryPhase:
    """Open-loop HTTP at fixed rates against one serving process.

    Slots alternate light and heavy windows, then climb the rest of the
    ladder one step per slot. A step passes when it meets the p99 limit,
    fails and sheds nothing, answers at least 95% of the offered rate (no
    growing backlog) and keeps generator lag under its limit. A failing
    step is tried once more, so a stall of the shared machine does not
    end the climb, and the climb stops after two failing steps in a row.
    """

    def __init__(self, prep: Prepared, server: Server, profile, tracer) -> None:
        self.prep = prep
        self.server = server
        self.profile = profile
        self.tracer = tracer
        headline = [
            (rate, window)
            for window in range(profile.headline_windows)
            for rate in (profile.light_rps, profile.heavy_rps)
        ]
        self.slots = [[slot] for slot in headline] + [[(rate, 0)] for rate in profile.ladder_rps]
        self.total = len(self.slots)
        self.done = 0
        self.windows: dict[float, list] = {}
        self.speed: list[float] = []  # per slot, recorded only
        self.misses = 0
        self.generator = LoadGenerator(server.url, prep.traffic.wire, prep.traffic.expected)
        self.out = PhaseResult()

    def close(self) -> None:
        self.generator.close()

    def step(self) -> None:
        tracer = self.tracer
        for rate, window in self.slots[self.done]:
            with tracer.span(f"query.step{rate:g}", "bench", f"step{rate:g}.{window}") as parent:
                result = self.generator.run(
                    self.prep.steps[rate][window],
                    rate,
                    tracer=tracer if tracer.enabled else None,
                    parent=parent,
                )
            self.windows.setdefault(rate, []).append(result)
            self.out.attempted += len(result.latency_ms)
            self.out.failed += result.failed + result.shed
        self.done += 1
        if self.done > 2 * self.profile.headline_windows:
            if not self._passes(rate):
                retry = self.generator.run(self.prep.steps[rate][0], rate)
                self.out.attempted += len(retry.latency_ms)
                self.out.failed += retry.failed + retry.shed
                self.windows[rate] = [retry]
            self.misses = 0 if self._passes(rate) else self.misses + 1
            if self.misses == 2:
                self.done = self.total

    def _passes(self, rate: float) -> bool:
        summary = summarize(self.windows[rate])
        return (
            summary["delivered_rps"] >= 0.95 * summary["offered_rps"]
            and not summary["failed"]
            and not summary["shed"]
            and summary["latency_p99_ms"] <= self.profile.p99_limit_ms
            and summary["lag_p99_ms"] <= self.profile.lag_limit_ms
        )

    def finish(self) -> PhaseResult:
        out, profile = self.out, self.profile
        self.close()
        metrics_payload = None
        if self.tracer.enabled:
            status, body = get(self.server.url, "/v1/metrics")
            metrics_payload = json.loads(body) if status == 200 else None
        steps = {rate: summarize(windows) for rate, windows in sorted(self.windows.items())}
        out.checks["query.responses_ok"] = all(
            s["failed"] == 0 and s["shed"] == 0 for s in steps.values()
        )
        for label, rate in (("light", profile.light_rps), ("heavy", profile.heavy_rps)):
            out.metrics[f"query.{label}.p50_ms"] = steps[rate]["latency_p50_ms"]
            out.metrics[f"query.{label}.p99_ms"] = steps[rate]["latency_p99_ms"]
        passing = [rate for rate in steps if self._passes(rate)]
        out.metrics["query.max_rps"] = steps[passing[-1]]["delivered_rps"] if passing else 0.0
        out.detail = {
            "steps": {f"{rate:g}": summary for rate, summary in steps.items()},
            "max_rps_step": passing[-1] if passing else None,
        }
        if self.tracer.enabled:
            lags = [lag for windows in self.windows.values() for w in windows for lag in w.lag_ms]
            out.layers["query.generator_lag_p99_ms"] = percentile(lags, 99)
            out.layers.update(_serve_layers(metrics_payload))
        return out


def _serve_layers(payload) -> dict:
    if payload is None:
        raise RuntimeError("GET /v1/metrics failed after the query phase")
    counters = payload["metrics"]["counters"]
    precomputed = counters.get("serve.responses.precomputed", 0)
    encoded = counters.get("serve.responses.encoded", 0)
    cache = payload["cache"]
    lookups = cache["hits"] + cache["misses"]
    return {
        "serve.server_request_p50_ms": payload["perfbench"]["request_p50_ms"],
        "serve.server_request_p99_ms": payload["perfbench"]["request_p99_ms"],
        "serve.precomputed_ratio": precomputed / (precomputed + encoded)
        if precomputed + encoded
        else 0.0,
        "serve.lru.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "serve.http.shed": counters.get("serve.http.shed", 0),
        "serve.bytecache.entries": payload["bytecache"]["entries"],
        "serve.bytecache.bytes": payload["bytecache"]["bytes"],
    }


def run_pass(
    prep: Prepared, server: Server, profile, seconds: float, tracer, gauge
) -> tuple[dict[str, PhaseResult], float]:
    """All three phases, interleaved, and the peak RSS over their span.

    The peak is the sum of each process's own peak: the benchmark
    process (which runs the batch jobs and the stream in-process, as
    the CLI does), the stream's pool workers and the serving process.
    """
    gc.collect()  # every pass starts from the same heap state
    reset_peak_rss()
    reset_peak_rss(server.pid)
    jobs = max(3, round(profile.batch_jobs_per_s * seconds))
    batch = BatchPhase(prep, jobs, tracer)
    stream = StreamPhase(prep, profile.cold_starts, profile.stream_chunk, {server.pid}, tracer)
    query = QueryPhase(prep, server, profile, tracer)
    try:
        interleave([query, batch, stream], gauge)
        peak = peak_rss_mib() + peak_rss_mib(server.pid)
        results = {"query": query.finish(), "batch": batch.finish(), "stream": stream.finish()}
    finally:
        query.close()
        stream.close()
    return results, peak + stream.worker_peak_mb
