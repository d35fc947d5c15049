"""Command-line interface: the MeDIAR system as a tool.

Installed as the ``mediar`` console script; also runnable as
``python -m repro.cli``. Subcommands mirror the workflows of Chapter 5:

- ``generate`` — write a synthetic quarter as FAERS-format ASCII files;
- ``stats``    — Table 5.1-style statistics of a quarter;
- ``mine``     — run the pipeline and print the top-ranked interactions;
- ``render``   — write the ranked glyph panorama / zoom views as SVG;
- ``study``    — run the simulated user study (Fig 5.2);
- ``validate`` — classify top-ranked interactions against the DDI
  reference and flag severe ones;
- ``serve``    — mine (or load a saved store) and serve the results
  over the :mod:`repro.serve` JSON HTTP API;
- ``run``      — full pipeline then JSON export in one step; with
  ``--workers N`` the mining stage shards across N processes
  (byte-identical output, see :mod:`repro.parallel`);
- ``watch``    — stream a quarter in batches through incremental
  surveillance; ``--store sqlite:///path.db`` checkpoints after each
  batch so a killed watch resumes mid-stream with identical output;
- ``runs``     — list/show/prune the runs in a durable store.

``mine``, ``render``, ``validate`` and ``stats`` accept either
``--synthetic QUARTER`` (e.g. 2014Q1) or ``--demo/--drug/--reac`` file
paths for real extracts.

The global ``--profile`` flag (before the subcommand) turns on the
observability layer for any pipeline subcommand: per-stage wall times
and counters are printed to stderr after the run, and ``--trace PATH``
additionally writes the full structured-event stream as JSONL.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core import Maras, MarasConfig, MarasResult, RankingMethod
from repro.errors import ConfigError, ReproError
from repro.faers import (
    ReportCleaner,
    ReportDataset,
    SyntheticFAERSGenerator,
    parse_quarter,
    quarter_config,
)
from repro.faers.schema import ReportType
from repro.faers.writer import quarter_of_demo_file
from repro.knowledge import default_reference, default_severity_index
from repro.obs import NULL_REGISTRY, JsonlSink, MetricsRegistry, peak_rss_bytes, use_registry
from repro.userstudy import UserStudy, build_questions
from repro.viz import render_panorama, render_zoom_view

RANKING_BY_NAME = {method.value: method for method in RankingMethod}

#: Upper bound on serving worker processes (`mediar serve --workers`).
#: Each worker is a forked process sharing the listening socket; values
#: beyond this are configuration mistakes, rejected with one line
#: instead of a fork storm. Mining workers are bounded separately by
#: :data:`repro.parallel.miner.MAX_WORKERS`.
MAX_SERVE_WORKERS = 128


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mediar",
        description="MeDIAR: multi-drug adverse reaction analytics",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="record stage timings/counters and print them to stderr",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help="with --profile, also write a JSONL event trace to PATH",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="write a synthetic quarter as FAERS ASCII files"
    )
    generate.add_argument("quarter", help="one of 2014Q1..2014Q4")
    generate.add_argument("--scale", type=float, default=0.02)
    generate.add_argument("--out", type=Path, default=Path("faers_out"))

    for name, help_text in (
        ("stats", "Table 5.1-style statistics of a quarter"),
        ("mine", "mine and rank multi-drug interactions"),
        ("render", "write ranked glyphs as SVG"),
        ("validate", "validate top interactions against the DDI reference"),
        ("study", "run the simulated user study"),
        ("report", "write the quarterly markdown surveillance report"),
        ("export", "write the mined result as JSON"),
        ("dashboard", "write the self-contained HTML dashboard"),
        ("profile", "drug-centric risk profile"),
        ("run", "run the full pipeline and write the exported result"),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        _add_input_arguments(sub)
        if name in (
            "mine", "render", "validate", "study", "report", "export",
            "dashboard", "profile", "run",
        ):
            sub.add_argument("--min-support", type=int, default=5)
            sub.add_argument("--max-drugs", type=int, default=4)
            _add_worker_arguments(sub)
        if name == "profile":
            sub.add_argument("drug", help="canonical drug name to profile")
        if name in ("mine", "render", "validate", "report", "dashboard"):
            sub.add_argument(
                "--method",
                choices=sorted(RANKING_BY_NAME),
                default=RankingMethod.EXCLUSIVENESS_CONFIDENCE.value,
            )
            sub.add_argument("--top", type=int, default=10)
        if name == "report":
            sub.add_argument("--out", type=Path, default=Path("quarter_report.md"))
        if name in ("export", "run"):
            sub.add_argument("--out", type=Path, default=Path("result.json"))
        if name == "dashboard":
            sub.add_argument("--out", type=Path, default=Path("dashboard.html"))
        if name == "mine":
            sub.add_argument("--drug", help="restrict to clusters mentioning this drug")
            sub.add_argument("--adr", help="restrict to clusters mentioning this ADR")
            sub.add_argument(
                "--show-context",
                action="store_true",
                help="print each cluster's contextual rules",
            )
        if name == "render":
            sub.add_argument("--out", type=Path, default=Path("glyphs"))
        if name == "study":
            sub.add_argument("--annotators", type=int, default=50)

    watch = subparsers.add_parser(
        "watch",
        help="stream a quarter in batches through incremental surveillance",
    )
    _add_input_arguments(watch)
    watch.add_argument("--min-support", type=int, default=5)
    watch.add_argument("--max-drugs", type=int, default=4)
    watch.add_argument(
        "--batches",
        type=int,
        default=8,
        metavar="N",
        help="split the input stream into N ingest batches",
    )
    watch.add_argument("--top", type=int, default=5)
    watch.add_argument(
        "--full-rescan",
        action="store_true",
        help="re-run the full pipeline per batch instead of the "
        "incremental engine (for comparison)",
    )
    watch.add_argument(
        "--store",
        default=None,
        metavar="URI",
        help="checkpoint into a durable store (sqlite:///path.db) after "
        "each batch; a killed watch resumes where it stopped",
    )
    watch.add_argument(
        "--run",
        default=None,
        metavar="NAME",
        help="run name in the store (default: the dataset's quarter)",
    )
    watch.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="PATH",
        help="also write the final result as a JSON export",
    )

    serve = subparsers.add_parser(
        "serve", help="serve mined results over a JSON HTTP API"
    )
    _add_input_arguments(serve)
    serve.add_argument("--min-support", type=int, default=5)
    serve.add_argument("--max-drugs", type=int, default=4)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument(
        "--name",
        default=None,
        help="run name to serve under (default: the dataset's quarter)",
    )
    serve.add_argument(
        "--load",
        default=None,
        metavar="DIR",
        help="serve snapshots from a store directory instead of mining",
    )
    serve.add_argument(
        "--store",
        default=None,
        metavar="URI",
        help="serve snapshots from a durable store URI "
        "(dir:///path or sqlite:///path.db) instead of mining",
    )
    serve.add_argument(
        "--save",
        default=None,
        metavar="STORE",
        help="also write the runs to a store (directory path or URI) "
        "for warm restarts",
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=512,
        help="bounded LRU response-cache capacity",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="serving worker processes sharing one listening socket "
        "(async transport only; default 1)",
    )
    transport = serve.add_mutually_exclusive_group()
    transport.add_argument(
        "--async",
        dest="async_transport",
        action="store_true",
        default=True,
        help="asyncio transport (the default)",
    )
    transport.add_argument(
        "--sync",
        dest="async_transport",
        action="store_false",
        help="threaded fallback transport (single process)",
    )
    serve.add_argument(
        "--max-connections",
        type=int,
        default=1024,
        metavar="N",
        help="per-worker open-connection cap before shedding with 503",
    )
    serve.add_argument(
        "--grace",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="graceful-shutdown drain deadline on SIGTERM/SIGINT",
    )

    runs = subparsers.add_parser(
        "runs", help="inspect and maintain a durable run store"
    )
    runs.add_argument(
        "--store",
        required=True,
        metavar="URI",
        help="store to operate on (dir:///path or sqlite:///path.db)",
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    runs_sub.add_parser("list", help="list every run version in the store")
    show = runs_sub.add_parser("show", help="show one run's catalog row")
    show.add_argument("name", help="run name")
    show.add_argument(
        "--version",
        type=int,
        default=None,
        help="pin a version (default: latest)",
    )
    show.add_argument(
        "--json",
        action="store_true",
        help="print the full snapshot payload as JSON",
    )
    prune = runs_sub.add_parser(
        "prune", help="apply retention: drop old versions per run"
    )
    prune.add_argument(
        "--keep",
        type=int,
        default=1,
        metavar="N",
        help="versions to keep per run (default 1)",
    )
    prune.add_argument(
        "--compact",
        action="store_true",
        help="also drop superseded payload bodies and VACUUM "
        "(catalog rows stay listable)",
    )
    return parser


def _add_worker_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="mine in N worker processes (0 = one per core; default 1, "
        "same results for every value)",
    )
    sub.add_argument(
        "--shard-strategy",
        choices=("hash", "quarter"),
        default="hash",
        help="how the parallel path partitions reports into shards",
    )


def _add_input_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--synthetic",
        metavar="QUARTER",
        help="use a synthetic quarter (2014Q1..2014Q4)",
    )
    sub.add_argument("--scale", type=float, default=0.02, help="synthetic scale")
    sub.add_argument("--demo", type=Path, help="DEMO file of a real extract")
    sub.add_argument("--drug-file", type=Path, help="DRUG file of a real extract")
    sub.add_argument("--reac", type=Path, help="REAC file of a real extract")
    sub.add_argument(
        "--no-clean", action="store_true", help="skip the cleaning pass"
    )


def load_dataset(args: argparse.Namespace) -> ReportDataset:
    """Resolve the input arguments to a report dataset."""
    if args.synthetic:
        config = quarter_config(args.synthetic, scale=args.scale)
        reports = SyntheticFAERSGenerator(config).generate()
        return ReportDataset(reports)
    if args.demo and args.drug_file and args.reac:
        reports, _ = parse_quarter(
            args.demo,
            args.drug_file,
            args.reac,
            quarter=quarter_of_demo_file(args.demo),
            report_types=frozenset({ReportType.EXPEDITED}),
        )
        if not args.no_clean:
            reports, _ = ReportCleaner().clean(reports)
        return ReportDataset(reports)
    raise SystemExit(
        "error: provide --synthetic QUARTER or all of --demo/--drug-file/--reac"
    )


def build_registry(args: argparse.Namespace):
    """The metrics registry requested by ``--profile`` / ``--trace``."""
    if not getattr(args, "profile", False):
        return NULL_REGISTRY
    sink = JsonlSink(args.trace) if getattr(args, "trace", None) else None
    return MetricsRegistry(sink=sink)


def report_peak_rss(registry) -> None:
    """Print the process peak RSS under ``--profile``.

    The metrics snapshot inside a result is frozen before the run
    returns, so the lifetime high-water mark gets its own line (and a
    live gauge for trace consumers). Silently absent on platforms
    without procfs/getrusage.
    """
    peak = peak_rss_bytes()
    if peak is None:
        return
    registry.gauge("process.peak_rss_bytes").set(peak)
    print(f"peak RSS: {peak / 2**20:.1f} MiB", file=sys.stderr)


def run_pipeline(args: argparse.Namespace) -> MarasResult:
    config = MarasConfig(
        min_support=args.min_support,
        max_drugs=args.max_drugs,
        clean=False,  # load_dataset already cleaned when asked to
        n_workers=getattr(args, "workers", 1),
        shard_strategy=getattr(args, "shard_strategy", "hash"),
    )
    registry = build_registry(args)
    with use_registry(registry):
        # load_dataset's cleaning/parsing records into the same registry
        # as the pipeline stages.
        dataset = load_dataset(args)
        result = Maras(config, registry=registry).run(dataset)
    if registry.enabled:
        print(result.metrics.format_table(), file=sys.stderr)
        report_peak_rss(registry)
        registry.close()
        if args.trace:
            print(f"wrote trace {args.trace}", file=sys.stderr)
    return result


def cmd_generate(args: argparse.Namespace) -> int:
    from repro.faers.writer import write_quarter_files

    config = quarter_config(args.quarter, scale=args.scale)
    reports = SyntheticFAERSGenerator(config).generate()
    files = write_quarter_files(reports, args.out, quarter=args.quarter)
    for path in files.as_tuple():
        print(f"wrote {path}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    stats = load_dataset(args).stats()
    print(f"quarter:  {stats.quarter or '(unlabelled)'}")
    print(f"reports:  {stats.n_reports:,d}")
    print(f"drugs:    {stats.n_drugs:,d}")
    print(f"ADRs:     {stats.n_adrs:,d}")
    return 0


def cmd_mine(args: argparse.Namespace) -> int:
    from repro.viz import cluster_detail

    result = run_pipeline(args)
    method = RANKING_BY_NAME[args.method]
    clusters = result.clusters
    if args.drug or args.adr:
        clusters = result.search(drug=args.drug, adr=args.adr)
        if not clusters:
            print("no clusters match the search criteria")
            return 1
    from repro.core.ranking import rank_clusters

    ranked = rank_clusters(clusters, method, top_k=args.top)
    print(f"{len(result.clusters)} clusters mined; top {len(ranked)} by {args.method}:")
    for entry in ranked:
        print(f"  {entry.describe(result.catalog)}")
        if args.show_context:
            detail = cluster_detail(entry.cluster, result.catalog)
            for line in detail.splitlines()[1:]:
                print(f"      {line}")
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    result = run_pipeline(args)
    method = RANKING_BY_NAME[args.method]
    ranked = result.rank(method, top_k=args.top)
    if not ranked:
        print("nothing to render: no clusters mined")
        return 1
    args.out.mkdir(parents=True, exist_ok=True)
    panorama = render_panorama(ranked, result.catalog).save(args.out / "panorama.svg")
    zoom = render_zoom_view(ranked[0].cluster, result.catalog).save(
        args.out / "top1_zoom.svg"
    )
    print(f"wrote {panorama}")
    print(f"wrote {zoom}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    result = run_pipeline(args)
    method = RANKING_BY_NAME[args.method]
    reference = default_reference()
    severity = default_severity_index()
    catalog = result.catalog
    print(f"top {args.top} by {args.method}, validated:")
    for entry in result.rank(method, top_k=args.top):
        drugs = catalog.labels(entry.cluster.target.antecedent)
        adrs = catalog.labels(entry.cluster.target.consequent)
        novelty = reference.classify(drugs, adrs)
        severe = "SEVERE" if severity.is_severe(adrs) else "      "
        print(
            f"  #{entry.rank:<3d} [{novelty:>26s}] [{severe}] "
            f"{' + '.join(drugs)} => {', '.join(adrs)}"
        )
    return 0


def cmd_study(args: argparse.Namespace) -> int:
    result = run_pipeline(args)
    questions = build_questions(result.clusters)
    outcome = UserStudy(n_annotators=args.annotators).run(questions)
    print(
        f"simulated user study: {outcome.n_annotators} annotators, "
        f"{outcome.n_questions} questions"
    )
    print(f"{'#drugs':>8s} {'glyph':>8s} {'barchart':>10s}")
    glyph = outcome.series("contextual-glyph")
    barchart = outcome.series("bar-chart")
    for n_drugs in sorted(glyph):
        print(f"{n_drugs:>8d} {glyph[n_drugs]:>8.0%} {barchart[n_drugs]:>10.0%}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.core.report_builder import write_quarter_report

    result = run_pipeline(args)
    path = write_quarter_report(
        result,
        args.out,
        method=RANKING_BY_NAME[args.method],
        top_k=args.top,
    )
    print(f"wrote {path}")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    from repro.core.export import write_export

    result = run_pipeline(args)
    path = write_export(result, args.out)
    print(f"wrote {path} ({len(result.clusters)} clusters)")
    return 0


def cmd_dashboard(args: argparse.Namespace) -> int:
    from repro.viz.dashboard import write_dashboard

    result = run_pipeline(args)
    path = write_dashboard(
        result,
        args.out,
        method=RANKING_BY_NAME[args.method],
        top_k=args.top,
    )
    print(f"wrote {path}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.core.profile import build_drug_profile
    from repro.faers.cleaning import normalize_drug_name

    result = run_pipeline(args)
    profile = build_drug_profile(result, normalize_drug_name(args.drug))
    print(profile.describe(result.catalog))
    print("body systems:", "; ".join(sorted(profile.body_systems)) or "none")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from repro.core.export import write_export

    result = run_pipeline(args)
    path = write_export(result, args.out)
    print(
        f"mined {len(result.clusters)} clusters from "
        f"{len(result.dataset)} reports "
        f"(workers={args.workers}, strategy={args.shard_strategy})"
    )
    print(f"wrote {path}")
    return 0


def _watch_kill_hook(variable: str, batch_index: int) -> None:
    """Crash-injection hook for the durability test harness.

    When the named environment variable holds ``batch_index``, the
    process SIGKILLs itself — no cleanup, no atexit, exactly the
    failure mode the checkpoint/journal transaction must survive.
    """
    import os
    import signal

    if os.environ.get(variable, "") == str(batch_index):
        os.kill(os.getpid(), signal.SIGKILL)


def cmd_watch(args: argparse.Namespace) -> int:
    from repro.core.incremental import SurveillanceMonitor

    if args.batches < 1:
        raise ConfigError(f"--batches must be >= 1, got {args.batches}")
    if args.store and args.full_rescan:
        raise ConfigError(
            "--store checkpointing requires the incremental engine; "
            "drop --full-rescan"
        )
    dataset = load_dataset(args)
    reports = dataset.reports
    config = MarasConfig(
        min_support=args.min_support,
        max_drugs=args.max_drugs,
        clean=False,  # load_dataset already cleaned when asked to
        incremental=not args.full_rescan,
    )
    registry = build_registry(args)
    size = max(1, -(-len(reports) // args.batches))
    batches = [
        list(reports[start : start + size])
        for start in range(0, len(reports), size)
    ]
    mode = "full-rescan" if args.full_rescan else "incremental"
    print(
        f"watching {len(reports)} reports as {args.batches} batches ({mode})"
    )

    backend = None
    monitor = None
    start_batch = 0
    if args.store:
        from repro.store import (
            JournalEntry,
            config_fingerprint,
            checkpoint_monitor,
            open_backend,
            restore_monitor,
            verify_journal,
        )

        backend = open_backend(args.store)
        run_name = args.run or dataset.quarter or "watch"
        fingerprint = config_fingerprint(config)
        monitor = restore_monitor(backend, run_name, config, registry=registry)
        if monitor is not None:
            start_batch = monitor.n_batches
            verify_journal(backend, run_name, batches, start_batch)
            print(
                f"resumed run {run_name!r} from its checkpoint: "
                f"{start_batch}/{len(batches)} batches already ingested"
            )
    if monitor is None:
        monitor = SurveillanceMonitor(config, registry=registry)
    try:
        for index in range(start_batch, len(batches)):
            delta = monitor.ingest(batches[index])
            line = (
                f"batch {delta.batch_index}: {delta.n_reports_total} reports, "
                f"+{len(delta.newly_surfaced)} surfaced, "
                f"-{len(delta.dropped)} dropped, {len(delta.risers)} risers"
            )
            if delta.rank_correlation is not None:
                line += f", rank ρ={delta.rank_correlation:.3f}"
            stats = monitor.engine_stats
            if stats:
                line += (
                    f" | delta +{stats['n_rows_appended']}"
                    f"/~{stats['n_rows_updated']} rows, "
                    f"reuse {stats.get('reuse_ratio', 0.0):.0%} "
                    f"({stats.get('n_carried', 0)} carried, "
                    f"{stats.get('n_mined', 0)} re-mined)"
                )
                if stats.get("rebuild_reason"):
                    line += f" [rebuild: {stats['rebuild_reason']}]"
            print(line, flush=True)
            if backend is not None:
                _watch_kill_hook("MEDIAR_WATCH_KILL_BEFORE_CHECKPOINT", index)
                checkpoint_monitor(
                    backend,
                    run_name,
                    monitor,
                    fingerprint=fingerprint,
                    journal=[
                        JournalEntry(
                            index, [report.case_id for report in batches[index]]
                        )
                    ],
                )
                _watch_kill_hook("MEDIAR_WATCH_KILL_AFTER_CHECKPOINT", index)
        print(f"\ntop {args.top} after {monitor.n_batches} batches:")
        for key, rank in monitor.watchlist(top_k=args.top):
            drugs, adrs = key
            print(f"  #{rank:<3d} {' + '.join(drugs)} => {', '.join(adrs)}")
        if backend is not None:
            from repro.core.export import export_result

            record = backend.save_run(run_name, export_result(monitor.result))
            print(f"published {record.location}")
        if args.out is not None:
            from repro.core.export import write_export

            print(f"wrote {write_export(monitor.result, args.out)}")
    finally:
        monitor.close()
        if backend is not None:
            backend.close()
    if registry.enabled:
        print(monitor.result.metrics.format_table(), file=sys.stderr)
        report_peak_rss(registry)
        registry.close()
    return 0


def cmd_runs(args: argparse.Namespace) -> int:
    import json

    from repro.store import open_backend

    with open_backend(args.store) as backend:
        if args.runs_command == "list":
            records = backend.list_runs()
            if not records:
                print(f"no runs in {backend.uri}")
                return 0
            print(
                f"{'name':<24s} {'ver':>4s} {'clusters':>8s} "
                f"{'quarter':>8s}  created"
            )
            for record in records:
                clusters = (
                    "-" if record.compacted else str(record.n_clusters)
                )
                note = "  (compacted)" if record.compacted else ""
                print(
                    f"{record.name:<24s} {record.version:>4d} "
                    f"{clusters:>8s} {record.quarter or '-':>8s}  "
                    f"{record.created_at}{note}"
                )
            return 0
        if args.runs_command == "show":
            payload = backend.load_run(args.name, args.version)
            if args.json:
                print(json.dumps(payload, indent=2, sort_keys=True))
                return 0
            records = [
                record
                for record in backend.list_runs()
                if record.name == args.name
                and (args.version is None or record.version == args.version)
            ]
            record = records[-1]
            for key, value in record.describe().items():
                print(f"{key}: {value}")
            return 0
        # prune
        deleted = backend.prune(keep=args.keep)
        line = f"pruned {deleted} version(s) beyond the newest {args.keep}"
        if args.compact:
            line += f"; compacted {backend.compact()} payload(s)"
        print(line)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import tempfile
    import threading

    from repro.serve import (
        ApiResponder,
        MediarHTTPServer,
        QueryEngine,
        ResultStore,
        serve_forked,
    )

    if args.workers < 1:
        raise ReproError("--workers must be at least 1")
    if args.workers > MAX_SERVE_WORKERS:
        raise ReproError(
            f"--workers must be <= {MAX_SERVE_WORKERS}, got {args.workers}"
        )
    if not args.async_transport and args.workers > 1:
        raise ReproError(
            "--sync serves from one threaded process; "
            "use the async transport for --workers > 1"
        )
    if args.load and args.store:
        raise ReproError("--load and --store are aliases; pass one")
    source = args.store or args.load
    if source:
        store = ResultStore.load(source)
    else:
        result = run_pipeline(args)
        name = args.name or result.dataset.quarter or "run"
        store = ResultStore()
        store.add_result(name, result)
    if args.save:
        for path in store.save(args.save):
            print(f"wrote {path}")
    # Serving always records endpoint metrics: /v1/metrics is part of
    # the API contract, independent of the pipeline --profile flag.
    engine = QueryEngine(
        store, cache_size=args.cache_size, registry=MetricsRegistry()
    )
    responder = ApiResponder(engine)
    primed = responder.warm()
    print(f"primed {primed} precomputed responses", flush=True)

    if args.async_transport:
        runs = ", ".join(store.names())
        with tempfile.TemporaryDirectory(prefix="mediar-metrics-") as mdir:
            return serve_forked(
                responder,
                args.host,
                args.port,
                args.workers,
                metrics_dir=mdir if args.workers > 1 else None,
                max_connections=args.max_connections,
                grace=args.grace,
                announce=lambda url: print(
                    f"serving {runs} on {url} "
                    f"({args.workers} worker(s), Ctrl-C to stop)",
                    flush=True,
                ),
            )

    server = MediarHTTPServer(responder, args.host, args.port)

    def _stop(signum: int, frame: object) -> None:
        # shutdown() blocks until serve_forever returns, so hand it to a
        # helper thread and let the main thread fall through to drain.
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    print(
        f"serving {', '.join(store.names())} on {server.url} "
        "(Ctrl-C to stop)",
        flush=True,
    )
    try:
        server.serve_forever()
    finally:
        server.drain(args.grace)
        server.server_close()
    return 0


COMMANDS = {
    "generate": cmd_generate,
    "stats": cmd_stats,
    "mine": cmd_mine,
    "render": cmd_render,
    "validate": cmd_validate,
    "study": cmd_study,
    "report": cmd_report,
    "export": cmd_export,
    "dashboard": cmd_dashboard,
    "profile": cmd_profile,
    "run": cmd_run,
    "watch": cmd_watch,
    "serve": cmd_serve,
    "runs": cmd_runs,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
