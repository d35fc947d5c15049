"""Pipeline observability: metrics, timer spans, structured events.

A dependency-free layer threaded through the MeDIAR hot path. The
production-scale north star needs the pipeline to stop being a black
box: where does ``Maras.run`` spend its time, how many FP-tree nodes
does a quarter cost, why was a surveillance batch slow. Always-on
monitoring hooks answer those without touching the numbers when off.

- :mod:`repro.obs.metrics` — :class:`MetricsRegistry` (monotonic
  :meth:`~MetricsRegistry.timer` spans, :class:`Counter`,
  :class:`Gauge`), the no-op :data:`NULL_REGISTRY` default, and the
  :func:`get_registry` / :func:`use_registry` plumbing that lets
  library code record without carrying a registry parameter.
- :mod:`repro.obs.events` — the structured-event records and sinks
  (:class:`InMemorySink` for tests, :class:`JsonlSink` for production
  traces).
- :mod:`repro.obs.memory` — stdlib-only process-memory gauges
  (:func:`current_rss_bytes`, :func:`peak_rss_bytes`) and the
  per-stage :class:`MemorySampler` behind the capacity benchmark's
  memory-honesty numbers.

The parallel miner's dataflow scheduler is the densest emitter: one
``parallel.node`` event per merge-tree node (kind, queue depth at
submit, submit/done offsets, attempts, worker seconds — the realized
schedule), plus the ``parallel.pool.worker_replacements`` counter of
process pools rebuilt after a worker died.

Usage::

    from repro.obs import JsonlSink, MetricsRegistry

    registry = MetricsRegistry(sink=JsonlSink("trace.jsonl"))
    result = Maras(config, registry=registry).run(reports)
    print(result.metrics.format_table())
    registry.close()
"""

from repro.obs.events import (
    EventRecord,
    EventSink,
    InMemorySink,
    JsonlSink,
    NullSink,
    read_jsonl,
)
from repro.obs.memory import MemorySampler, current_rss_bytes, peak_rss_bytes
from repro.obs.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    MetricsRegistry,
    MetricsSnapshot,
    NullRegistry,
    TimerReading,
    TimerStat,
    get_registry,
    merge_metric_dicts,
    use_registry,
)

__all__ = [
    "NULL_REGISTRY",
    "Counter",
    "EventRecord",
    "EventSink",
    "Gauge",
    "InMemorySink",
    "JsonlSink",
    "MemorySampler",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NullRegistry",
    "NullSink",
    "TimerReading",
    "TimerStat",
    "current_rss_bytes",
    "get_registry",
    "merge_metric_dicts",
    "peak_rss_bytes",
    "read_jsonl",
    "use_registry",
]
