"""The MeDIAR serving layer: mined results as a queryable service.

The paper presents MeDIAR as an *interactive* system — clinicians query
mined multi-drug→ADR associations and MCAC clusters on demand, they do
not re-run the miner. This package is that layer, stdlib-only:

- :mod:`repro.serve.store` — :class:`ResultStore` /
  :class:`RunSnapshot`: named runs (one per FAERS quarter) frozen into
  the versioned export format, with directory save/load for warm
  restarts;
- :mod:`repro.serve.indexes` — precomputed inverted indexes
  (drug→clusters, ADR→clusters, drug-pair→MCACs, stable-id, prefix
  tokens) so every lookup is an index probe, never a scan;
- :mod:`repro.serve.cache` — the bounded thread-safe
  :class:`LRUCache` absorbing repeated parameterized queries;
- :mod:`repro.serve.engine` — the transport-agnostic
  :class:`QueryEngine` (pagination, sort-by, filter floors, response
  cache, :mod:`repro.obs` accounting);
- :mod:`repro.serve.bytecache` — response *bytes* + strong ETags for
  the hot endpoints, rendered once per snapshot on first request, so
  serving them again never JSON-encodes;
- :mod:`repro.serve.api` — the shared :class:`ApiResponder`: routing,
  conditional GETs, error mapping — one implementation behind both
  transports, which is why their bodies are byte-identical;
- :mod:`repro.serve.aio` — the asyncio HTTP/1.1 front-end
  (:class:`AsyncHTTPServer`), keep-alive, load shedding, graceful
  shutdown, and forked multi-worker serving over shared snapshots;
- :mod:`repro.serve.http` — the ``ThreadingHTTPServer`` fallback
  (``mediar serve --sync``).

>>> from repro.serve import QueryEngine, ResultStore, running_server
>>> store = ResultStore()
>>> _ = store.add_result("2014Q1", result)        # doctest: +SKIP
>>> engine = QueryEngine(store)
>>> with running_server(engine) as server:        # doctest: +SKIP
...     print(server.url)
"""

from repro.serve.aio import (
    AsyncHTTPServer,
    WorkerMetricsHub,
    forked_workers,
    running_async_server,
    serve_forked,
)
from repro.serve.api import ApiResponder, ApiResponse
from repro.serve.bytecache import ByteCacheDirectory, SnapshotBytes
from repro.serve.cache import CacheStats, LRUCache
from repro.serve.engine import (
    DEFAULT_PAGE_SIZE,
    DEFAULT_SORT,
    MAX_PAGE_SIZE,
    QueryEngine,
    association_view,
    cluster_view,
)
from repro.serve.http import MediarHTTPServer, MediarRequestHandler, running_server
from repro.serve.indexes import PrefixTokenIndex, RunIndexes
from repro.serve.store import ResultStore, RunSnapshot

__all__ = [
    "ApiResponder",
    "ApiResponse",
    "AsyncHTTPServer",
    "ByteCacheDirectory",
    "CacheStats",
    "DEFAULT_PAGE_SIZE",
    "DEFAULT_SORT",
    "LRUCache",
    "MAX_PAGE_SIZE",
    "MediarHTTPServer",
    "MediarRequestHandler",
    "PrefixTokenIndex",
    "QueryEngine",
    "ResultStore",
    "RunIndexes",
    "RunSnapshot",
    "SnapshotBytes",
    "WorkerMetricsHub",
    "association_view",
    "cluster_view",
    "forked_workers",
    "running_async_server",
    "running_server",
    "serve_forked",
]
