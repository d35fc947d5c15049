"""The transport-agnostic HTTP semantics of the ``/v1`` API.

Both transports — the threaded :mod:`repro.serve.http` fallback and the
asyncio :mod:`repro.serve.aio` front-end — delegate every request to
one shared :class:`ApiResponder`, which owns routing, parameter
parsing, the hot-path byte cache, conditional GETs, and error mapping.
The transports only move bytes between sockets and this object, so the
"sync and async responses are byte-identical" contract holds by
construction (and is still asserted end-to-end by
``tests/serve/test_parity.py``).

Request handling, in order:

1. **method** — ``GET`` and ``HEAD`` are served (``HEAD`` returns the
   exact ``GET`` headers, body withheld); anything else is a JSON 405
   with an ``Allow`` header.
2. **parse** — the query string is split with duplicate detection:
   ``?run=a&run=b`` is a 400, never a silent last-value-wins.
3. **byte cache** — id-addressed resources and default-shaped listing
   pages are answered from :class:`~repro.serve.bytecache`
   precomputed bytes, rendered once per snapshot on first request
   (``serve.responses.precomputed``); everything
   else goes through the :class:`~repro.serve.engine.QueryEngine` and
   is encoded per request (``serve.responses.encoded``).
4. **conditional** — when the response carries a strong ETag and the
   request's ``If-None-Match`` matches, a bodyless 304 is returned.

Error mapping is type-driven exactly as before:
:class:`~repro.errors.QueryError` subclasses carry their status,
any other library error is a 400, unexpected exceptions are a 500
whose body never leaks a traceback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.errors import BadQueryError, NotFoundError, QueryError, ReproError
from repro.serve.bytecache import ByteCacheDirectory, encode_payload, strong_etag
from repro.serve.engine import QueryEngine, spec_key, validated_params

API_PREFIX = "/v1"

#: Response Content-Type of every body-carrying answer, errors included.
CONTENT_TYPE = "application/json; charset=utf-8"


@dataclass(slots=True)
class ApiResponse:
    """One fully-formed response, transport details excluded.

    ``body`` always holds the full GET representation — for a ``HEAD``
    answer the transport declares ``len(body)`` but writes nothing, so
    the headers are exactly the GET headers. A 304 carries an empty
    body and its validator ETag.
    """

    status: int
    body: bytes
    etag: str | None = None
    headers: tuple[tuple[str, str], ...] = ()
    head: bool = False

    @property
    def content_length(self) -> int:
        return len(self.body)

    @property
    def send_body(self) -> bool:
        return not self.head and self.status != 304 and bool(self.body)


def error_body(status: int, message: str) -> dict[str, Any]:
    """The JSON error envelope (shared with transport-level responses)."""
    return {"error": {"status": status, "message": message}}


def shed_response(retry_after: int = 1) -> ApiResponse:
    """The load-shedding answer: 503 + ``Retry-After`` (transport sends it)."""
    body = encode_payload(
        error_body(503, "server overloaded, retry after a moment")
    )
    return ApiResponse(
        503, body, headers=(("Retry-After", str(retry_after)),)
    )


def _etag_matches(header_value: str | None, etag: str) -> bool:
    if not header_value:
        return False
    candidates = [token.strip() for token in header_value.split(",")]
    return "*" in candidates or etag in candidates


class ApiResponder:
    """Routes one parsed request into bytes; shared by every transport."""

    def __init__(
        self,
        engine: QueryEngine,
        *,
        metrics_extra: Callable[[dict[str, Any]], dict[str, Any]] | None = None,
    ) -> None:
        self.engine = engine
        self.bytes = ByteCacheDirectory()
        #: Hook for multi-worker serving: maps the single-process
        #: ``/v1/metrics`` payload to the aggregated cross-worker view.
        self.metrics_extra = metrics_extra
        engine.store.subscribe(self._run_replaced)

    # -- public entry points --------------------------------------------

    def handle(
        self,
        method: str,
        target: str,
        headers: Mapping[str, str] | None = None,
    ) -> ApiResponse:
        """Answer ``method target`` (headers drive conditional GETs)."""
        registry = self.engine.registry
        registry.counter("serve.http.requests").inc()
        if method not in ("GET", "HEAD"):
            response = ApiResponse(
                405,
                encode_payload(
                    error_body(405, f"method {method} not allowed")
                ),
                headers=(("Allow", "GET, HEAD"),),
            )
        else:
            try:
                with registry.timer("serve.http.request"):
                    response = self._routed(target)
            except QueryError as err:
                response = self._error(err.status, str(err))
            except ReproError as err:
                response = self._error(400, str(err))
            except Exception:  # pragma: no cover — defensive 500 path
                response = self._error(500, "internal server error")
            if (
                response.status == 200
                and response.etag is not None
                and headers is not None
                and _etag_matches(headers.get("if-none-match"), response.etag)
            ):
                response = ApiResponse(304, b"", etag=response.etag)
        registry.counter(f"serve.http.status.{response.status}").inc()
        response.head = method == "HEAD"
        return response

    def warm(self) -> int:
        """Render every entry of every registered run's byte table.

        Tables otherwise fill on demand, one entry per first request.
        Server boot calls this before forking so every worker inherits
        the whole table. Returns the number of precomputed entries, so
        callers can log what the hot path was primed with.
        """
        store = self.engine.store
        return sum(
            self.bytes.for_snapshot(store.get(name)).warm()
            for name in store.names()
        )

    # -- routing --------------------------------------------------------

    def _routed(self, target: str) -> ApiResponse:
        split = urlsplit(target)
        route = split.path.rstrip("/") or "/"
        params = self._parsed_params(split.query)
        engine = self.engine
        if route == f"{API_PREFIX}/healthz":
            return self._encoded({"status": "ok", "runs": engine.store.names()})
        if route == f"{API_PREFIX}/metrics":
            return self._encoded(self._metrics_payload())
        if route == f"{API_PREFIX}/runs":
            return self._encoded(engine.runs())
        if route == f"{API_PREFIX}/associations":
            return self._page("associations", engine.associations, params)
        if route == f"{API_PREFIX}/clusters":
            if "id" in params:
                return self._cluster(params["id"], params.get("run"))
            return self._page("clusters", engine.clusters, params)
        if route.startswith(f"{API_PREFIX}/clusters/"):
            return self._cluster(
                unquote(route.rsplit("/", 1)[1]), params.get("run")
            )
        if route.startswith(f"{API_PREFIX}/drugs/"):
            return self._drug(unquote(route.rsplit("/", 1)[1]), params.get("run"))
        if route == f"{API_PREFIX}/search":
            if "q" not in params:
                raise QueryError("search requires a q parameter")
            return self._encoded(
                engine.search(
                    params["q"],
                    run=params.get("run"),
                    kind=params.get("kind"),
                    limit=params.get("limit", 20),
                )
            )
        raise NotFoundError(f"no such endpoint: {route}")

    @staticmethod
    def _parsed_params(query: str) -> dict[str, str]:
        """Query-string pairs with duplicate keys rejected, not dropped."""
        params: dict[str, str] = {}
        duplicates: set[str] = set()
        for key, value in parse_qsl(query):
            if not key:
                continue
            if key in params:
                duplicates.add(key)
            params[key] = value
        if duplicates:
            raise BadQueryError(
                f"duplicate query parameter(s) {sorted(duplicates)}; "
                "send each parameter at most once"
            )
        return params

    # -- hot-path endpoints ---------------------------------------------

    def _cluster(self, cluster_id: str, run: str | None) -> ApiResponse:
        registry = self.engine.registry
        registry.counter("serve.requests.cluster").inc()
        snapshot = self.engine.resolve(run)
        entry = self.bytes.for_snapshot(snapshot).cluster(cluster_id)
        if entry is None:
            raise NotFoundError(
                f"unknown cluster {cluster_id!r} in run {snapshot.name!r}"
            )
        registry.counter("serve.responses.precomputed").inc()
        body, etag = entry
        return ApiResponse(200, body, etag=etag)

    def _drug(self, name: str, run: str | None) -> ApiResponse:
        registry = self.engine.registry
        registry.counter("serve.requests.drug").inc()
        snapshot = self.engine.resolve(run)
        entry = self.bytes.for_snapshot(snapshot).drug(name)
        if entry is None:
            raise NotFoundError(
                f"unknown drug {name!r} in run {snapshot.name!r}"
            )
        registry.counter("serve.responses.precomputed").inc()
        body, etag = entry
        return ApiResponse(200, body, etag=etag)

    def _page(
        self, endpoint: str, engine_method, params: dict[str, str]
    ) -> ApiResponse:
        snapshot = self.engine.resolve(params.get("run"))
        spec = validated_params(
            snapshot, {k: v for k, v in params.items() if k != "run"}
        )
        entry = self.bytes.for_snapshot(snapshot).page(endpoint, spec_key(spec))
        if entry is not None:
            registry = self.engine.registry
            registry.counter(f"serve.requests.{endpoint}").inc()
            registry.counter("serve.responses.precomputed").inc()
            return ApiResponse(200, entry[0])
        return self._encoded(engine_method(**params))

    # -- plumbing -------------------------------------------------------

    def _run_replaced(self, old, new) -> None:
        if self.bytes.invalidate(old.token):
            self.engine.registry.counter("serve.bytecache.invalidated").inc()

    def base_metrics_payload(self) -> dict[str, Any]:
        """This process's own ``/v1/metrics`` view, aggregation hook excluded.

        The multi-worker hub flushes this payload to its per-worker file
        and feeds it back through :attr:`metrics_extra` for the merged
        fleet view — calling the un-hooked form here is what keeps that
        from recursing.
        """
        return {
            "metrics": self.engine.registry.snapshot().as_dict(),
            "cache": self.engine.cache_stats(),
            "bytecache": self.bytes.stats(),
        }

    def _metrics_payload(self) -> dict[str, Any]:
        payload = self.base_metrics_payload()
        if self.metrics_extra is not None:
            payload = self.metrics_extra(payload)
        return payload

    def _encoded(self, payload: dict[str, Any]) -> ApiResponse:
        self.engine.registry.counter("serve.responses.encoded").inc()
        return ApiResponse(200, encode_payload(payload))

    def _error(self, status: int, message: str) -> ApiResponse:
        return ApiResponse(status, encode_payload(error_body(status, message)))
