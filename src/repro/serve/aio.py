"""The asyncio (async) HTTP transport: built for concurrent traffic.

The threaded fallback spends a kernel thread per connection; under a
few hundred keep-alive clients the GIL and the scheduler, not the query
work, set the ceiling. This transport serves every connection from one
event loop per worker process:

- **hand-rolled HTTP/1.1** — a small stdlib-only request parser
  (request line + headers, size-capped) with persistent connections,
  so a closed-loop client pays one TCP handshake for its whole session;
- **shared immutable snapshots** — all request handling funnels into
  the same :class:`~repro.serve.api.ApiResponder` the sync transport
  uses; hot responses are precomputed bytes, so the per-request work on
  the loop is a dict probe and a socket write;
- **multi-worker** — :func:`forked_workers` binds one listening socket,
  forks N workers (snapshots are frozen *before* the fork, so the OS
  shares their pages copy-on-write), and every worker's event loop
  accepts from the inherited socket; per-worker metrics are merged into
  ``/v1/metrics`` through the file-based :class:`WorkerMetricsHub`;
- **backpressure + load shedding** — every response write awaits
  ``drain()`` against a bounded write buffer, and connections beyond
  ``max_connections`` receive an immediate ``503`` with ``Retry-After``
  instead of growing an unbounded accept queue;
- **graceful shutdown** — :meth:`AsyncHTTPServer.shutdown` stops
  accepting, lets in-flight responses finish within a grace deadline,
  then closes what remains. SIGTERM/SIGINT on ``mediar serve`` land
  here and the process exits 0.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import sys
import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager
from email.utils import formatdate
from http import HTTPStatus
from pathlib import Path
from typing import Any, Callable

from repro.obs import merge_metric_dicts
from repro.runtime import frozen_heap
from repro.serve.api import CONTENT_TYPE, ApiResponder, ApiResponse, shed_response

SERVER_NAME = "mediar-serve/1"

#: Caps on one request's wire size — oversize requests get a 400/431
#: and the connection is closed, they never buffer unbounded memory.
MAX_REQUEST_LINE = 8192
MAX_HEADER_BYTES = 32768
MAX_HEADERS = 100
#: Largest request body (on a GET/HEAD!) silently discarded to keep the
#: connection framed; anything larger closes the connection.
MAX_DISCARD_BODY = 1 << 20

#: Per-connection write-buffer high-water mark: ``drain()`` blocks the
#: connection's coroutine (not the loop) once this much is unflushed.
WRITE_HIGH_WATER = 64 * 1024


class _BadRequest(Exception):
    """A malformed/oversize request; carries the status to answer with."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _Connection:
    """Book-keeping for one live client connection."""

    __slots__ = ("task", "busy")

    def __init__(self, task: asyncio.Task) -> None:
        self.task = task
        self.busy = False


def _http_date() -> str:
    """RFC 7231 date, cached per wall-clock second (hot-path header)."""
    now = int(time.time())
    cached = _http_date._cache
    if cached[0] != now:
        _http_date._cache = (now, formatdate(now, usegmt=True))
    return _http_date._cache[1]


_http_date._cache = (0, "")


def render_head(response: ApiResponse, *, keep_alive: bool) -> bytes:
    """The status line + headers of one response, CRLF-framed."""
    reason = HTTPStatus(response.status).phrase
    lines = [
        f"HTTP/1.1 {response.status} {reason}",
        f"Server: {SERVER_NAME}",
        f"Date: {_http_date()}",
    ]
    if response.status != 304:
        lines.append(f"Content-Type: {CONTENT_TYPE}")
    lines.append(f"Content-Length: {response.content_length}")
    if response.etag is not None:
        lines.append(f"ETag: {response.etag}")
    for name, value in response.headers:
        lines.append(f"{name}: {value}")
    lines.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, str, dict[str, str]] | None:
    """Parse one request head; ``None`` on a cleanly closed connection."""
    try:
        line = await reader.readline()
    except (ValueError, asyncio.LimitOverrunError):
        raise _BadRequest(431, "request line too long") from None
    if not line:
        return None
    if len(line) > MAX_REQUEST_LINE:
        raise _BadRequest(431, "request line too long")
    parts = line.decode("latin-1").strip().split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _BadRequest(400, "malformed request line")
    method, target, version = parts
    headers: dict[str, str] = {}
    total = 0
    while True:
        try:
            header = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError):
            raise _BadRequest(431, "header section too large") from None
        if header in (b"\r\n", b"\n"):
            break
        if not header:
            return None
        total += len(header)
        if total > MAX_HEADER_BYTES or len(headers) >= MAX_HEADERS:
            raise _BadRequest(431, "header section too large")
        name, sep, value = header.decode("latin-1").partition(":")
        if not sep:
            raise _BadRequest(400, f"malformed header line {name!r}")
        headers[name.strip().lower()] = value.strip()
    return method, target, version, headers


class AsyncHTTPServer:
    """One worker's event-loop HTTP server over a shared responder."""

    def __init__(
        self,
        responder: ApiResponder,
        *,
        max_connections: int = 1024,
        grace: float = 5.0,
        hub: "WorkerMetricsHub | None" = None,
        flush_interval: float = 0.5,
    ) -> None:
        self.responder = responder
        self.max_connections = max_connections
        self.grace = grace
        self.hub = hub
        self.flush_interval = flush_interval
        if hub is not None:
            responder.metrics_extra = hub.merged
        self._server: asyncio.Server | None = None
        self._connections: set[_Connection] = set()
        self._closing = False
        self._stopped: asyncio.Event | None = None
        self._flush_task: asyncio.Task | None = None
        self.host = ""
        self.port = 0

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle ------------------------------------------------------

    async def start(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        sock: socket.socket | None = None,
    ) -> None:
        """Bind (or adopt ``sock``, the forked-worker path) and accept."""
        self._stopped = asyncio.Event()
        if sock is not None:
            self._server = await asyncio.start_server(
                self._on_connection, sock=sock, limit=MAX_HEADER_BYTES
            )
        else:
            self._server = await asyncio.start_server(
                self._on_connection, host, port, limit=MAX_HEADER_BYTES
            )
        bound = self._server.sockets[0].getsockname()
        self.host, self.port = bound[0], bound[1]
        if self.hub is not None:
            self._flush_task = asyncio.create_task(self._flush_loop())

    async def serve_until_stopped(self) -> None:
        """Block until :meth:`shutdown` (or :meth:`request_shutdown`) ran."""
        assert self._stopped is not None, "start() first"
        await self._stopped.wait()

    async def shutdown(self) -> None:
        """Graceful stop: no new accepts, drain in-flight, then close."""
        if self._closing:
            return
        self._closing = True
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()
        # Idle keep-alive connections are parked in readline: cancel
        # them now. Busy ones get the grace period to finish writing.
        for connection in list(self._connections):
            if not connection.busy:
                connection.task.cancel()
        deadline = asyncio.get_running_loop().time() + self.grace
        while self._connections:
            if asyncio.get_running_loop().time() >= deadline:
                for connection in list(self._connections):
                    connection.task.cancel()
            await asyncio.sleep(0.01)
        if self._flush_task is not None:
            self._flush_task.cancel()
            self._flush_task = None
        if self.hub is not None:
            self.hub.flush(self.responder.base_metrics_payload())
        self._stopped.set()

    # -- connection handling --------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        registry = self.responder.engine.registry
        if self._closing or len(self._connections) >= self.max_connections:
            registry.counter("serve.http.shed").inc()
            registry.counter("serve.http.status.503").inc()
            await self._write_and_close(writer, shed_response())
            return
        connection = _Connection(asyncio.current_task())
        self._connections.add(connection)
        writer.transport.set_write_buffer_limits(high=WRITE_HIGH_WATER)
        registry.counter("serve.http.connections").inc()
        try:
            await self._serve_connection(reader, writer, connection, registry)
        except asyncio.CancelledError:
            pass
        except (ConnectionError, TimeoutError, OSError):
            pass
        finally:
            self._connections.discard(connection)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_connection(
        self, reader, writer, connection: _Connection, registry
    ) -> None:
        while True:
            try:
                request = await _read_request(reader)
            except _BadRequest as err:
                registry.counter(f"serve.http.status.{err.status}").inc()
                response = ApiResponse(
                    err.status,
                    json.dumps(
                        {"error": {"status": err.status, "message": str(err)}},
                        sort_keys=True,
                    ).encode("utf-8"),
                )
                writer.write(render_head(response, keep_alive=False))
                writer.write(response.body)
                await writer.drain()
                return
            if request is None:
                return
            connection.busy = True
            method, target, version, headers = request
            if not await self._discard_body(reader, headers):
                return
            response = self.responder.handle(method, target, headers)
            keep_alive = (
                not self._closing
                and headers.get("connection", "").lower() != "close"
                and (
                    version == "HTTP/1.1"
                    or headers.get("connection", "").lower() == "keep-alive"
                )
            )
            writer.write(render_head(response, keep_alive=keep_alive))
            if response.send_body:
                writer.write(response.body)
            # Backpressure: a slow reader parks this coroutine here —
            # its own connection stalls, the loop keeps serving others.
            await writer.drain()
            connection.busy = False
            if not keep_alive:
                return

    @staticmethod
    async def _discard_body(reader, headers: dict[str, str]) -> bool:
        """Drain a (pointless) request body; False closes the connection."""
        if "transfer-encoding" in headers:
            return False
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            return False
        if length <= 0:
            return True
        if length > MAX_DISCARD_BODY:
            return False
        await reader.readexactly(length)
        return True

    async def _write_and_close(self, writer, response: ApiResponse) -> None:
        try:
            writer.write(render_head(response, keep_alive=False))
            writer.write(response.body)
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()

    async def _flush_loop(self) -> None:
        """Periodically publish this worker's metrics for the fleet view."""
        assert self.hub is not None
        while True:
            await asyncio.sleep(self.flush_interval)
            self.hub.flush(self.responder.base_metrics_payload())


# -- multi-worker serving ----------------------------------------------


class WorkerMetricsHub:
    """File-based per-worker metric aggregation for ``/v1/metrics``.

    Worker processes cannot share a :class:`~repro.obs.MetricsRegistry`,
    so each periodically flushes its own snapshot as JSON into a shared
    directory (atomic ``os.replace`` writes — a reader never sees a
    torn file). Whichever worker answers ``/v1/metrics`` flushes its own
    snapshot first, reads every peer file, and serves the merged view:
    counters and gauges sum, timers sum with worst-case ``max_seconds``
    (see :func:`repro.obs.merge_metric_dicts`), cache and byte-cache
    accounting sum field-wise, and a ``workers`` section itemizes each
    worker's request count for skew diagnosis.
    """

    def __init__(self, directory: str | Path, worker_id: int, n_workers: int) -> None:
        self.directory = Path(directory)
        self.worker_id = worker_id
        self.n_workers = n_workers

    def _path(self, worker_id: int) -> Path:
        return self.directory / f"worker-{worker_id}.json"

    def flush(self, payload: dict[str, Any]) -> None:
        record = {
            "worker": self.worker_id,
            "pid": os.getpid(),
            "flushed_at": time.time(),
            **payload,
        }
        tmp = self._path(self.worker_id).with_suffix(".tmp")
        tmp.write_text(json.dumps(record), encoding="utf-8")
        os.replace(tmp, self._path(self.worker_id))

    def merged(self, own_payload: dict[str, Any]) -> dict[str, Any]:
        self.flush(own_payload)
        per_worker: list[dict[str, Any]] = []
        for path in sorted(self.directory.glob("worker-*.json")):
            try:
                per_worker.append(json.loads(path.read_text(encoding="utf-8")))
            except (OSError, ValueError):  # a peer mid-restart; skip it
                continue
        merged_metrics = merge_metric_dicts(
            [record.get("metrics", {}) for record in per_worker]
        )
        cache = _sum_stats([record.get("cache", {}) for record in per_worker])
        total = cache.get("hits", 0) + cache.get("misses", 0)
        cache["hit_rate"] = round(cache.get("hits", 0) / total, 4) if total else 0.0
        return {
            "metrics": merged_metrics,
            "cache": cache,
            "bytecache": _sum_stats(
                [record.get("bytecache", {}) for record in per_worker]
            ),
            "workers": {
                "count": self.n_workers,
                "reporting": len(per_worker),
                "per_worker": [
                    {
                        "worker": record.get("worker"),
                        "pid": record.get("pid"),
                        "requests": record.get("metrics", {})
                        .get("counters", {})
                        .get("serve.http.requests", 0),
                    }
                    for record in per_worker
                ],
            },
        }


def _sum_stats(stats: list[dict[str, Any]]) -> dict[str, Any]:
    summed: dict[str, Any] = {}
    for record in stats:
        for name, value in record.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                summed[name] = summed.get(name, 0) + value
    return summed


def bind_server_socket(host: str, port: int, backlog: int = 512) -> socket.socket:
    """The listening socket forked workers inherit and accept from.

    Built with an explicit ``IPPROTO_TCP`` rather than
    ``socket.create_server`` (whose listener carries ``proto=0``):
    accepted sockets inherit the listener's proto, and asyncio only sets
    ``TCP_NODELAY`` on transports whose socket reports the TCP proto —
    a proto-0 listener silently reintroduces Nagle/delayed-ACK stalls
    (~40ms per response) on every forked-worker connection.
    """
    family, type_, proto, _, address = socket.getaddrinfo(
        host,
        port,
        type=socket.SOCK_STREAM,
        proto=socket.IPPROTO_TCP,
        flags=socket.AI_PASSIVE,
    )[0]
    sock = socket.socket(family, type_, proto)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(address)
        sock.listen(backlog)
        sock.setblocking(False)
    except BaseException:
        sock.close()
        raise
    return sock


def worker_main(
    responder: ApiResponder,
    sock: socket.socket,
    *,
    hub: WorkerMetricsHub | None = None,
    max_connections: int = 1024,
    grace: float = 5.0,
) -> None:
    """One worker process: an event loop accepting from the shared socket.

    Installs SIGTERM/SIGINT handlers that trigger the graceful shutdown
    path, then serves until it completes. Runs in the child after
    :func:`os.fork`, and equally works single-process in the parent.
    """

    async def main() -> None:
        server = AsyncHTTPServer(
            responder, max_connections=max_connections, grace=grace, hub=hub
        )
        await server.start(sock=sock)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                signum, lambda: loop.create_task(server.shutdown())
            )
        await server.serve_until_stopped()

    asyncio.run(main())


def serve_forked(
    responder_or_factory: ApiResponder | Callable[[], ApiResponder],
    host: str,
    port: int,
    n_workers: int,
    *,
    metrics_dir: str | Path | None = None,
    max_connections: int = 1024,
    grace: float = 5.0,
    announce: Callable[[str], None] | None = None,
) -> int:
    """Bind, fork ``n_workers`` serving processes, supervise until exit.

    The responder (with its engine, store, and frozen snapshots) is
    built *before* the fork, so the workers share its memory
    copy-on-write — N workers do not hold N copies of a quarter.
    The parent only supervises: it forwards SIGTERM/SIGINT to the
    workers and returns a nonzero exit status only when a worker died
    abnormally. Requires :func:`os.fork` (POSIX).
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    responder = (
        responder_or_factory
        if isinstance(responder_or_factory, ApiResponder)
        else responder_or_factory()
    )
    sock = bind_server_socket(host, port)
    bound_port = sock.getsockname()[1]
    if announce is not None:
        announce(f"http://{host}:{bound_port}")
    if n_workers == 1:
        try:
            worker_main(
                responder, sock, max_connections=max_connections, grace=grace
            )
        finally:
            sock.close()
        return 0

    metrics_dir = Path(metrics_dir) if metrics_dir is not None else None
    if metrics_dir is not None:
        metrics_dir.mkdir(parents=True, exist_ok=True)
    pids = []
    with frozen_heap():
        for worker_id in range(n_workers):
            pid = os.fork()
            if pid == 0:
                status = 0
                try:
                    hub = (
                        WorkerMetricsHub(metrics_dir, worker_id, n_workers)
                        if metrics_dir is not None
                        else None
                    )
                    worker_main(
                        responder,
                        sock,
                        hub=hub,
                        max_connections=max_connections,
                        grace=grace,
                    )
                except BaseException:  # noqa: BLE001 — worker exit status only
                    status = 1
                finally:
                    sys.stdout.flush()
                    sys.stderr.flush()
                    os._exit(status)
            pids.append(pid)
    sock.close()  # workers hold their inherited copies

    def forward(signum, frame) -> None:
        for pid in pids:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass

    previous = {
        signum: signal.signal(signum, forward)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    exit_status = 0
    try:
        for pid in pids:
            _, status = os.waitpid(pid, 0)
            if os.waitstatus_to_exitcode(status) not in (0, -signal.SIGTERM):
                exit_status = 1
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return exit_status


@contextmanager
def forked_workers(
    responder: ApiResponder,
    n_workers: int,
    *,
    host: str = "127.0.0.1",
    metrics_dir: str | Path | None = None,
    max_connections: int = 1024,
) -> Iterator[str]:
    """Run forked serving workers for the enclosed block (benchmarks/tests).

    Yields the base URL; on exit the workers receive SIGTERM and are
    reaped (SIGKILL after a timeout as a backstop).
    """
    sock = bind_server_socket(host, 0)
    port = sock.getsockname()[1]
    if metrics_dir is not None:
        Path(metrics_dir).mkdir(parents=True, exist_ok=True)
    pids = []
    with frozen_heap():
        for worker_id in range(n_workers):
            pid = os.fork()
            if pid == 0:
                status = 0
                try:
                    hub = (
                        WorkerMetricsHub(metrics_dir, worker_id, n_workers)
                        if metrics_dir is not None
                        else None
                    )
                    worker_main(
                        responder, sock, hub=hub, max_connections=max_connections
                    )
                except BaseException:  # noqa: BLE001 — worker exit status only
                    status = 1
                finally:
                    os._exit(status)
            pids.append(pid)
    sock.close()
    try:
        yield f"http://{host}:{port}"
    finally:
        for pid in pids:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 10.0
        for pid in pids:
            while time.monotonic() < deadline:
                done, _ = os.waitpid(pid, os.WNOHANG)
                if done:
                    break
                time.sleep(0.02)
            else:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


@contextmanager
def running_async_server(
    responder: ApiResponder,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    max_connections: int = 1024,
    grace: float = 5.0,
) -> Iterator[AsyncHTTPServer]:
    """Run one in-process async server on a background thread.

    The async twin of :func:`repro.serve.http.running_server` — the
    contract/parity tests and the load benchmark drive both through the
    same shape.
    """
    started = threading.Event()
    box: dict[str, Any] = {}

    async def main() -> None:
        server = AsyncHTTPServer(
            responder, max_connections=max_connections, grace=grace
        )
        await server.start(host, port)
        box["server"] = server
        box["loop"] = asyncio.get_running_loop()
        started.set()
        await server.serve_until_stopped()

    def runner() -> None:
        try:
            asyncio.run(main())
        except BaseException as error:  # noqa: BLE001 — surfaced to the caller
            box["error"] = error
            started.set()

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    if not started.wait(timeout=10) or "error" in box:
        raise RuntimeError(f"async server failed to start: {box.get('error')}")
    server: AsyncHTTPServer = box["server"]
    loop: asyncio.AbstractEventLoop = box["loop"]
    try:
        yield server
    finally:
        loop.call_soon_threadsafe(
            lambda: loop.create_task(server.shutdown())
        )
        thread.join(timeout=15)
