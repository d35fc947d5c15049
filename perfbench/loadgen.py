"""Open-loop HTTP load: one generator thread, two pipelined keep-alive connections.

Requests go out on a fixed Poisson schedule whether or not earlier
answers have arrived (HTTP/1.1 pipelining keeps the two connections
busy without waiting), so a stall in the server delays every later
request and shows in their latency. Latency is timed from each
request's *due* time; how late the generator itself sent a request is
reported separately as generator lag.

A rate step is several windows of at least 1,000 requests each. Its
p99 figures are the median over windows of each window's p99, so one
scheduler stall of the shared machine moves one window, not the step;
a stall the system causes in every window still shows.
"""

from __future__ import annotations

import gc
import selectors
import socket
import statistics
import time
from collections import deque
from dataclasses import dataclass, field

N_CONNECTIONS = 2
#: Poll instead of sleeping this close to the next due time: waking from
#: a sleep costs the generator up to milliseconds of lag on a shared VM.
SPIN_S = 0.002


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: p99 of 1000 values leaves 10 beyond it."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class _Connection:
    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.inbox = bytearray()
        self.outbox = bytearray()
        self.pending: deque = deque()  # (arrival, request, due)

    def close(self) -> None:
        self.sock.close()


@dataclass
class WindowResult:
    """One window of one rate step: every arrival's latency and send lag."""

    rate: float
    seconds: float  # due time of the last arrival
    latency_ms: list  # by arrival, from its due time
    lag_ms: list  # by arrival, send time minus due time
    succeeded: int = 0
    failed: int = 0
    shed: int = 0
    delivered_rps: float = 0.0
    errors: list = field(default_factory=list)


def summarize(windows: list[WindowResult]) -> dict:
    """A step's figures: p50 over all arrivals, p99s as medians over windows."""
    return {
        "rate_rps": windows[0].rate,
        "windows": len(windows),
        "attempted": sum(len(w.latency_ms) for w in windows),
        "succeeded": sum(w.succeeded for w in windows),
        "failed": sum(w.failed for w in windows),
        "shed": sum(w.shed for w in windows),
        "offered_rps": statistics.median(len(w.lag_ms) / w.seconds for w in windows),
        "delivered_rps": statistics.median(w.delivered_rps for w in windows),
        "latency_p50_ms": percentile([v for w in windows for v in w.latency_ms], 50),
        "latency_p99_ms": statistics.median(percentile(w.latency_ms, 99) for w in windows),
        "lag_p99_ms": statistics.median(percentile(w.lag_ms, 99) for w in windows),
        "errors": [e for w in windows for e in w.errors][:5],
    }


class LoadGenerator:
    """Drives one serving process at fixed rates over two connections."""

    def __init__(self, url: str, wire: list[bytes], expected: list) -> None:
        host, port = url.removeprefix("http://").rsplit(":", 1)
        self.address = (host, int(port))
        self.wire = wire
        self.expected = expected
        self.connections = [_Connection(*self.address) for _ in range(N_CONNECTIONS)]

    def close(self) -> None:
        for connection in self.connections:
            connection.close()

    def run(
        self,
        arrivals: list[tuple[float, int]],
        rate: float,
        *,
        tracer=None,
        parent: int | None = None,
        drain_timeout: float = 10.0,
    ) -> WindowResult:
        """Send ``arrivals`` on schedule; wait for every answer or time out.

        The generator's own garbage collector is paused meanwhile, so
        the benchmark's heap cannot stall the client mid-window.
        """
        n = len(arrivals)
        result = WindowResult(
            rate=rate, seconds=arrivals[-1][0], latency_ms=[0.0] * n, lag_ms=[0.0] * n
        )
        collecting = gc.isenabled()
        gc.disable()
        selector = selectors.SelectSelector()
        for connection in self.connections:
            selector.register(connection.sock, selectors.EVENT_READ, connection)
        sent_next = 0
        outstanding = 0
        start = time.perf_counter() + 0.01
        last_done = start
        give_up = None
        try:
            while True:
                now = time.perf_counter()
                while sent_next < n and start + arrivals[sent_next][0] <= now:
                    offset, request = arrivals[sent_next]
                    connection = self.connections[sent_next % N_CONNECTIONS]
                    connection.outbox += self.wire[request]
                    due = start + offset
                    connection.pending.append((sent_next, request, due))
                    result.lag_ms[sent_next] = (now - due) * 1e3
                    sent_next += 1
                    outstanding += 1
                for connection in self.connections:
                    if connection.outbox:
                        self._flush(connection)
                if sent_next >= n:
                    if outstanding == 0:
                        break
                    if give_up is None:
                        give_up = now + drain_timeout
                    elif now > give_up:
                        break
                    timeout = 0.05
                else:
                    timeout = max(0.0, start + arrivals[sent_next][0] - now - SPIN_S)
                if any(connection.outbox for connection in self.connections):
                    timeout = 0.0
                for key, _ in selector.select(timeout):
                    connection = key.data
                    try:
                        data = connection.sock.recv(1 << 18)
                    except BlockingIOError:
                        continue
                    done = time.perf_counter()
                    if not data:
                        outstanding -= self._drop(connection, result, done, "closed")
                        selector.unregister(key.fileobj)
                        replacement = self._replace(connection)
                        selector.register(replacement.sock, selectors.EVENT_READ, replacement)
                        continue
                    connection.inbox += data
                    answered = self._parse(connection, result, done, tracer, parent)
                    if answered:
                        outstanding -= answered
                        last_done = done
        finally:
            selector.close()
            if collecting:
                gc.enable()
        now = time.perf_counter()
        for connection in list(self.connections):
            if connection.pending:
                # Answers still owed would arrive during the next step.
                self._drop(connection, result, now, "timed out")
                self._replace(connection)
        if result.succeeded:
            result.delivered_rps = result.succeeded / max(1e-9, last_done - start)
        return result

    def _replace(self, connection: _Connection) -> _Connection:
        connection.close()
        replacement = _Connection(*self.address)
        self.connections[self.connections.index(connection)] = replacement
        return replacement

    @staticmethod
    def _flush(connection: _Connection) -> None:
        try:
            sent = connection.sock.send(connection.outbox)
        except BlockingIOError:
            return
        del connection.outbox[:sent]

    @staticmethod
    def _drop(connection, result, now, reason) -> int:
        dropped = len(connection.pending)
        while connection.pending:
            arrival, _, due = connection.pending.popleft()
            result.failed += 1
            result.latency_ms[arrival] = (now - due) * 1e3
            if len(result.errors) < 5:
                result.errors.append(f"connection {reason} with answers pending")
        return dropped

    def _parse(self, connection, result, done, tracer, parent) -> int:
        inbox = connection.inbox
        answered = 0
        while True:
            head_end = inbox.find(b"\r\n\r\n")
            if head_end < 0:
                break
            head = bytes(inbox[:head_end])
            marker = head.find(b"\r\nContent-Length: ")
            if marker < 0:
                raise RuntimeError(f"response without Content-Length: {head[:80]!r}")
            length = int(head[marker + 18 : head.find(b"\r\n", marker + 2)])
            total = head_end + 4 + length
            if len(inbox) < total:
                break
            body = bytes(inbox[head_end + 4 : total])
            del inbox[:total]
            arrival, request, due = connection.pending.popleft()
            answered += 1
            result.latency_ms[arrival] = (done - due) * 1e3
            if tracer is not None:
                tracer.record("query.request", "http", f"req{arrival}", due, done, parent)
            status = int(head[9:12])
            want_status, want_body, want_etag = self.expected[request]
            if status == 503:
                result.shed += 1
                continue
            if status == want_status and body == want_body and (
                status != 304 or f"ETag: {want_etag}".encode() in head
            ):
                result.succeeded += 1
                continue
            result.failed += 1
            if len(result.errors) < 5:
                result.errors.append(
                    f"request {request}: status {status} (want {want_status}), "
                    f"body {'matches' if body == want_body else 'differs'}"
                )
        return answered
