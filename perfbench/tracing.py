"""Spans recorded from the benchmark's own files around calls into each layer.

A span is ``(id, parent, trace, name, layer, start, end)``: ``trace``
groups the spans of one batch job, stream batch or query request, and
``parent`` is the span that caused it. Spans stay in memory and are
written out as JSON lines when the run ends. The untraced run uses
:data:`NO_TRACE`, whose spans cost one no-op context manager.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, str, str, float, float]] = []
        self._origin = time.perf_counter()

    enabled = True

    def record(
        self,
        name: str,
        layer: str,
        trace: str,
        start: float,
        end: float,
        parent: int | None = None,
    ) -> int:
        span_id = len(self.spans)
        self.spans.append((span_id, parent, trace, name, layer, start, end))
        return span_id

    @contextmanager
    def span(
        self, name: str, layer: str, trace: str, parent: int | None = None
    ) -> Iterator[int]:
        """Time the enclosed block; yields the id children name as parent."""
        span_id = len(self.spans)
        self.spans.append((span_id, parent, trace, name, layer, 0.0, 0.0))
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            self.spans[span_id] = (span_id, parent, trace, name, layer, start, end)

    def self_seconds(self) -> dict[str, float]:
        """Per layer: Σ span duration minus the part its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _, parent, _, _, _, start, end in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        totals: dict[str, float] = {}
        for span_id, _, _, _, layer, start, end in self.spans:
            covered = 0.0
            cursor = start
            for child_start, child_end in sorted(children.get(span_id, ())):
                child_start = max(child_start, cursor)
                child_end = min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    cursor = child_end
            totals[layer] = totals.get(layer, 0.0) + (end - start - covered)
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span_id, parent, trace, name, layer, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "trace": trace,
                            "name": name,
                            "layer": layer,
                            "start_s": round(start - self._origin, 6),
                            "end_s": round(end - self._origin, 6),
                        }
                    )
                    + "\n"
                )


class _NoTrace:
    enabled = False

    def record(self, *args, **kwargs) -> None:
        return None

    @contextmanager
    def span(self, *args, **kwargs) -> Iterator[None]:
        yield None


NO_TRACE = _NoTrace()
