"""Forked serving workers start with the inherited heap frozen.

Without ``gc.freeze()`` before the fork, a worker's first full
collection walks every object inherited from the parent and stalls the
requests in flight. Each test replaces the worker body with one that
records ``gc.get_freeze_count()`` and exits.
"""

from __future__ import annotations

import gc
import os
import time

import pytest

from repro.obs import MetricsRegistry
from repro.serve import ApiResponder, QueryEngine, ResultStore
from repro.serve import aio

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@pytest.fixture
def recorded(tmp_path, monkeypatch):
    """Worker bodies write their freeze count to ``tmp_path``."""

    def record_freeze_count(responder, sock, **kwargs):
        partial = tmp_path / f"partial-{os.getpid()}"
        partial.write_text(str(gc.get_freeze_count()))
        partial.rename(tmp_path / f"worker-{os.getpid()}")

    monkeypatch.setattr(aio, "worker_main", record_freeze_count)

    def counts():
        return [int(path.read_text()) for path in sorted(tmp_path.glob("worker-*"))]

    return counts


def responder() -> ApiResponder:
    return ApiResponder(QueryEngine(ResultStore(), registry=MetricsRegistry()))


def test_forked_workers_start_frozen_and_parent_unfreezes(recorded):
    with aio.forked_workers(responder(), 2):
        assert gc.get_freeze_count() == 0
        # The block's exit SIGTERMs the workers: let them record first.
        deadline = time.monotonic() + 10.0
        while len(recorded()) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
    counts = recorded()
    assert len(counts) == 2
    assert all(count > 0 for count in counts)


def test_serve_forked_workers_start_frozen_and_parent_unfreezes(recorded):
    assert aio.serve_forked(responder(), "127.0.0.1", 0, 2) == 0
    assert gc.get_freeze_count() == 0
    counts = recorded()
    assert len(counts) == 2
    assert all(count > 0 for count in counts)
