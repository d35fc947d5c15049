"""Dataflow-scheduler differential harness: order, death, and reuse.

The dependency-driven scheduler in :mod:`repro.parallel.miner` promises
byte-identical closed sets at any worker count, under ANY completion
order, across repeated mines over one persistent pool, and through
mid-mine worker death. This module attacks each axis directly:

- :class:`InlinePool` replaces the process pool with an in-process
  executor whose ``wait_event`` completes pending futures in a chosen
  adversarial order (FIFO, LIFO, or seeded shuffle), so the scheduler
  sees worst-case orderings deterministically — including a hypothesis
  sweep over random orders.
- :class:`FlakyPool` injects a ``BrokenProcessPool`` mid-mine (once,
  or on every completion to check the resubmit bound).
- A real :class:`~repro.parallel.pool.MiningPool` test kills an actual
  worker process via the ``MEDIAR_POOL_KILL_NODE`` hook.
- Repeated-mine tests assert identity of the same and of a grown
  database mined again over one pool.
"""

from __future__ import annotations

import queue
import random
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MiningError
from repro.mining.fpclose import fpclose
from repro.mining.transactions import (
    MiningCatalog,
    TransactionDatabase,
    canonical_itemset_order,
)
from repro.obs import InMemorySink, MetricsRegistry
from repro.obs.metrics import use_registry
from repro.parallel.miner import MAX_NODE_ATTEMPTS, fpclose_sharded
from repro.parallel.pool import KILL_ENV, MiningPool

N_ITEMS = 12
MIN_SUPPORT = 3


def build_rows(seed: int, n_rows: int = 60) -> list[tuple[int, ...]]:
    rng = random.Random(seed)
    return [
        tuple(sorted(rng.sample(range(N_ITEMS), rng.randint(1, 6))))
        for _ in range(n_rows)
    ]


def build_db(rows) -> TransactionDatabase:
    return TransactionDatabase(tuple(rows), MiningCatalog(N_ITEMS))


def serial_truth(database, **kwargs):
    return canonical_itemset_order(fpclose(database, MIN_SUPPORT, **kwargs))


class InlinePool(MiningPool):
    """A MiningPool whose tasks run inline, completed in chosen order.

    ``submit`` only queues; ``wait_event`` picks the next pending task
    by the adversarial policy, runs it in-process, and resolves its
    future — so the scheduler observes completion orders no real pool
    would reliably produce.
    """

    def __init__(self, order: str = "fifo", *, width: int = 8, rng=None):
        super().__init__(1, width=width)
        self.order = order
        self.rng = rng
        self.pending: list = []
        self.completed_labels: list[str] = []

    def submit(self, fn, task):
        future = Future()
        future.generation = self.generation
        self.pending.append((fn, task, future))
        return future

    def _pick(self):
        if self.order == "fifo":
            index = 0
        elif self.order == "lifo":
            index = len(self.pending) - 1
        else:
            index = self.rng.randrange(len(self.pending))
        return self.pending.pop(index)

    def _complete_one(self) -> None:
        fn, task, future = self._pick()
        self.completed_labels.append(task["label"])
        result = fn(task)
        future.set_result(result)

    def wait_event(self, events, timeout=None):
        while True:
            try:
                return events.get_nowait()
            except queue.Empty:
                pass
            assert self.pending, "scheduler waited with nothing in flight"
            self._complete_one()


class FlakyPool(InlinePool):
    """Fails the N-th completion with BrokenProcessPool.

    With ``every=True`` every completion fails instead, modelling a
    node whose worker dies each time it runs.
    """

    def __init__(self, fail_at: int, *, every: bool = False, **kwargs):
        super().__init__(**kwargs)
        self.fail_at: int | None = fail_at
        self.every = every
        self._n_completed = 0

    def _complete_one(self) -> None:
        if self.every or (
            self.fail_at is not None and self._n_completed == self.fail_at
        ):
            self.fail_at = None
            self._n_completed += 1
            fn, task, future = self._pick()
            future.set_exception(BrokenProcessPool("worker died mid-mine"))
            return
        self._n_completed += 1
        super()._complete_one()


class TestCompletionOrders:
    @pytest.mark.parametrize("order", ["fifo", "lifo"])
    @pytest.mark.parametrize("n_workers", [2, 3, 4, 5, 8])
    def test_order_and_width_are_invisible(self, order, n_workers):
        database = build_db(build_rows(11))
        expected = serial_truth(database)
        with InlinePool(order) as pool:
            got = fpclose_sharded(
                database, MIN_SUPPORT, n_workers=n_workers, pool=pool
            )
        assert got == expected

    @settings(max_examples=40, deadline=None)
    @given(
        order_seed=st.integers(0, 10**6),
        n_workers=st.integers(2, 8),
        data_seed=st.integers(0, 30),
    )
    def test_property_shuffled_completions(
        self, order_seed, n_workers, data_seed
    ):
        database = build_db(build_rows(data_seed))
        expected = serial_truth(database)
        pool = InlinePool("random", rng=random.Random(order_seed))
        got = fpclose_sharded(
            database, MIN_SUPPORT, n_workers=n_workers, pool=pool
        )
        assert got == expected

    def test_orders_actually_differ(self):
        # Sanity check on the harness itself: LIFO visits the leaves in
        # a different order than FIFO, so the identity above is not
        # vacuous.
        database = build_db(build_rows(11))
        with InlinePool("fifo") as fifo, InlinePool("lifo") as lifo:
            fpclose_sharded(database, MIN_SUPPORT, n_workers=4, pool=fifo)
            fpclose_sharded(database, MIN_SUPPORT, n_workers=4, pool=lifo)
        assert fifo.completed_labels != lifo.completed_labels
        assert sorted(fifo.completed_labels) == sorted(lifo.completed_labels)


class TestWarmPools:
    def test_warm_remine_is_identical(self):
        database = build_db(build_rows(7))
        expected = serial_truth(database)
        with InlinePool("lifo") as pool:
            cold = fpclose_sharded(
                database, MIN_SUPPORT, n_workers=4, pool=pool
            )
            warm = fpclose_sharded(
                database, MIN_SUPPORT, n_workers=4, pool=pool
            )
        assert cold == expected
        assert warm == expected

    def test_warm_delta_mine_matches_serial_delta(self):
        database = build_db(build_rows(3))
        mask = (1 << 5) | (1 << 17) | (1 << 40)
        expected = serial_truth(database, touched_mask=mask)
        with InlinePool("fifo") as pool:
            fpclose_sharded(database, MIN_SUPPORT, n_workers=4, pool=pool)
            got = fpclose_sharded(
                database,
                MIN_SUPPORT,
                n_workers=4,
                pool=pool,
                touched_mask=mask,
            )
        assert got == expected

    def test_grown_database_remine_is_identical(self):
        rows = build_rows(5, n_rows=48)
        with InlinePool("fifo") as pool:
            fpclose_sharded(
                build_db(rows), MIN_SUPPORT, n_workers=4, pool=pool
            )
            grown = list(rows)
            grown[10] = tuple(sorted(set(grown[10]) | {0, 1}))
            grown.extend(build_rows(99, n_rows=8))
            database = build_db(grown)
            expected = serial_truth(database)
            got = fpclose_sharded(
                database,
                MIN_SUPPORT,
                n_workers=4,
                pool=pool,
            )
        assert got == expected

    def test_counters_and_node_timeline_reach_registry(self):
        sink = InMemorySink()
        registry = MetricsRegistry(sink=sink)
        database = build_db(build_rows(23))
        with InlinePool("fifo") as pool, use_registry(registry):
            fpclose_sharded(database, MIN_SUPPORT, n_workers=4, pool=pool)
            fpclose_sharded(database, MIN_SUPPORT, n_workers=4, pool=pool)
        counters = registry.snapshot().counters
        assert counters["parallel.pair.candidates"] > 0
        assert counters["parallel.merge.candidates"] > 0
        nodes = sink.of_type("parallel.node")
        # 4 leaves -> 4 mines + 2 pairs + 1 finalize, twice.
        assert len(nodes) == 14
        kinds = {record["node"]: record["kind"] for record in nodes}
        assert "finalize:0-3" in kinds
        for record in nodes:
            assert record["t_done"] >= record["t_submit"] >= 0.0
            assert record["attempts"] == 1


class TestWorkerDeath:
    @pytest.mark.parametrize("fail_at", [0, 2, 5])
    def test_inline_death_heals_and_matches(self, fail_at):
        database = build_db(build_rows(13))
        expected = serial_truth(database)
        pool = FlakyPool(fail_at, order="fifo")
        got = fpclose_sharded(database, MIN_SUPPORT, n_workers=4, pool=pool)
        assert got == expected
        assert pool.counters["worker_replacements"] == 1

    @settings(max_examples=25, deadline=None)
    @given(
        order_seed=st.integers(0, 10**6),
        fail_at=st.integers(0, 5),
        data_seed=st.integers(0, 30),
    )
    def test_property_death_under_shuffled_orders(
        self, order_seed, fail_at, data_seed
    ):
        database = build_db(build_rows(data_seed))
        expected = serial_truth(database)
        pool = FlakyPool(
            fail_at, order="random", rng=random.Random(order_seed)
        )
        got = fpclose_sharded(database, MIN_SUPPORT, n_workers=4, pool=pool)
        assert got == expected
        assert pool.counters["worker_replacements"] == 1

    def test_warm_state_survives_death_correctly(self):
        # Die on the second mine over the same pool: the replaced
        # executor must produce the same bytes.
        database = build_db(build_rows(17))
        expected = serial_truth(database)
        pool = FlakyPool(10**9, order="fifo")  # no failure on mine 1
        cold = fpclose_sharded(database, MIN_SUPPORT, n_workers=4, pool=pool)
        pool.fail_at = pool._n_completed + 1  # second task of mine 2
        warm = fpclose_sharded(database, MIN_SUPPORT, n_workers=4, pool=pool)
        assert cold == expected
        assert warm == expected
        assert pool.counters["worker_replacements"] == 1

    def test_node_that_always_dies_fails_bounded(self):
        database = build_db(build_rows(13))
        pool = FlakyPool(0, every=True, order="fifo")
        with pytest.raises(MiningError) as excinfo:
            fpclose_sharded(database, MIN_SUPPORT, n_workers=4, pool=pool)
        message = str(excinfo.value)
        assert "\n" not in message
        assert "mine:0-0" in message
        assert f"{MAX_NODE_ATTEMPTS} attempts" in message
        assert pool.counters["worker_replacements"] == MAX_NODE_ATTEMPTS

    def test_real_pool_worker_death(self, tmp_path, monkeypatch):
        database = build_db(build_rows(21))
        expected = serial_truth(database)
        marker = tmp_path / "killed"
        monkeypatch.setenv(KILL_ENV, f"mine:2-2|{marker}")
        with MiningPool(2, width=4) as pool:
            got = fpclose_sharded(
                database, MIN_SUPPORT, n_workers=4, pool=pool
            )
        assert got == expected
        assert marker.exists()
        assert pool.counters["worker_replacements"] >= 1
