"""Mining pool: the process substrate of the dataflow miner.

:class:`MiningPool` is the process-pool substrate of the dataflow
scheduler in :mod:`repro.parallel.miner`. A caller may pass one pool
to several mines; ``fpclose_sharded`` otherwise spawns one per mine
and shuts it down afterwards.

Workers hold no state between tasks. Every task carries the rows it
needs — a leaf's rows for a mine node, both children's rows for a pair
node, the whole database for the finalize node. Any worker can run any
task, so there is nothing for a task to miss.

A dead worker breaks the whole stdlib pool (``BrokenProcessPool``);
:meth:`MiningPool.recover` replaces the executor wholesale, and the
scheduler resubmits the failed tasks unchanged — they are pure.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.mining.transactions import MiningCatalog, TransactionDatabase
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.parallel.merge import merge_pair, merge_shard_itemsets
from repro.parallel.worker import mine_shard

#: Environment hook for the worker-death harness: ``"<node label>|<marker
#: path>"`` makes the worker that picks up that node die once (creating
#: the marker first so the resubmitted task survives).
KILL_ENV = "MEDIAR_POOL_KILL_NODE"


class WarmCollector:
    """Records ``oracle.warm`` calls so a worker can return them.

    The finalize node runs the root closure pass inside a worker where
    the caller's :class:`~repro.mining.bitsets.SupportOracle` does not
    exist; this stand-in collects every ``(items, support)`` pair so
    the parent can replay them into the real oracle.
    """

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: list[tuple[tuple[int, ...], int]] = []

    def warm(self, items, support: int) -> None:
        self.entries.append((tuple(sorted(items)), support))


def _maybe_die(label: str) -> None:
    target = os.environ.get(KILL_ENV)
    if not target:
        return
    node, _, marker = target.partition("|")
    if node != label or not marker or os.path.exists(marker):
        return
    with open(marker, "w", encoding="utf-8") as handle:
        handle.write(label)
    os._exit(1)


def run_node(task: dict):
    """Execute one merge-tree node inside a worker process.

    ``task["rows"]`` holds one row tuple per input group: the region's
    rows for a ``mine`` node, the left and right children's rows for a
    ``pair`` or ``finalize`` node.
    """
    started = time.perf_counter()
    _maybe_die(task["label"])
    kind = task["kind"]
    if kind == "mine":
        return mine_shard(
            task["index"],
            task["rows"][0],
            task["n_items"],
            task["threshold"],
            task["max_len"],
        )
    left_rows, right_rows = task["rows"]
    survivors, stats = merge_pair(
        task["left_payload"],
        task["right_payload"],
        left_rows,
        right_rows,
        task["left_threshold"],
        task["right_threshold"],
        task["threshold"],
    )
    if kind == "pair":
        return survivors, stats, time.perf_counter() - started
    # finalize: the root's closure/dedup pass, pushed down into the top
    # tree node. Runs the exact root-merge code over the full database
    # the task carries, so the parent's "merge" is just receiving the
    # already-closed list.
    database = TransactionDatabase(
        left_rows + right_rows, MiningCatalog(task["n_items"])
    )
    collector = WarmCollector()
    local_registry = MetricsRegistry()
    with use_registry(local_registry):
        closed = merge_shard_itemsets(
            [survivors],
            database,
            task["threshold"],
            max_len=task["max_len"],
            oracle=collector,
        )
    counters = {
        name: value
        for name, value in local_registry.snapshot().counters.items()
        if name.startswith("parallel.merge.")
    }
    return (
        closed,
        collector.entries,
        stats,
        counters,
        time.perf_counter() - started,
    )


class MiningPool:
    """A reusable process pool for the dataflow miner.

    Parameters
    ----------
    max_workers:
        Requested parallelism. The actual process count is capped at
        the machine's core count (shard *plans* are a function of the
        request, never of the cap, so results do not depend on it).
    width:
        Scheduling width override for tests: how many tasks the
        dataflow scheduler may assume can run concurrently. Defaults
        to the capped process count.

    The pool is NOT thread-safe: all methods must be called from the
    scheduler's driver thread. Completion callbacks installed by the
    scheduler only enqueue events.
    """

    def __init__(self, max_workers: int, *, width: int | None = None) -> None:
        requested = max(1, int(max_workers))
        self._processes = min(requested, os.cpu_count() or 1)
        self.width = width if width is not None else self._processes
        self.generation = 0
        self._executor = None
        self.counters = {"worker_replacements": 0}

    # -- executor lifecycle -------------------------------------------

    @property
    def executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self._processes)
        return self._executor

    def recover(self, generation: int) -> None:
        """Replace a broken executor.

        Generation-guarded so one failure wave (every in-flight future
        of a broken pool fails at once) rebuilds exactly once.
        """
        if generation != self.generation:
            return
        self.generation += 1
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
        self.counters["worker_replacements"] += 1

    def submit(self, fn, task):
        try:
            future = self.executor.submit(fn, task)
        except BrokenProcessPool:
            self.recover(self.generation)
            future = self.executor.submit(fn, task)
        future.generation = self.generation
        return future

    def wait_event(self, events, timeout: float | None = None):
        """Block for the next completion event (overridden by stubs)."""
        return events.get(timeout=timeout)

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
        self._executor = None

    def __enter__(self) -> "MiningPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
