"""Sharded closed-itemset mining across worker processes.

:func:`fpclose_sharded` is a drop-in replacement for
:func:`repro.mining.fpclose.fpclose` that partitions the transaction
database (via a shard plan from :mod:`repro.parallel.sharding`), mines
each shard in a worker process, and merges the results exactly
(:mod:`repro.parallel.merge`). The returned list is byte-identical to
the single-process miner's output after canonical ordering — the
differential harness in ``tests/parallel`` enforces this.

Scheduling is **dependency-driven dataflow**, not level-synchronous
rounds: every merge-tree node is submitted the moment its inputs exist
(futures plus completion callbacks feeding an event queue), so a slow
shard delays only its own ancestors while the rest of the tree keeps
mining. On pools that can run at least two tasks at once the tree runs
all the way to a single top node for full mines, and that node also
performs the root's closure/dedup pass (the exact
:func:`~repro.parallel.merge.merge_shard_itemsets` code over the full
database the task carries), so the parent merely receives the
already-closed, canonically ordered list. Narrow pools still coalesce
sibling shards into ``max(2, pool_size)`` directly-mined regions —
decomposing further than the pool can run concurrently weakens the
pigeonhole thresholds without buying parallelism (the root cause of
the old 4-worker regression) — and a serial pool keeps the classic
parent-side root merge. Every shape, every completion order, and warm
vs cold pools yield the same bytes; the adversarial executor stub in
``tests/parallel/test_dataflow.py`` drives worst-case orders.

Every task carries the rows it needs; workers of a
:class:`repro.parallel.pool.MiningPool` keep nothing between tasks.
The incremental engine's delta re-mine does not come through here: it
always runs :func:`repro.mining.fpclose.fpclose` in-process.
"""

from __future__ import annotations

import os
import queue
import time
from collections.abc import Sequence
from concurrent.futures.process import BrokenProcessPool

from repro.errors import ConfigError, MiningError
from repro.mining.bitsets import SupportOracle
from repro.mining.transactions import FrequentItemset, TransactionDatabase
from repro.obs.metrics import get_registry
from repro.parallel.merge import merge_shard_itemsets
from repro.parallel.pool import MiningPool, run_node
from repro.parallel.sharding import ShardPlan, round_robin_shards, validate_plan
from repro.parallel.worker import local_threshold, mine_shard

#: Hard ceiling on a worker request. The process count is capped at the
#: core count anyway; values beyond this are configuration mistakes
#: (they would explode the shard plan and the pool), reported
#: as a one-line ConfigError instead of an absurd fork storm.
MAX_WORKERS = 512

#: Seconds the dataflow driver waits for *any* task completion before
#: declaring the pool stalled. Generous: a single node is one shard
#: mine or one pair merge, orders of magnitude below this.
_STALL_TIMEOUT = 600.0

#: Submissions a node gets before the mine fails. A node is resubmitted
#: only after its worker died; one that kills every worker it reaches
#: would otherwise be recovered and resubmitted forever.
MAX_NODE_ATTEMPTS = 3


def resolve_workers(n_workers: int) -> int:
    """Resolve a worker request (``0`` means one per core).

    The request is NOT clamped to the core count: it determines the
    shard *plan*, which must be a pure function of (dataset, n_workers,
    strategy) so the same invocation means the same shards on every
    machine. Only the process-pool size is capped by the cores, inside
    :func:`fpclose_sharded` — the merged result is independent of how
    shards map onto processes. Requests outside ``[0, MAX_WORKERS]``
    are rejected with a one-line :class:`~repro.errors.ConfigError`.
    """
    if n_workers < 0:
        raise ConfigError(f"n_workers must be >= 0, got {n_workers}")
    if n_workers > MAX_WORKERS:
        raise ConfigError(
            f"n_workers must be <= {MAX_WORKERS}, got {n_workers} "
            "(use 0 for one worker per core)"
        )
    return n_workers if n_workers else (os.cpu_count() or 1)


def fpclose_sharded(
    database: TransactionDatabase,
    min_support: int,
    *,
    max_len: int | None = None,
    n_workers: int,
    plan: Sequence[Sequence[int]] | None = None,
    oracle: SupportOracle | None = None,
    pool: MiningPool | None = None,
) -> list[FrequentItemset]:
    """Mine the global closed frequent itemsets via sharded workers.

    ``plan`` is a covering, disjoint partition of tids (see
    :func:`repro.parallel.sharding.plan_shards`); when omitted, a
    round-robin partition into ``n_workers`` shards is used. A
    caller-owned :class:`~repro.parallel.pool.MiningPool` is used
    as-is and never shut down here.
    """
    registry = get_registry()
    n_transactions = len(database)
    if plan is None:
        shards: ShardPlan = round_robin_shards(n_transactions, n_workers)
    else:
        shards = validate_plan(plan, n_transactions)
    leaves = [(index, tuple(shard)) for index, shard in enumerate(shards) if shard]
    if not leaves:
        return []
    leaf_rows = shard_rows(database, [tids for _index, tids in leaves])

    if n_workers <= 1 or len(leaves) == 1:
        return _mine_serial(
            database,
            min_support,
            max_len,
            oracle,
            leaves,
            leaf_rows,
            registry,
        )

    registry.counter("parallel.shards").inc(len(leaves))

    owned = pool is None
    if pool is None:
        pool_size = max(1, min(n_workers, len(leaves), os.cpu_count() or 1))
        pool = MiningPool(pool_size, width=pool_size)
    else:
        pool_size = max(1, min(n_workers, len(leaves), pool.width))
    try:
        run = _ShardedMine(
            database=database,
            min_support=min_support,
            max_len=max_len,
            oracle=oracle,
            leaves=leaves,
            leaf_rows=leaf_rows,
            pool=pool,
            pool_size=pool_size,
            registry=registry,
        )
        run.build_graph()
        return run.execute()
    finally:
        if owned:
            pool.shutdown()


def shard_rows(
    database: TransactionDatabase, shards: Sequence[Sequence[int]]
) -> list[tuple[tuple[int, ...], ...]]:
    """Each shard's rows as sorted item tuples, in tid order.

    These are the rows both the in-process path and the worker tasks
    mine over.
    """
    return [
        tuple(tuple(sorted(database[tid])) for tid in tids) for tids in shards
    ]


def _mine_serial(
    database,
    min_support,
    max_len,
    oracle,
    leaves,
    leaf_rows,
    registry,
):
    """The in-process path (``n_workers <= 1`` or a single shard)."""
    n_transactions = len(database)
    mined = []
    for (index, shard), rows in zip(leaves, leaf_rows):
        if not rows:
            continue
        threshold = local_threshold(min_support, len(shard), n_transactions)
        mined.append((index, threshold, rows))
    if not mined:
        return []
    registry.counter("parallel.shards").inc(len(mined))
    n_items = len(database.catalog)
    with registry.timer("parallel.local_mine"):
        shard_results = [
            mine_shard(index, rows, n_items, threshold, max_len)
            for index, threshold, rows in mined
        ]
    _emit_shards(registry, shard_results)
    region_outputs = [result[4] for result in shard_results]
    return _root_merge(
        region_outputs,
        database,
        min_support,
        max_len,
        oracle,
        len(mined),
        registry,
    )


def _root_merge(
    region_outputs,
    database,
    min_support,
    max_len,
    oracle,
    n_shards,
    registry,
):
    with registry.timer("parallel.merge"):
        started = time.perf_counter()
        merged = merge_shard_itemsets(
            region_outputs,
            database,
            min_support,
            max_len=max_len,
            oracle=oracle,
        )
        registry.emit(
            "parallel.merge",
            n_shards=n_shards,
            n_regions=len(region_outputs),
            n_closed=len(merged),
            seconds=round(time.perf_counter() - started, 6),
        )
    return merged


class _Node:
    """One merge-tree node: a region mine, a pair merge, or the finalize."""

    __slots__ = (
        "nid",
        "kind",
        "groups",
        "index",
        "size",
        "threshold",
        "left",
        "right",
        "parent",
        "pending",
        "region_payload",
        "result",
        "label",
        "attempts",
        "queue_depth",
        "submitted_at",
        "worker_seconds",
    )

    def __init__(self, nid, kind, groups, index, size, threshold, label):
        self.nid = nid
        self.kind = kind
        self.groups = groups
        self.index = index
        self.size = size
        self.threshold = threshold
        self.left = None
        self.right = None
        self.parent = None
        self.pending = 0
        self.region_payload = None
        self.result = None
        self.label = label
        self.attempts = 0
        self.queue_depth = 0
        self.submitted_at = 0.0
        self.worker_seconds = 0.0


class _ShardedMine:
    """One dataflow-scheduled sharded mine over a :class:`MiningPool`."""

    def __init__(
        self,
        *,
        database,
        min_support,
        max_len,
        oracle,
        leaves,
        leaf_rows,
        pool,
        pool_size,
        registry,
    ):
        self.database = database
        self.min_support = min_support
        self.max_len = max_len
        self.oracle = oracle
        self.leaves = leaves
        self.leaf_rows = leaf_rows
        self.pool = pool
        self.pool_size = pool_size
        self.registry = registry
        self.n_items = len(database.catalog)
        self.n_transactions = len(database)
        self.nodes: list[_Node] = []
        self.mine_nodes: list[_Node] = []
        self.roots: list[_Node] = []
        self.final_node: _Node | None = None
        self.events: queue.SimpleQueue = queue.SimpleQueue()
        self.inflight = 0
        self.unfinished = 0
        self.started_at = 0.0

    # -- graph construction -------------------------------------------

    def build_graph(self) -> None:
        leaves = self.leaves
        if self.pool_size >= len(leaves) or len(leaves) < 4:
            groups = [[pos] for pos in range(len(leaves))]
        else:
            # Narrow pool: coalesce siblings into directly-mined
            # regions so leaf thresholds are not weakened beyond what
            # the pool can exploit concurrently.
            n_regions = max(2, self.pool_size)
            group_size = -(-len(leaves) // n_regions)
            groups = [
                list(range(start, min(start + group_size, len(leaves))))
                for start in range(0, len(leaves), group_size)
            ]

        def spans(positions):
            first = self.leaves[positions[0]][0]
            last = self.leaves[positions[-1]][0]
            return f"{first}-{last}"

        current: list[_Node] = []
        for ordinal, positions in enumerate(groups):
            size = sum(len(self.leaves[pos][1]) for pos in positions)
            node = _Node(
                nid=len(self.nodes),
                kind="mine",
                groups=(tuple(positions),),
                index=ordinal,
                size=size,
                threshold=local_threshold(
                    self.min_support, size, self.n_transactions
                ),
                label=f"mine:{spans(positions)}",
            )
            self.nodes.append(node)
            self.mine_nodes.append(node)
            current.append(node)

        # The tree collapses to a single finalize node, which also runs
        # the root's closure pass (closure pushdown).
        if self.pool_size >= 2:
            while len(current) > 1:
                merged_level: list[_Node] = []
                for k in range(0, len(current) - 1, 2):
                    left, right = current[k], current[k + 1]
                    positions = tuple(left.groups[-1] + right.groups[-1])
                    size = left.size + right.size
                    kind = "finalize" if len(current) == 2 else "pair"
                    threshold = (
                        self.min_support
                        if kind == "finalize"
                        else local_threshold(
                            self.min_support, size, self.n_transactions
                        )
                    )
                    left_positions = tuple(
                        pos for group in left.groups for pos in group
                    )
                    right_positions = tuple(
                        pos for group in right.groups for pos in group
                    )
                    node = _Node(
                        nid=len(self.nodes),
                        kind=kind,
                        groups=(left_positions, right_positions),
                        index=len(self.nodes),
                        size=size,
                        threshold=threshold,
                        label=f"{kind}:{spans(left_positions + right_positions)}",
                    )
                    node.left = left
                    node.right = right
                    node.pending = 2
                    left.parent = node
                    right.parent = node
                    self.nodes.append(node)
                    merged_level.append(node)
                if len(current) % 2:
                    merged_level.append(current[-1])
                current = merged_level
        self.roots = current
        if len(self.roots) == 1 and self.roots[0].kind == "finalize":
            self.final_node = self.roots[0]
        self.unfinished = len(self.nodes)

    # -- task construction --------------------------------------------

    def _build_task(self, node: _Node) -> dict:
        task = {
            "kind": node.kind,
            "label": node.label,
            "rows": tuple(
                tuple(row for pos in positions for row in self.leaf_rows[pos])
                for positions in node.groups
            ),
            "n_items": self.n_items,
            "max_len": self.max_len,
            "threshold": node.threshold,
            "index": node.index,
        }
        if node.kind != "mine":
            task["left_payload"] = node.left.region_payload
            task["right_payload"] = node.right.region_payload
            task["left_threshold"] = node.left.threshold
            task["right_threshold"] = node.right.threshold
        return task

    # -- driver --------------------------------------------------------

    def _submit(self, node: _Node) -> None:
        node.attempts += 1
        node.queue_depth = self.inflight
        node.submitted_at = time.perf_counter()
        task = self._build_task(node)
        future = self.pool.submit(run_node, task)
        self.inflight += 1
        future.add_done_callback(
            lambda f, nid=node.nid: self.events.put((nid, f))
        )

    def execute(self) -> list[FrequentItemset]:
        registry = self.registry
        replacements_before = self.pool.counters["worker_replacements"]
        self.started_at = time.perf_counter()
        with registry.timer("parallel.dataflow"):
            for node in self.mine_nodes:
                self._submit(node)
            while self.unfinished:
                try:
                    nid, future = self.pool.wait_event(
                        self.events, timeout=_STALL_TIMEOUT
                    )
                except queue.Empty:
                    raise MiningError(
                        "mining pool stalled: no task completed within "
                        f"{_STALL_TIMEOUT:.0f}s"
                    ) from None
                self.inflight -= 1
                node = self.nodes[nid]
                try:
                    payload = future.result()
                except BrokenProcessPool:
                    # A dead worker broke the whole pool; every
                    # in-flight future fails with this. Rebuild once
                    # (generation-guarded) and resubmit each failed
                    # node unchanged — tasks are pure.
                    self.pool.recover(
                        getattr(future, "generation", self.pool.generation)
                    )
                    if node.attempts >= MAX_NODE_ATTEMPTS:
                        raise MiningError(
                            f"mining node {node.label} failed after "
                            f"{node.attempts} attempts: its worker died "
                            "each time"
                        ) from None
                    self._submit(node)
                    continue
                self._complete(node, payload)
        replacements = self.pool.counters["worker_replacements"] - replacements_before
        if replacements:
            registry.counter("parallel.pool.worker_replacements").inc(replacements)
        return self._assemble()

    def _complete(self, node: _Node, payload) -> None:
        registry = self.registry
        if node.kind == "mine":
            _index, size, threshold, seconds, itemsets = payload
            node.region_payload = itemsets
            node.worker_seconds = seconds
            n_out = len(itemsets)
            registry.counter("parallel.local_itemsets").inc(n_out)
            if len(node.groups[0]) == 1:
                registry.emit(
                    "parallel.shard",
                    shard=self.leaves[node.groups[0][0]][0],
                    n_transactions=size,
                    local_threshold=threshold,
                    n_local_itemsets=n_out,
                    seconds=round(seconds, 6),
                )
            else:
                registry.emit(
                    "parallel.region",
                    region=node.index,
                    shards=[self.leaves[pos][0] for pos in node.groups[0]],
                    n_transactions=size,
                    region_threshold=threshold,
                    n_survivors=n_out,
                    seconds=round(seconds, 6),
                )
        elif node.kind == "pair":
            survivors, stats, seconds = payload
            node.region_payload = survivors
            node.worker_seconds = seconds
            n_out = len(survivors)
            _emit_region(registry, node.index, stats, n_out, seconds=seconds)
        else:
            closed, warm_entries, stats, merge_counters, seconds = payload
            node.result = (closed, warm_entries)
            node.worker_seconds = seconds
            n_out = len(closed)
            _emit_region(registry, node.index, stats, stats["survivors"])
            for name, value in merge_counters.items():
                registry.counter(name).inc(value)
            registry.emit(
                "parallel.merge",
                n_shards=len(self.leaves),
                n_regions=2,
                n_closed=n_out,
                seconds=round(seconds, 6),
            )
        now = time.perf_counter()
        registry.emit(
            "parallel.node",
            node=node.label,
            kind=node.kind,
            queue_depth=node.queue_depth,
            attempts=node.attempts,
            t_submit=round(node.submitted_at - self.started_at, 6),
            t_done=round(now - self.started_at, 6),
            wait_seconds=round(now - node.submitted_at, 6),
            seconds=round(node.worker_seconds, 6),
            n_out=n_out,
        )
        self.unfinished -= 1
        parent = node.parent
        if parent is not None:
            parent.pending -= 1
            if parent.pending == 0:
                self._submit(parent)

    def _assemble(self) -> list[FrequentItemset]:
        if self.final_node is not None:
            closed, warm_entries = self.final_node.result
            if self.oracle is not None:
                for items, support in warm_entries:
                    self.oracle.warm(frozenset(items), support)
            return closed
        region_outputs = [node.region_payload for node in self.roots]
        return _root_merge(
            region_outputs,
            self.database,
            self.min_support,
            self.max_len,
            self.oracle,
            len(self.leaves),
            self.registry,
        )


def _emit_shards(registry, shard_results) -> None:
    for index, shard_size, threshold, seconds, itemsets in shard_results:
        registry.counter("parallel.local_itemsets").inc(len(itemsets))
        registry.emit(
            "parallel.shard",
            shard=index,
            n_transactions=shard_size,
            local_threshold=threshold,
            n_local_itemsets=len(itemsets),
            seconds=round(seconds, 6),
        )


def _emit_region(
    registry, region_index: int, stats, n_survivors: int, *, seconds=None
) -> None:
    if stats is not None:
        registry.counter("parallel.pair.candidates").inc(stats["candidates"])
        registry.counter("parallel.pair.summed").inc(stats["summed"])
        registry.counter("parallel.pair.reintersections").inc(
            stats["reintersections"]
        )
        registry.counter("parallel.pair.pruned_dead").inc(stats["pruned_dead"])
        registry.counter("parallel.pair.bound_kills").inc(stats["bound_kills"])
    fields = {"region": region_index, "n_survivors": n_survivors}
    if stats is not None:
        fields.update(stats)
    if seconds is not None:
        fields["seconds"] = round(seconds, 6)
    registry.emit("parallel.region", **fields)
