"""Sharded multi-process mining with an exact deterministic merge.

Partition a dataset into shards (:mod:`~repro.parallel.sharding`), mine
all locally frequent itemsets per shard in worker processes
(:mod:`~repro.parallel.worker`), and merge them *tree-wise* into the
exact global closed set (:mod:`~repro.parallel.merge`). Scheduling is
dependency-driven dataflow (:mod:`~repro.parallel.miner`): each merge
node is submitted the moment its inputs complete, and the root's
closure/dedup pass runs inside the top tree node. Every task carries
the rows it needs, over a :class:`~repro.parallel.pool.MiningPool`.
The top-level entry point is
:func:`~repro.parallel.miner.fpclose_sharded`, threaded through
one-shot ``Maras.run`` via ``MarasConfig(n_workers=...)``. The
incremental engine does not use it: it always mines in-process.
"""

from repro.parallel.merge import merge_pair, merge_shard_itemsets
from repro.parallel.miner import MAX_WORKERS, fpclose_sharded, resolve_workers
from repro.parallel.pool import MiningPool
from repro.parallel.sharding import (
    HASH_STRATEGY,
    QUARTER_STRATEGY,
    SHARD_STRATEGIES,
    plan_shards,
    round_robin_shards,
    shard_of_case,
    validate_plan,
)
from repro.parallel.worker import local_threshold, mine_shard

__all__ = [
    "HASH_STRATEGY",
    "MAX_WORKERS",
    "MiningPool",
    "QUARTER_STRATEGY",
    "SHARD_STRATEGIES",
    "fpclose_sharded",
    "local_threshold",
    "merge_pair",
    "merge_shard_itemsets",
    "mine_shard",
    "plan_shards",
    "resolve_workers",
    "round_robin_shards",
    "shard_of_case",
    "validate_plan",
]
