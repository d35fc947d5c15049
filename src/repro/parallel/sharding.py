"""Deterministic partitioning of a report dataset into mining shards.

The sharded miner (:mod:`repro.parallel.miner`) splits the *data*, not
the search space: each worker process mines one subset of the encoded
transactions and the per-shard results merge tree-wise (pair nodes
inside workers, or coalesced regions on narrow pools) back into the
exact global answer. The partition therefore only has to be

- **covering and disjoint** — every transaction lands in exactly one
  shard (the merge proof in :mod:`repro.parallel.merge` relies on it);
- **deterministic across processes and runs** — shard membership must
  not depend on ``PYTHONHASHSEED``, dict order, or input shuffling,
  because the differential harness asserts byte-identical results.

Two strategies, selectable via ``MarasConfig(shard_strategy=...)``:

``"hash"``
    Shard by a stable content hash of the report's case id (first eight
    bytes of its SHA-256, mod ``n_shards``). Balances load for any
    number of workers and keeps every version of a case in the same
    shard.
``"quarter"``
    One shard per distinct quarter label, in sorted quarter order — the
    natural unit for FAERS-style multi-quarter datasets, where each
    worker mines one quarterly extract.

For bare :class:`~repro.mining.transactions.TransactionDatabase` inputs
with no report linkage, :func:`round_robin_shards` partitions by
``tid % n_shards``.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence

from repro.errors import ConfigError
from repro.faers.dataset import ReportDataset

HASH_STRATEGY = "hash"
QUARTER_STRATEGY = "quarter"
SHARD_STRATEGIES = (HASH_STRATEGY, QUARTER_STRATEGY)

#: A shard plan: per shard, the ascending tids it owns.
ShardPlan = tuple[tuple[int, ...], ...]


def shard_of_case(case_id: str, n_shards: int) -> int:
    """The stable shard index of one case id.

    Uses the first eight bytes of SHA-256 — stable across processes,
    Python versions, and ``PYTHONHASHSEED`` — unlike builtin ``hash``,
    which is salted per interpreter.
    """
    if n_shards < 1:
        raise ConfigError(f"n_shards must be >= 1, got {n_shards}")
    digest = hashlib.sha256(case_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % n_shards


def plan_shards(
    dataset: ReportDataset, n_shards: int, strategy: str = HASH_STRATEGY
) -> ShardPlan:
    """Partition a dataset's tids into mining shards.

    Transaction id ``t`` of the encoded database is the index of the
    ``t``-th report (``ReportDataset.encode`` preserves order), so the
    plan computed here applies directly to the encoded transactions.
    Empty shards are dropped; the remaining shards cover every tid
    exactly once.
    """
    if n_shards < 1:
        raise ConfigError(f"n_shards must be >= 1, got {n_shards}")
    if strategy == HASH_STRATEGY:
        buckets: list[list[int]] = [[] for _ in range(n_shards)]
        for tid, report in enumerate(dataset):
            buckets[shard_of_case(report.case_id, n_shards)].append(tid)
    elif strategy == QUARTER_STRATEGY:
        by_quarter: dict[str, list[int]] = {}
        for tid, report in enumerate(dataset):
            by_quarter.setdefault(report.quarter, []).append(tid)
        buckets = [by_quarter[quarter] for quarter in sorted(by_quarter)]
    else:
        raise ConfigError(
            f"unknown shard strategy {strategy!r}; choose from {SHARD_STRATEGIES}"
        )
    return tuple(tuple(bucket) for bucket in buckets if bucket)


def round_robin_shards(n_transactions: int, n_shards: int) -> ShardPlan:
    """``tid % n_shards`` partition for inputs without report linkage."""
    if n_shards < 1:
        raise ConfigError(f"n_shards must be >= 1, got {n_shards}")
    buckets: list[list[int]] = [[] for _ in range(n_shards)]
    for tid in range(n_transactions):
        buckets[tid % n_shards].append(tid)
    return tuple(tuple(bucket) for bucket in buckets if bucket)


def validate_plan(plan: Sequence[Sequence[int]], n_transactions: int) -> ShardPlan:
    """Check a caller-supplied plan is a covering, disjoint partition."""
    seen: set[int] = set()
    total = 0
    for shard in plan:
        for tid in shard:
            if not 0 <= tid < n_transactions:
                raise ConfigError(
                    f"shard plan references tid {tid} outside database of "
                    f"size {n_transactions}"
                )
        total += len(shard)
        seen.update(shard)
    if len(seen) != total:
        raise ConfigError("shard plan assigns at least one tid to two shards")
    if len(seen) != n_transactions:
        raise ConfigError(
            f"shard plan covers {len(seen)} of {n_transactions} transactions; "
            "the merge is only exact over a full partition"
        )
    return tuple(tuple(shard) for shard in plan if len(shard))
