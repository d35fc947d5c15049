"""Exact merges of per-region frequent itemsets, pair-wise and at the root.

Two layers implement the merge tree:

- :func:`merge_pair` — an internal tree node. It combines two sibling
  regions' locally frequent itemsets into the parent region's, working
  entirely in *region-local* bitmask space (masks as wide as the region,
  not the database). Regions are disjoint, so a candidate present in
  **both** children gets its exact region support by summation — no mask
  work at all. One-sided candidates are first attacked with the
  pigeonhole bound (the missing side contributes at most
  ``local_threshold - 1``) and only survivors of that bound pay a
  narrow-mask intersection for the missing side's exact count.
- :func:`merge_shard_itemsets` — the root. It recomputes exact *global*
  supports, discards the globally infrequent, and collapses survivors to
  their closures, producing byte-for-byte the same list as running
  ``fpclose`` on the whole database. Candidates present in **every**
  region list are summed exactly like at a pair node; the rest run a
  layered DP over :class:`~repro.mining.bitsets.ChunkedItemMasks` —
  sparse fixed-width block masks whose intersection cost tracks itemset
  density instead of database width, with dense items stored as
  diffsets.

The DP processes candidates in ``(len, sorted items)`` order so
``mask(X) = mask(X - {max X}) & item_mask(max X)`` reuses the parent's
tidset, and an infrequent parent kills all recorded supersets without
touching their masks (``sup`` is antitone, so the pruning is exact).
Parents absent from the candidate union are recomputed from scratch
**and recorded** — their mask when frequent, their death otherwise — so
sibling supersets never repeat the full-width intersection.

Closure dedup is free: two itemsets share a closure iff they share a
tidset (Galois connection ``tid(closure(Y)) = tid(Y)``), so grouping by
tidset yields exactly one representative per distinct closed set. Each
closure is materialised by whichever direction is cheaper — intersecting
the ``sup`` supporting transactions when ``sup`` is small, else scanning
the support-descending item prefix that can still admit a superset
tidset (found by bisection, tested with early-exit block containment).

Exactness contract: ``shard_outputs`` must be the per-region outputs of
a *disjoint, covering* partition of the database (zero-row regions may
be dropped; empty outputs from non-empty regions must be passed
through), each itemset tagged with its exact support within its region.
The summation shortcut relies on both properties.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Sequence

from repro.mining.bitsets import (
    ChunkedItemMasks,
    ChunkedMask,
    SupportOracle,
    chunk_popcount,
    chunk_tids,
)
from repro.mining.transactions import FrequentItemset, TransactionDatabase
from repro.obs.metrics import get_registry

#: Below this support, closures intersect transactions; above, scan items.
_CLOSURE_SCAN_CUTOFF = 48

#: ``(sorted_items_tuple, support)`` pairs, as produced by the workers.
ItemsetPayload = Sequence[tuple[tuple[int, ...], int]]


def _group_key(blocks: ChunkedMask) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(blocks.items()))


def merge_shard_itemsets(
    shard_outputs: Iterable[ItemsetPayload],
    database: TransactionDatabase,
    min_support: int,
    *,
    max_len: int | None = None,
    oracle: SupportOracle | None = None,
) -> list[FrequentItemset]:
    """Merge per-region frequent itemsets into the global closed set.

    Returns the closed frequent itemsets of ``database`` at
    ``min_support`` in canonical ``sorted(items)`` order. When an
    ``oracle`` is given, every exact support computed here is warmed
    into its memo cache so downstream rule/cluster construction never
    re-intersects these tidsets.
    """
    registry = get_registry()
    table = ChunkedItemMasks(
        database.item_masks(), database.item_supports(), len(database)
    )

    # candidate -> [number of region lists containing it, support sum].
    # A candidate present in *every* region list has exact global support
    # = the sum (regions partition the database); missing from any list
    # means that region's count is unknown (< its local threshold, not 0).
    outputs = list(shard_outputs)
    n_lists = len(outputs)
    stats: dict[tuple[int, ...], list[int]] = {}
    for output in outputs:
        for items, local_support in output:
            key = tuple(sorted(items))
            record = stats.get(key)
            if record is None:
                stats[key] = [1, local_support]
            else:
                record[0] += 1
                record[1] += local_support
    registry.counter("parallel.merge.candidates").inc(len(stats))

    ordered = sorted(stats, key=lambda t: (len(t), t))
    prev_layer: dict[tuple[int, ...], ChunkedMask] = {}
    cur_layer: dict[tuple[int, ...], ChunkedMask] = {}
    dead_prev: set[tuple[int, ...]] = set()
    dead_cur: set[tuple[int, ...]] = set()
    cur_size = 1
    groups: dict[tuple, tuple[ChunkedMask, int]] = {}
    summed = reintersections = pruned_dead = 0
    for items in ordered:
        size = len(items)
        if size != cur_size:
            prev_layer, cur_layer = cur_layer, {}
            dead_prev, dead_cur = dead_cur, set()
            cur_size = size
        if size > 1:
            parent = items[:-1]
            if parent in dead_prev:
                dead_cur.add(items)
                pruned_dead += 1
                continue
        present, total = stats[items]
        known = total if present == n_lists else None
        if known is not None and known < min_support:
            # Exact by summation and infrequent: killed without mask work.
            dead_cur.add(items)
            summed += 1
            continue
        if size == 1:
            blocks = table.positive(items[0])
        else:
            parent_blocks = prev_layer.get(parent)
            if parent_blocks is None:
                # Parent absent from the candidate union (region outputs
                # are downward closed, but an arbitrary caller's union
                # need not be). Recompute it from scratch — and record
                # its fate either way, so sibling supersets are pruned
                # or reuse the mask instead of repeating this.
                parent_blocks = table.positive(parent[0])
                for item in parent[1:]:
                    if not parent_blocks:
                        break
                    parent_blocks = table.and_item(parent_blocks, item)
                reintersections += 1
                if chunk_popcount(parent_blocks) < min_support:
                    dead_prev.add(parent)
                    dead_cur.add(items)
                    pruned_dead += 1
                    continue
                prev_layer[parent] = parent_blocks
            blocks = table.and_item(parent_blocks, items[-1])
        if known is not None:
            support = known
            summed += 1
        else:
            support = chunk_popcount(blocks)
            reintersections += 1
        if support >= min_support:
            cur_layer[items] = blocks
            groups[_group_key(blocks)] = (blocks, support)
            if oracle is not None:
                oracle.warm(frozenset(items), support)
        else:
            dead_cur.add(items)
    registry.counter("parallel.merge.globally_frequent").inc(len(groups))
    registry.counter("parallel.merge.summed").inc(summed)
    registry.counter("parallel.merge.reintersections").inc(reintersections)
    registry.counter("parallel.merge.pruned_dead").inc(pruned_dead)

    by_support, neg_supports = table.items_by_support()
    covers = table.covers
    transactions: list | None = None
    results: list[FrequentItemset] = []
    for blocks, support in groups.values():
        if support <= _CLOSURE_SCAN_CUTOFF:
            if transactions is None:
                transactions = list(database)
            closed: set[int] | None = None
            for tid in chunk_tids(blocks):
                row = transactions[tid]
                closed = set(row) if closed is None else (closed & row)
                if not closed:
                    break
            closure = frozenset(closed) if closed else frozenset()
        else:
            # Only items at least as frequent as the group can contain
            # its tidset; they form a prefix of the support-descending
            # item order, found by bisection.
            stop = bisect_right(neg_supports, -support)
            closure = frozenset(
                item for item in by_support[:stop] if covers(item, blocks)
            )
        if not closure:
            continue
        if max_len is None or len(closure) <= max_len:
            if oracle is not None:
                oracle.warm(closure, support)
            results.append(FrequentItemset(closure, support))
    registry.counter("parallel.merge.reclosed").inc(len(results))

    results.sort(key=lambda fi: tuple(sorted(fi.items)))
    return results


#: Per-pair-merge statistics, returned alongside the survivors.
PairStats = dict[str, int]


def _row_item_masks(rows: Sequence[tuple[int, ...]]) -> dict[int, int]:
    """Region-local per-item bitmasks, one bit per local row."""
    masks: dict[int, int] = {}
    for tid, row in enumerate(rows):
        bit = 1 << tid
        for item in row:
            masks[item] = masks.get(item, 0) | bit
    return masks


def _side_mask(
    items: tuple[int, ...],
    prev_layer: dict[tuple[int, ...], int],
    masks: dict[int, int],
) -> int:
    """One side's region-local mask of ``items`` via the layered DP."""
    if len(items) == 1:
        return masks.get(items[0], 0)
    parent = items[:-1]
    parent_mask = prev_layer.get(parent)
    if parent_mask is None:
        parent_mask = -1
        for item in parent:
            parent_mask &= masks.get(item, 0)
            if not parent_mask:
                break
        prev_layer[parent] = parent_mask
    return parent_mask & masks.get(items[-1], 0)


def merge_pair(
    left_itemsets: ItemsetPayload,
    right_itemsets: ItemsetPayload,
    left_rows: Sequence[tuple[int, ...]],
    right_rows: Sequence[tuple[int, ...]],
    left_threshold: int,
    right_threshold: int,
    region_threshold: int,
) -> tuple[tuple[tuple[tuple[int, ...], int], ...], PairStats]:
    """Merge two sibling regions' locally frequent itemsets exactly.

    Returns the parent region's frequent itemsets at
    ``region_threshold`` — with exact region supports — plus counters.
    The two input lists must cover disjoint row sets whose union is the
    parent region, each itemset tagged with its exact support on its
    side; absence from a side certifies that side's support is below
    that side's ``*_threshold``.

    Candidates present on both sides are summed (regions are disjoint).
    One-sided candidates first face the pigeonhole bound — the missing
    side can contribute at most ``threshold - 1`` — and only when that
    could still reach ``region_threshold`` is the missing side's exact
    count computed, over *region-local* masks no wider than the side's
    row count. An infrequent parent kills recorded supersets outright.
    """
    candidates: dict[tuple[int, ...], list[int | None]] = {}
    for items, support in left_itemsets:
        candidates[items] = [support, None]
    for items, support in right_itemsets:
        record = candidates.get(items)
        if record is None:
            candidates[items] = [None, support]
        else:
            record[1] = support

    left_masks: dict[int, int] | None = None
    right_masks: dict[int, int] | None = None
    left_prev: dict[tuple[int, ...], int] = {}
    left_cur: dict[tuple[int, ...], int] = {}
    right_prev: dict[tuple[int, ...], int] = {}
    right_cur: dict[tuple[int, ...], int] = {}
    dead_prev: set[tuple[int, ...]] = set()
    dead_cur: set[tuple[int, ...]] = set()
    cur_size = 1
    summed = reintersections = pruned_dead = bound_kills = 0
    survivors: list[tuple[tuple[int, ...], int]] = []
    for items in sorted(candidates, key=lambda t: (len(t), t)):
        size = len(items)
        if size != cur_size:
            left_prev, left_cur = left_cur, {}
            right_prev, right_cur = right_cur, {}
            dead_prev, dead_cur = dead_cur, set()
            cur_size = size
        if size > 1 and items[:-1] in dead_prev:
            dead_cur.add(items)
            pruned_dead += 1
            continue
        left_support, right_support = candidates[items]
        if left_support is None:
            if right_support + left_threshold - 1 < region_threshold:
                dead_cur.add(items)
                bound_kills += 1
                continue
            if left_masks is None:
                left_masks = _row_item_masks(left_rows)
            mask = _side_mask(items, left_prev, left_masks)
            left_cur[items] = mask
            left_support = mask.bit_count()
            reintersections += 1
        elif right_support is None:
            if left_support + right_threshold - 1 < region_threshold:
                dead_cur.add(items)
                bound_kills += 1
                continue
            if right_masks is None:
                right_masks = _row_item_masks(right_rows)
            mask = _side_mask(items, right_prev, right_masks)
            right_cur[items] = mask
            right_support = mask.bit_count()
            reintersections += 1
        else:
            summed += 1
        total = left_support + right_support
        if total >= region_threshold:
            survivors.append((items, total))
        else:
            dead_cur.add(items)
    stats: PairStats = {
        "candidates": len(candidates),
        "summed": summed,
        "reintersections": reintersections,
        "pruned_dead": pruned_dead,
        "bound_kills": bound_kills,
        "survivors": len(survivors),
    }
    return tuple(survivors), stats
