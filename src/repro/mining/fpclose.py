"""Closed frequent itemset mining.

The paper's pipeline (§5.2) mines *closed* itemsets so that every
generated drug-ADR rule is a supported association (Lemma 3.4.2) and the
rule space collapses by orders of magnitude (Fig 5.1).

:func:`fpclose` is LCM ver. 2 (Uno, Kiyomi & Arimura, FIMI'04): a
prefix-preserving closure-extension search with *occurrence delivery*.
Each row is projected once onto the ranks of its frequent items, in
ascending support order. A search node holds a closed prefix, its tid
list and its core rank; one pass over the node's rows buckets every
tid under each rank above the core, so each bucket is an extension's
tidset and only items that actually co-occur with the prefix are
visited. A bucket's closure is the intersection of its rows, and the
branch is kept only if the closure adds no rank below the extension —
every closed itemset is enumerated exactly once, with no
duplicate-detection table.

:func:`fpclose_reference` is the original ``frozenset``-tidset search,
which re-scans every frequent item per closure. It is kept as the
equivalence oracle and the "before" series of the mining-scaling
benchmark.

Both keep the name ``fpclose`` lineage after the FP-Growth-based closed
mining the paper describes; the output contract is identical (all closed
frequent itemsets with their supports) and the test suite cross-checks
them against each other and against a brute-force closure filter over
Apriori/FP-Growth output.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.errors import ConfigError
from repro.mining.transactions import (
    FrequentItemset,
    Itemset,
    TransactionDatabase,
    resolve_min_support,
)
from repro.obs import get_registry


def touched_universe(
    database: TransactionDatabase, touched_mask: int
) -> frozenset[int]:
    """Union of the touched rows' items — the delta re-mine's universe.

    Every closed itemset whose tidset intersects ``touched_mask`` is
    contained in some touched row, hence in this union, so projecting
    rows onto it preserves every support the delta contract needs.
    :func:`fpclose` drops the items outside it before searching, and
    the sharded miner (:mod:`repro.parallel.miner`) projects every
    shard's rows onto it before they reach a worker.
    """
    tids = _mask_tids(touched_mask, len(database))
    return frozenset().union(*map(database.__getitem__, tids))


def _mask_tids(mask: int, n_transactions: int) -> list[int]:
    """The tids below ``n_transactions`` whose bit is set in ``mask``."""
    bits = bin(mask)[:1:-1][:n_transactions]  # least significant bit first
    tids = []
    tid = bits.find("1")
    while tid >= 0:
        tids.append(tid)
        tid = bits.find("1", tid + 1)
    return tids


def fpclose(
    database: TransactionDatabase,
    min_support: int | float = 1,
    *,
    max_len: int | None = None,
    touched_mask: int | None = None,
) -> list[FrequentItemset]:
    """Mine all closed frequent itemsets of ``database`` (occurrence delivery).

    Parameters
    ----------
    database:
        The transaction database to mine.
    min_support:
        Absolute count (``int >= 1``) or fraction (``float`` in (0, 1]).
    max_len:
        Optional cap on the cardinality of *emitted* closed itemsets.
        Because the search only ever grows itemsets, branches whose
        closure already exceeds the cap are pruned entirely; closed
        itemsets within the cap are unaffected.
    touched_mask:
        Optional transaction bitmask restricting the search to closed
        itemsets whose tidset intersects the mask. Branch tidsets only
        shrink along a DFS path, so a branch whose tidset is disjoint
        from ``touched_mask`` can never reach a touched transaction
        anywhere in its subtree and is skipped whole — this is what
        makes delta re-mining in :mod:`repro.incremental` cost
        proportional to the delta. ``None`` (the default) mines
        everything; ``0`` returns nothing.

    Returns
    -------
    list[FrequentItemset]
        Every closed itemset with support ≥ the threshold (the same set
        :func:`fpclose_reference` returns, enumeration order aside) —
        restricted, when ``touched_mask`` is given, to exactly those
        whose tidset intersects it. The empty itemset is never
        returned, even when no item is universal.

    Counters (flushed once per call): ``fpclose.rows_projected`` (rows
    projected onto item ranks: every row, or under ``touched_mask`` only
    the rows holding a frequent item of the touched universe),
    ``fpclose.branches`` (search nodes expanded),
    ``fpclose.closure_calls`` (closures computed),
    ``fpclose.closed_itemsets``, ``fpclose.delta_subtrees_skipped`` and
    ``fpclose.closure_item_checks`` — the item occurrences visited:
    every occurrence delivered into a bucket, plus one probe per
    closure item per row intersected when taking a bucket's closure.
    """
    threshold = resolve_min_support(min_support, len(database))
    if max_len is not None and max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    if touched_mask is not None and touched_mask < 0:
        raise ConfigError(f"touched_mask must be >= 0, got {touched_mask}")
    if touched_mask == 0:
        return []

    registry = get_registry()
    with registry.timer("fpclose"):
        n_transactions = len(database)
        supports = database.item_supports()
        frequent = [item for item, count in supports.items() if count >= threshold]
        touched = None
        if touched_mask is not None:
            touched = frozenset(_mask_tids(touched_mask, n_transactions))
            # A closed itemset whose tidset meets a touched row lies
            # inside that row, so items of no touched row never matter.
            universe = touched_universe(database, touched_mask)
            frequent = [item for item in frequent if item in universe]
        # Ascending support (ties by item id, for determinism): rare
        # items become cores first, so their small tidsets prune the
        # deepest subtrees before dense items multiply the branching.
        order = sorted(frequent, key=lambda item: (supports[item], item))
        if not order:
            return []
        rank_of = {item: r for r, item in enumerate(order)}
        rank = rank_of.__getitem__
        # Each row projected onto the ascending ranks of its frequent
        # items, so bisect finds the ranks above a core.
        if touched is None:
            rows: list[list[int]] = [
                sorted(map(rank, rank_of.keys() & transaction))
                for transaction in database
            ]
            n_projected = n_transactions
        else:
            # Only rows holding a frequent item of the touched universe
            # can reach a bucket; the rest keep the (shared, never
            # mutated) empty projection.
            masks = database.item_masks()
            reached = 0
            for item in order:
                reached |= masks[item]
            reached_tids = _mask_tids(reached, n_transactions)
            rows = [[]] * n_transactions
            for tid in reached_tids:
                rows[tid] = sorted(map(rank, rank_of.keys() & database[tid]))
            n_projected = len(reached_tids)
        row_of = rows.__getitem__

        results: list[FrequentItemset] = []
        # Hot-loop counters accumulate in plain locals and flush into
        # the registry once per call, so profiling never costs a Python
        # method call per branch/extension.
        n_branches = 0
        n_closures = 1
        n_skipped = 0
        item_checks = len(order)

        # Root closure: items present in every transaction.
        root = frozenset(
            r for r, item in enumerate(order) if supports[item] == n_transactions
        )
        if root and (max_len is None or len(root) <= max_len):
            results.append(
                FrequentItemset(frozenset(order[r] for r in root), n_transactions)
            )
        if max_len is None or len(root) < max_len:
            # Explicit DFS stack of (closed prefix ranks, ascending tid
            # list, core rank). Extensions only use ranks strictly above
            # the core, which is what makes the enumeration
            # duplicate-free.
            stack: list[tuple[frozenset[int], list[int], int]] = [
                (root, list(range(n_transactions)), -1)
            ]
            while stack:
                prefix, tids, core = stack.pop()
                n_branches += 1
                n_tids = len(tids)
                # Occurrence delivery: one pass over the node's rows
                # buckets every tid under each rank above the core, so
                # each bucket is that extension's tidset — only items
                # that actually co-occur with the prefix are touched.
                buckets: dict[int, list[int]] = {}
                get = buckets.get
                for tid in tids:
                    row = rows[tid]
                    for r in row[bisect_right(row, core):]:
                        bucket = get(r)
                        if bucket is None:
                            buckets[r] = [tid]
                        else:
                            bucket.append(tid)
                item_checks += sum(map(len, buckets.values()))
                for r in sorted(buckets):
                    ext = buckets[r]
                    support = len(ext)
                    # A bucket as large as the node is a prefix item
                    # (the prefix is closed); a small one is infrequent.
                    if support < threshold or support == n_tids:
                        continue
                    # Delta restriction: every tidset in this subtree is
                    # a subset of `ext`, so if `ext` misses the touched
                    # rows entirely, nothing below can intersect them
                    # either — the closure and the whole subtree are
                    # skipped.
                    if touched is not None and touched.isdisjoint(ext):
                        n_skipped += 1
                        continue
                    n_closures += 1
                    closed = frozenset(rows[ext[0]]).intersection(*map(row_of, ext))
                    item_checks += support * len(closed)
                    # Prefix preservation: the closure may add no rank
                    # below the extension that the prefix lacks —
                    # otherwise this closed set is reached from an
                    # earlier branch.
                    if min(closed - prefix) != r:
                        continue
                    if max_len is not None and len(closed) > max_len:
                        continue
                    items = frozenset(map(order.__getitem__, closed))
                    results.append(FrequentItemset(items, support))
                    if max_len is None or len(closed) < max_len:
                        stack.append((closed, ext, r))
        registry.counter("fpclose.rows_projected").inc(n_projected)
        registry.counter("fpclose.branches").inc(n_branches)
        registry.counter("fpclose.closure_calls").inc(n_closures)
        if n_skipped:
            registry.counter("fpclose.delta_subtrees_skipped").inc(n_skipped)
        registry.counter("fpclose.closed_itemsets").inc(len(results))
        registry.counter("fpclose.closure_item_checks").inc(item_checks)
    return results


def fpclose_reference(
    database: TransactionDatabase,
    min_support: int | float = 1,
    *,
    max_len: int | None = None,
) -> list[FrequentItemset]:
    """The set-based closed miner (equivalence oracle / benchmark baseline).

    Same contract as :func:`fpclose`; tidsets are ``frozenset[int]`` and
    every closure call re-scans all frequent items. Kept verbatim so the
    production miner has an in-tree referee and the mining-scaling
    benchmark can report the speedup over it.
    """
    threshold = resolve_min_support(min_support, len(database))
    if max_len is not None and max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")

    registry = get_registry()
    branches = registry.counter("fpclose_reference.branches")
    closures = registry.counter("fpclose_reference.closure_calls")
    with registry.timer("fpclose_reference"):
        supports = database.item_supports()
        frequent = sorted(i for i, c in supports.items() if c >= threshold)
        if not frequent:
            return []
        tidsets = {i: database.tidset(i) for i in frequent}
        results: list[FrequentItemset] = []
        all_tids = frozenset(range(len(database)))
        n_frequent = len(frequent)
        item_checks = n_frequent

        root = _closure_over(frozenset(), all_tids, frequent, tidsets)
        closures.inc()
        if root and (max_len is None or len(root) <= max_len):
            results.append(FrequentItemset(root, len(all_tids)))
        if max_len is not None and root and len(root) >= max_len:
            registry.counter("fpclose_reference.closed_itemsets").inc(len(results))
            registry.counter("fpclose_reference.closure_item_checks").inc(item_checks)
            return results

        # Explicit DFS stack of (closed itemset, tidset, core item id).
        # Extensions only use items strictly greater than the core, which is
        # what makes the enumeration duplicate-free.
        stack: list[tuple[Itemset, frozenset[int], int]] = [(root, all_tids, -1)]
        while stack:
            prefix, tids, core = stack.pop()
            branches.inc()
            for item in frequent:
                if item <= core or item in prefix:
                    continue
                extended_tids = tids & tidsets[item]
                if len(extended_tids) < threshold:
                    continue
                closed = _closure_over(
                    prefix | {item}, extended_tids, frequent, tidsets
                )
                closures.inc()
                item_checks += n_frequent
                # Prefix-preserving test: the closure must not add any item
                # smaller than the extension item that was not already in the
                # prefix — otherwise this closed set is reachable (and will
                # be reached) from a lexicographically earlier branch.
                if any(j < item and j not in prefix for j in closed):
                    continue
                if max_len is not None and len(closed) > max_len:
                    continue
                results.append(FrequentItemset(closed, len(extended_tids)))
                if max_len is None or len(closed) < max_len:
                    stack.append((closed, extended_tids, item))
        registry.counter("fpclose_reference.closed_itemsets").inc(len(results))
        registry.counter("fpclose_reference.closure_item_checks").inc(item_checks)
    return results


def _closure_over(
    itemset: Itemset,
    tids: frozenset[int],
    frequent: list[int],
    tidsets: dict[int, frozenset[int]],
) -> Itemset:
    """Closure of ``itemset`` restricted to frequent items.

    An item belongs to the closure iff its tidset contains every tid of
    the branch. Restricting to frequent items is sound: an infrequent
    item has support below the threshold, so it cannot contain a branch
    tidset of size ≥ threshold.
    """
    size = len(tids)
    closed = set(itemset)
    for item in frequent:
        if item in closed:
            continue
        candidate = tidsets[item]
        if len(candidate) >= size and tids <= candidate:
            closed.add(item)
    return frozenset(closed)
