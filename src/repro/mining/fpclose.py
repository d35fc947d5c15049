"""Closed frequent itemset mining.

The paper's pipeline (§5.2) mines *closed* itemsets so that every
generated drug-ADR rule is a supported association (Lemma 3.4.2) and the
rule space collapses by orders of magnitude (Fig 5.1).

The miner here is an LCM-style prefix-preserving closure-extension
search (Uno et al., FIMI'04) over the database's vertical representation
— each candidate is extended by one item, the tidset is intersected, the
closure is computed, and the branch is kept only if the closure does not
disturb the prefix. This enumerates every closed itemset exactly once with
no duplicate-detection hash table.

Two implementations share that search shape:

- :func:`fpclose` — the production miner. Tidsets are **integer
  bitmasks** (one bit per transaction), so every intersection is a
  single C-level ``&`` and every support a ``bit_count()``. Each branch
  carries a *conditional candidate list*: only the items that survived
  the parent's intersection at ≥ threshold are re-examined, and the
  closure test is fused into the same scan that builds the child's
  candidate list — one popcount per (branch, candidate) pair decides
  "in closure", "still a candidate", or "pruned". Items are ordered by
  ascending support so low-support cores shed candidates as early as
  possible.
- :func:`fpclose_reference` — the original ``frozenset``-tidset miner,
  kept as the equivalence oracle and the "before" series of the
  set-vs-bitset benchmark group.

Both keep the name ``fpclose`` lineage after the FP-Growth-based closed
mining the paper describes; the output contract is identical (all closed
frequent itemsets with their supports) and the test suite cross-checks
them against each other and against a brute-force closure filter over
Apriori/FP-Growth output.
"""

from __future__ import annotations

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
    This is the shared pushdown hook of the sharded miner
    (:mod:`repro.parallel.miner`): the parent projects every shard's
    rows onto the universe before they reach a worker.
    """
    items: set[int] = set()
    remaining = touched_mask
    while remaining:
        low = remaining & -remaining
        items |= database[low.bit_length() - 1]
        remaining ^= low
    return frozenset(items)


def fpclose(
    database: TransactionDatabase,
    min_support: int | float = 1,
    *,
    max_len: int | None = None,
    touched_mask: int | None = None,
) -> list[FrequentItemset]:
    """Mine all closed frequent itemsets of ``database`` (bitset core).

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
        shrink along a DFS path, so a branch whose projected mask is
        disjoint from ``touched_mask`` can never reach a touched
        transaction anywhere in its subtree and is skipped whole — this
        is what makes delta re-mining in :mod:`repro.incremental` cost
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
    """
    threshold = resolve_min_support(min_support, len(database))
    if max_len is not None and max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    if touched_mask is not None and touched_mask < 0:
        raise ConfigError(f"touched_mask must be >= 0, got {touched_mask}")
    if touched_mask == 0:
        return []
    # -1 is all-ones: in the unrestricted case the filter below reduces
    # to `ext & -1 == ext`, always truthy for a non-empty tidset, so the
    # hot loop pays one C-level AND and no branch misprediction.
    touched = -1 if touched_mask is None else touched_mask

    registry = get_registry()
    branches = registry.counter("fpclose.branches")
    closures = registry.counter("fpclose.closure_calls")
    with registry.timer("fpclose"):
        n_transactions = len(database)
        supports = database.item_supports()
        # Ascending support (ties by item id, for determinism): rare
        # items become cores first, so their small tidsets prune the
        # deepest subtrees before dense items multiply the branching.
        order = sorted(
            (item for item, count in supports.items() if count >= threshold),
            key=lambda item: (supports[item], item),
        )
        if not order:
            return []
        masks = database.item_masks()
        rank_masks = [masks[item] for item in order]
        n_ranks = len(order)
        full = (1 << n_transactions) - 1

        results: list[FrequentItemset] = []
        # Hot-loop counters accumulate in plain locals and flush into
        # the registry once per call, so profiling never costs a Python
        # method call per branch/extension.
        n_branches = 0
        n_closures = 1
        n_skipped = 0
        item_checks = n_ranks

        # Root closure: items present in every transaction.
        root = [r for r in range(n_ranks) if rank_masks[r] == full]
        if root and (max_len is None or len(root) <= max_len):
            results.append(
                FrequentItemset(
                    frozenset(order[r] for r in root), n_transactions
                )
            )
        if max_len is not None and root and len(root) >= max_len:
            closures.inc(n_closures)
            registry.counter("fpclose.closed_itemsets").inc(len(results))
            registry.counter("fpclose.closure_item_checks").inc(item_checks)
            return results

        in_root = frozenset(root)
        # A candidate is (rank, projected mask, projected support): the
        # mask is the item's tidset already intersected with the owning
        # branch's tidset, the support its popcount. The parent's
        # closure scan computes both as a byproduct, so an extension
        # needs no AND and no popcount of its own — its tidset and
        # support are read straight off the candidate tuple.
        root_candidates = tuple(
            (r, rank_masks[r], supports[order[r]])
            for r in range(n_ranks)
            if r not in in_root
        )

        # Explicit DFS stack of (closed prefix ranks, conditional
        # candidates ascending by rank, extension start index).
        # Extensions only use candidates strictly greater than the core
        # rank (everything from ``start`` on), which is what makes the
        # enumeration duplicate-free; candidates before ``start`` are
        # carried anyway because one of them turning "universal" in a
        # deeper tidset is exactly the prefix-preservation violation
        # that must prune the branch.
        stack: list[
            tuple[tuple[int, ...], tuple[tuple[int, int, int], ...], int]
        ] = [(tuple(root), root_candidates, 0)]
        bit_count = int.bit_count  # unbound: saves a method bind per AND
        while stack:
            prefix, candidates, start = stack.pop()
            n_branches += 1
            n_candidates = len(candidates)
            for pos in range(start, n_candidates):
                r, ext, ext_count = candidates[pos]
                # Delta restriction: every tidset in this subtree is a
                # subset of `ext`, so if `ext` misses the touched rows
                # entirely, nothing below can intersect them either —
                # the closure scan and the whole subtree are skipped.
                if not ext & touched:
                    n_skipped += 1
                    continue
                n_closures += 1
                # Fused closure + conditional-candidate scan: for every
                # candidate j of the parent, one intersection popcount
                # classifies it. Equal to the branch support → j is in
                # the closure (a j before the core in support order
                # violates prefix preservation and kills the branch);
                # ≥ threshold → j stays a candidate for descendants;
                # below threshold → j disappears from this subtree.
                closed = list(prefix)
                closed.append(r)
                child_candidates: list[tuple[int, int, int]] = []
                child_start = 0
                preserved = True
                item_checks += n_candidates
                for j, j_mask, _ in candidates:
                    if j == r:
                        continue
                    intersection = j_mask & ext
                    if not intersection:
                        # Empty intersections are the common case deep
                        # in the tree; ext_count >= threshold >= 1, so
                        # this can be neither a closure member nor a
                        # surviving candidate — skip the popcount.
                        continue
                    count = bit_count(intersection)
                    if count == ext_count:
                        if j < r:
                            preserved = False
                            break
                        closed.append(j)
                    elif count >= threshold:
                        if j < r:
                            child_start += 1
                        child_candidates.append((j, intersection, count))
                if not preserved:
                    continue
                if max_len is not None and len(closed) > max_len:
                    continue
                results.append(
                    FrequentItemset(
                        frozenset(order[k] for k in closed), ext_count
                    )
                )
                if max_len is None or len(closed) < max_len:
                    stack.append(
                        (tuple(closed), tuple(child_candidates), child_start)
                    )
        branches.inc(n_branches)
        closures.inc(n_closures)
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
    bitset core has an in-tree referee and the mining-scaling benchmark
    can report the set-vs-bitset speedup.
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
