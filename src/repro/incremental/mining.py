"""Delta-aware re-mining: carry the untouched closed sets, re-mine the rest.

The Galois connection behind closed-itemset mining makes incremental
maintenance exact under *grow-only* deltas (rows append; an updated row
only gains items — which is all union-merge cleaning can produce):

- An itemset contained in **no** touched row has, by definition, a
  tidset mask disjoint from the touched-rows mask ``T``. None of its
  rows changed, no batch-new item entered them, so its support *and*
  its closure are untouched: if it was closed before, it is closed now,
  at the same support. These are carried verbatim from the previous
  batch's closed set (dropped only if a risen support threshold now
  excludes them).
- An itemset contained in **some** touched row has a tidset mask
  intersecting ``T`` — and :func:`repro.mining.fpclose.fpclose` with
  ``touched_mask=T`` enumerates exactly the closed itemsets whose mask
  intersects ``T`` (a branch's tidset only shrinks downward, so a
  subtree whose projected mask misses ``T`` is skipped whole).

The two sets partition the new closed family, so ``carried ∪ re-mined``
is exactly what a from-scratch mine would return — the differential
harness in ``tests/incremental`` asserts byte-identical exports.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.mining.transactions import (
    FrequentItemset,
    Itemset,
    TransactionDatabase,
)


def carry_closed_itemsets(
    prev_closed: Sequence[FrequentItemset],
    database: TransactionDatabase,
    touched_tids: Sequence[int],
    threshold: int,
) -> tuple[list[FrequentItemset], int]:
    """Split the previous closed set into (carried, n_dropped_suspects).

    ``touched_tids`` are the rows the delta appended or rewrote;
    ``database`` must already reflect the new contents. An itemset
    contained in any touched row is a *suspect* — its support or closure
    may have changed — and is dropped here because the delta-restricted
    miner re-emits its (possibly updated) closed form. Everything else
    is carried with its support verbatim, filtered by the (possibly
    risen) ``threshold``.

    Correct only for grow-only deltas (appends + item additions): a row
    that *lost* items could silently strand a stale support. The engine
    guards that path with a full rebuild.
    """
    touched_rows: list[Itemset] = [database[tid] for tid in touched_tids]
    # Cheap prefilter: an itemset can only be inside a touched row if it
    # is inside the union of all touched rows' items — which rules most
    # carried itemsets out with a single (short-circuiting) subset test.
    touched_universe: Itemset = (
        frozenset().union(*touched_rows) if touched_rows else frozenset()
    )
    carried: list[FrequentItemset] = []
    suspects = 0
    for fi in prev_closed:
        items = fi.items
        if items <= touched_universe and any(
            items <= row for row in touched_rows
        ):
            suspects += 1
            continue
        if fi.support >= threshold:
            carried.append(fi)
    return carried, suspects
