"""Maximal frequent itemsets.

The third classical condensed representation next to *all* frequent and
*closed* itemsets: an itemset is **maximal** when it is frequent and no
proper superset is. Maximal sets are the smallest summary (they lose
support information of subsets, which closed sets keep), so:

    maximal ⊆ closed ⊆ frequent

Used here for lattice diagnostics and as a test oracle for the
containment chain; computed by filtering the closed miner's output —
every maximal frequent itemset is closed (if it weren't, its closure
would be a frequent superset), so the filter is lossless.
"""

from __future__ import annotations

from repro.mining.fpclose import fpclose
from repro.mining.transactions import (
    FrequentItemset,
    TransactionDatabase,
    canonical_itemset_order,
)


def maximal_itemsets(
    database: TransactionDatabase,
    min_support: int | float = 1,
    *,
    max_len: int | None = None,
) -> list[FrequentItemset]:
    """Mine all maximal frequent itemsets.

    Same parameter contract as :func:`~repro.mining.fpclose.fpclose`.
    With ``max_len`` set, maximality is relative to the length-capped
    closed family (a capped run cannot see longer supersets). The
    result is in :func:`canonical_itemset_order`, independent of the
    miner's enumeration order.
    """
    closed = fpclose(database, min_support, max_len=max_len)
    if not closed:
        return []
    by_size: dict[int, list[FrequentItemset]] = {}
    for itemset in closed:
        by_size.setdefault(len(itemset.items), []).append(itemset)
    sizes = sorted(by_size, reverse=True)

    maximal: list[FrequentItemset] = []
    accepted: list[frozenset[int]] = []
    for size in sizes:
        for itemset in by_size[size]:
            if any(itemset.items < bigger for bigger in accepted):
                continue
            maximal.append(itemset)
            accepted.append(itemset.items)
    return canonical_itemset_order(maximal)


def lattice_summary(
    database: TransactionDatabase,
    min_support: int | float = 1,
    *,
    max_len: int | None = None,
) -> dict[str, int]:
    """Sizes of the three representations — the compression picture."""
    from repro.mining.fpgrowth import fpgrowth

    frequent = fpgrowth(database, min_support, max_len=max_len)
    closed = fpclose(database, min_support, max_len=max_len)
    maximal = maximal_itemsets(database, min_support, max_len=max_len)
    return {
        "frequent": len(frequent),
        "closed": len(closed),
        "maximal": len(maximal),
    }
