"""Memoized support answers and chunked masks over the database's bitmasks.

:class:`~repro.mining.transactions.TransactionDatabase` keeps one
arbitrary-precision int per item, one bit per transaction, so an
itemset support is a chain of ``&`` and one ``bit_count()``, all in C.
Two layers build on those masks here:

- :class:`SupportOracle` — a memoizing façade over a database. The
  MCAC builder asks for the support of every one of a target's
  ``2^n − 2`` antecedent subsets, and clusters of overlapping targets
  share most of those subsets; the oracle computes each distinct
  itemset support once per pipeline run.
- :class:`ChunkedItemMasks` — per-item masks split into sparse
  fixed-width blocks, for the sharded merge's many narrow
  intersections.

The equivalence tests check the oracle against a row scan of the
database, and the mining-scaling benchmark measures the memo's effect.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.mining.transactions import Itemset, TransactionDatabase


class SupportOracle:
    """Memoized itemset-support answers over a database's masks.

    Duck-compatible with the support-counting surface of
    :class:`~repro.mining.transactions.TransactionDatabase`
    (``len(oracle)``, ``oracle.support(itemset)``), so the rule
    generators and the MCAC builder accept either. Each distinct
    itemset's support is computed once; ``hits``/``misses`` expose the
    cache effectiveness to the observability layer. The oracle reads
    the database's live masks, so it must not outlive a mutation of a
    growable database: build a fresh one per batch and carry the still
    valid answers with :meth:`warm_from`.
    """

    __slots__ = ("_database", "_cache", "hits", "misses")

    def __init__(self, database: TransactionDatabase) -> None:
        self._database = database
        self._cache: dict[Itemset, int] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._database)

    def support(self, itemset: Iterable[int]) -> int:
        """Absolute support of ``itemset``, memoized per distinct itemset."""
        key = itemset if isinstance(itemset, frozenset) else frozenset(itemset)
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        result = self._cache[key] = self._database.support(key)
        return result

    def warm(self, itemset: Iterable[int], support: int) -> None:
        """Seed the memo cache with an exactly-known support.

        The sharded merge recomputes every candidate's global support
        over the full bitmask table; warming those answers in means the
        downstream rule/cluster stages never re-intersect the tidsets
        of itemsets the merge already measured.
        """
        key = itemset if isinstance(itemset, frozenset) else frozenset(itemset)
        self._cache.setdefault(key, support)

    def warm_from(
        self, previous: "SupportOracle", *, invalidated: frozenset[int]
    ) -> int:
        """Carry still-valid memo entries from a previous batch's oracle.

        An itemset containing no invalidated item has the same tidset
        mask it had before the delta was applied (no touched row changed
        any of its items' bits for it), hence the same support — so its
        cached answer transfers verbatim. The empty itemset is skipped:
        its support is the transaction count, which the delta grew.
        Returns the number of entries carried.
        """
        carried = 0
        for key, support in previous._cache.items():
            if key and key.isdisjoint(invalidated):
                self._cache.setdefault(key, support)
                carried += 1
        return carried

    def cache_size(self) -> int:
        return len(self._cache)


# ---------------------------------------------------------------------------
# Chunked tidset masks
#
# A monolithic Python-int mask makes every ``&`` cost O(n_transactions/64)
# words regardless of how few transactions actually match. The sharded
# merge intersects thousands of *narrow* tidsets (a candidate itemset
# rarely matches more than a few hundred of 10⁵ rows), so it represents
# masks as sparse dicts of fixed-width blocks: ``{block_index: block}``
# with each block a nonzero int of at most :data:`BLOCK_BITS` bits. The
# key set doubles as the nonzero-block skip list — intersections iterate
# the narrower operand's keys and touch only blocks both sides populate,
# so cost tracks itemset density instead of database width.
# ---------------------------------------------------------------------------

#: Bits per block. 4096 keeps per-block ints in the cheap small-int AND
#: regime while amortising dict overhead over 64 machine words.
BLOCK_BITS = 4096

_BLOCK_LOW = (1 << BLOCK_BITS) - 1

#: A chunked mask: block index -> nonzero block of ``BLOCK_BITS`` bits.
ChunkedMask = dict[int, int]


def chunk_mask(mask: int) -> ChunkedMask:
    """Split a monolithic bitmask into its nonzero fixed-width blocks."""
    blocks: ChunkedMask = {}
    index = 0
    while mask:
        block = mask & _BLOCK_LOW
        if block:
            blocks[index] = block
        mask >>= BLOCK_BITS
        index += 1
    return blocks


def chunk_unmask(blocks: ChunkedMask) -> int:
    """Reassemble the monolithic bitmask (interop with plain-int code)."""
    mask = 0
    for index, block in blocks.items():
        mask |= block << (index * BLOCK_BITS)
    return mask


def chunk_and(a: ChunkedMask, b: ChunkedMask) -> ChunkedMask:
    """Intersection; iterates the narrower side's skip list."""
    if len(b) < len(a):
        a, b = b, a
    get = b.get
    out: ChunkedMask = {}
    for index, block in a.items():
        common = block & get(index, 0)
        if common:
            out[index] = common
    return out


def chunk_popcount(blocks: ChunkedMask) -> int:
    return sum(block.bit_count() for block in blocks.values())


def chunk_tids(blocks: ChunkedMask) -> Iterator[int]:
    """Yield set tids; O(popcount) via lowest-set-bit isolation."""
    for index in sorted(blocks):
        block = blocks[index]
        base = index * BLOCK_BITS
        while block:
            low = block & -block
            yield base + low.bit_length() - 1
            block ^= low


class ChunkedItemMasks:
    """Per-item chunked masks with a diffset twist, built lazily.

    The merge's layered DP and closure scans test thousands of
    ``candidate_mask AND/⊆ item_mask`` pairs. Sparse items chunk well
    directly; *dense* items (support above half the database) would
    populate every block, so they are stored dEclat-style as the chunks
    of their **complement** — ``v & item == v & ~diff`` and
    ``v ⊆ item ⟺ v ∩ diff = ∅`` — making dense items exactly as cheap
    as their absence pattern is sparse.
    """

    __slots__ = (
        "_masks", "_supports", "_n", "_universe", "_entries",
        "_by_support", "_support_rank",
    )

    def __init__(
        self,
        item_masks: dict[int, int],
        item_supports: dict[int, int],
        n_transactions: int,
    ) -> None:
        self._masks = item_masks
        self._supports = item_supports
        self._n = n_transactions
        self._universe = (1 << n_transactions) - 1
        # item -> (diff?, blocks); built on first use per item.
        self._entries: dict[int, tuple[bool, ChunkedMask]] = {}
        self._by_support: list[int] | None = None
        self._support_rank: list[int] | None = None

    def support(self, item: int) -> int:
        return self._supports.get(item, 0)

    def entry(self, item: int) -> tuple[bool, ChunkedMask]:
        """(is_diffset, blocks) for one item, cached."""
        cached = self._entries.get(item)
        if cached is None:
            mask = self._masks.get(item, 0)
            if self._supports.get(item, 0) * 2 > self._n:
                cached = (True, chunk_mask(self._universe ^ mask))
            else:
                cached = (False, chunk_mask(mask))
            self._entries[item] = cached
        return cached

    def positive(self, item: int) -> ChunkedMask:
        """The item's own chunked tidset (never the diffset form)."""
        diff, blocks = self.entry(item)
        if not diff:
            return blocks
        return chunk_mask(self._masks.get(item, 0))

    def and_item(self, blocks: ChunkedMask, item: int) -> ChunkedMask:
        """``blocks & mask(item)`` honouring the diffset representation."""
        diff, item_blocks = self.entry(item)
        get = item_blocks.get
        out: ChunkedMask = {}
        if diff:
            for index, block in blocks.items():
                common = block & ~get(index, 0)
                if common:
                    out[index] = common
        else:
            for index, block in blocks.items():
                common = block & get(index, 0)
                if common:
                    out[index] = common
        return out

    def covers(self, item: int, blocks: ChunkedMask) -> bool:
        """``blocks ⊆ mask(item)``, early-exiting on the first miss."""
        diff, item_blocks = self.entry(item)
        get = item_blocks.get
        if diff:
            for index, block in blocks.items():
                if block & get(index, 0):
                    return False
        else:
            for index, block in blocks.items():
                if block & ~get(index, 0):
                    return False
        return True

    def items_by_support(self) -> tuple[list[int], list[int]]:
        """(items sorted by support descending, matching support list).

        Closure scans need every item whose support admits a superset
        tidset of the group's — a *prefix* of this order, found by
        bisecting the support list, instead of a full-vocabulary pass.
        """
        if self._by_support is None:
            items = sorted(
                self._supports, key=lambda i: (-self._supports[i], i)
            )
            self._by_support = items
            self._support_rank = [-self._supports[i] for i in items]
        return self._by_support, self._support_rank
