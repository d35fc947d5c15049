"""Bitset-backed support oracle.

The default :class:`~repro.mining.transactions.TransactionDatabase`
keeps tidsets as ``frozenset[int]``; intersecting those allocates new
sets per query. At FAERS scale (10⁵+ reports) the hot path — support
counting during MCAC construction and contingency building — is better
served by *bitset* tidsets: one arbitrary-precision Python integer per
item, one bit per transaction, so an itemset support is a chain of
``&`` and one ``bit_count()``, all in C.

Two layers live here:

- :class:`BitsetIndex` — read-only per-item bitmask view over a fixed
  database. It shares the database's own lazily built mask table
  (:meth:`~repro.mining.transactions.TransactionDatabase.item_masks`),
  so index construction after any multi-item support query is free.
- :class:`SupportOracle` — a memoizing façade over a
  :class:`BitsetIndex`. The MCAC builder asks for the support of every
  one of a target's ``2^n − 2`` antecedent subsets, and clusters of
  overlapping targets share most of those subsets; the oracle computes
  each distinct itemset support once per pipeline run.

The equivalence tests assert both layers agree with the set-based
answers bit for bit, and the mining-scaling benchmark measures the
speedup.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.errors import MiningError
from repro.mining.transactions import Itemset, TransactionDatabase


class BitsetIndex:
    """Per-item transaction bitmasks over a fixed database.

    Bit ``t`` of ``mask(item)`` is set iff transaction ``t`` contains
    the item. The index is immutable and tied to the database it was
    built from; the mask table itself is shared with the database
    (built at most once per database, whoever asks first).
    """

    def __init__(self, database: TransactionDatabase) -> None:
        self._n_transactions = len(database)
        self._masks = database.item_masks()
        self._full = (1 << self._n_transactions) - 1

    def __len__(self) -> int:
        return self._n_transactions

    def mask(self, item: int) -> int:
        """The transaction bitmask of one item (0 if it never occurs)."""
        return self._masks.get(item, 0)

    def itemset_mask(self, itemset: Iterable[int]) -> int:
        """AND of the item masks; the full mask for the empty itemset."""
        result = self._full
        for item in itemset:
            result &= self._masks.get(item, 0)
            if not result:
                return 0
        return result

    def support(self, itemset: Iterable[int]) -> int:
        """Absolute support via popcount."""
        return self.itemset_mask(itemset).bit_count()

    def tidset(self, itemset: Iterable[int]) -> frozenset[int]:
        """Materialize the matching tids (for interop with set-based code).

        Iterates *set bits only* — isolate the lowest set bit with
        ``mask & -mask``, convert to a tid with ``bit_length``, clear it
        — so the walk is O(popcount), not O(n_transactions).
        """
        mask = self.itemset_mask(itemset)
        tids = []
        while mask:
            low = mask & -mask
            tids.append(low.bit_length() - 1)
            mask ^= low
        return frozenset(tids)

    def contingency_counts(
        self, exposure: Itemset, outcome: Itemset
    ) -> tuple[int, int, int, int]:
        """(a, b, c, d) cells of the exposure/outcome 2×2 table."""
        if not exposure or not outcome:
            raise MiningError("exposure and outcome must be non-empty")
        exposed = self.itemset_mask(exposure)
        with_outcome = self.itemset_mask(outcome)
        a = (exposed & with_outcome).bit_count()
        b = exposed.bit_count() - a
        c = with_outcome.bit_count() - a
        d = self._n_transactions - a - b - c
        return (a, b, c, d)


class SupportOracle:
    """Memoized itemset-support answers over a shared :class:`BitsetIndex`.

    Duck-compatible with the support-counting surface of
    :class:`~repro.mining.transactions.TransactionDatabase`
    (``len(oracle)``, ``oracle.support(itemset)``), so the rule
    generators and the MCAC builder accept either. Each distinct
    itemset's support is computed once; ``hits``/``misses`` expose the
    cache effectiveness to the observability layer.
    """

    __slots__ = ("_index", "_cache", "hits", "misses")

    def __init__(self, index: BitsetIndex) -> None:
        self._index = index
        self._cache: dict[Itemset, int] = {}
        self.hits = 0
        self.misses = 0

    @classmethod
    def for_database(cls, database: TransactionDatabase) -> "SupportOracle":
        return cls(BitsetIndex(database))

    @property
    def index(self) -> BitsetIndex:
        return self._index

    def __len__(self) -> int:
        return len(self._index)

    def support(self, itemset: Iterable[int]) -> int:
        """Absolute support of ``itemset``, memoized per distinct itemset."""
        key = itemset if isinstance(itemset, frozenset) else frozenset(itemset)
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        result = self._cache[key] = self._index.support(key)
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

    def tidset(self, itemset: Iterable[int]) -> frozenset[int]:
        """Matching tids (uncached — tidsets are large, supports are not)."""
        return self._index.tidset(itemset)

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
