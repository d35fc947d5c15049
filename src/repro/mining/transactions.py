"""Transaction database and item catalog.

The mining substrate works on *integer item ids* for speed and memory
locality; the :class:`ItemCatalog` is the bidirectional mapping between
human-readable item labels (drug names, ADR terms) and those ids. The
:class:`TransactionDatabase` stores one :class:`frozenset` of item ids per
transaction and maintains a *vertical* view (item id → set of transaction
ids) that the closed-itemset miner and the closure operator rely on.

Item *kinds* (e.g. ``"drug"`` vs ``"adr"``) are first-class: MeDIAR only
considers rules whose antecedent is drug-only and whose consequent is
ADR-only, and the partitioned rule generator needs to ask the catalog
which side of the fence an item lives on.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.errors import ConfigError, MiningError, UnknownItemError

Itemset = frozenset[int]
EMPTY_ITEMSET: Itemset = frozenset()


@runtime_checkable
class SupportCounter(Protocol):
    """Anything that can answer absolute itemset-support queries.

    Both :class:`TransactionDatabase` and
    :class:`~repro.mining.bitsets.SupportOracle` satisfy this; the rule
    generators and the MCAC builder accept either, so callers can swap
    the set-based backend for the memoized bitset oracle without code
    changes.
    """

    def __len__(self) -> int: ...

    def support(self, itemset: Iterable[int]) -> int: ...


class ItemCatalog:
    """Bidirectional mapping between item labels and dense integer ids.

    Ids are assigned in first-seen order starting at 0, which makes them
    usable as indices into dense arrays. Each item carries a *kind*
    string; the default kind is ``"item"``.

    Examples
    --------
    >>> catalog = ItemCatalog()
    >>> catalog.add("ASPIRIN", kind="drug")
    0
    >>> catalog.add("HAEMORRHAGE", kind="adr")
    1
    >>> catalog.label(0)
    'ASPIRIN'
    >>> catalog.kind_of(1)
    'adr'
    """

    def __init__(self) -> None:
        self._id_by_label: dict[str, int] = {}
        self._labels: list[str] = []
        self._kinds: list[str] = []

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: object) -> bool:
        return label in self._id_by_label

    def __iter__(self) -> Iterator[str]:
        return iter(self._labels)

    def add(self, label: str, kind: str = "item") -> int:
        """Register ``label`` and return its id.

        Re-adding an existing label returns the existing id; a conflicting
        ``kind`` on re-add raises :class:`~repro.errors.MiningError`
        because an item cannot be both a drug and an ADR.
        """
        if not isinstance(label, str) or not label:
            raise ConfigError(f"item label must be a non-empty string, got {label!r}")
        existing = self._id_by_label.get(label)
        if existing is not None:
            if self._kinds[existing] != kind:
                raise MiningError(
                    f"item {label!r} already registered with kind "
                    f"{self._kinds[existing]!r}, cannot re-register as {kind!r}"
                )
            return existing
        item_id = len(self._labels)
        self._id_by_label[label] = item_id
        self._labels.append(label)
        self._kinds.append(kind)
        return item_id

    def rename_label(self, item_id: int, new_label: str) -> None:
        """Re-label an existing item in place, keeping its id and kind.

        The encoder's collision policy
        (:class:`~repro.faers.dataset.IncrementalEncoder`) uses this:
        when a drug label arrives that collides with an already-encoded
        *unsuffixed* ADR label, renaming the ADR item to its suffixed
        label gives the catalog an encoder that knew every drug up front
        would have built, without re-encoding history (ids are
        first-seen-row ordered, and the rename does not change which row
        first contained the item). Renaming *to* an existing
        label raises :class:`~repro.errors.MiningError`: two items may
        never share one label.
        """
        if not isinstance(new_label, str) or not new_label:
            raise ConfigError(
                f"item label must be a non-empty string, got {new_label!r}"
            )
        try:
            old_label = self._labels[item_id]
        except IndexError:
            raise UnknownItemError(item_id) from None
        if new_label == old_label:
            return
        if new_label in self._id_by_label:
            raise MiningError(
                f"cannot rename item {item_id} ({old_label!r}) to "
                f"{new_label!r}: label already registered"
            )
        del self._id_by_label[old_label]
        self._id_by_label[new_label] = item_id
        self._labels[item_id] = new_label

    def id(self, label: str) -> int:
        """Return the id of ``label``, raising :class:`UnknownItemError` if absent."""
        try:
            return self._id_by_label[label]
        except KeyError:
            raise UnknownItemError(label) from None

    def get_id(self, label: str) -> int | None:
        """Return the id of ``label`` or ``None`` if it is not registered."""
        return self._id_by_label.get(label)

    def label(self, item_id: int) -> str:
        """Return the label of ``item_id``."""
        try:
            return self._labels[item_id]
        except IndexError:
            raise UnknownItemError(item_id) from None

    def kind_of(self, item_id: int) -> str:
        """Return the kind string of ``item_id``."""
        try:
            return self._kinds[item_id]
        except IndexError:
            raise UnknownItemError(item_id) from None

    def ids_of_kind(self, kind: str) -> frozenset[int]:
        """Return the ids of every item registered with ``kind``."""
        return frozenset(i for i, k in enumerate(self._kinds) if k == kind)

    def labels(self, itemset: Iterable[int]) -> tuple[str, ...]:
        """Return the labels of ``itemset`` sorted alphabetically.

        Sorting makes the output deterministic, which the renderers and
        report writers depend on.
        """
        return tuple(sorted(self.label(i) for i in itemset))

    def encode(self, labels: Iterable[str]) -> Itemset:
        """Translate an iterable of labels into an itemset of ids."""
        return frozenset(self.id(label) for label in labels)


class MiningCatalog:
    """A label-free catalog stand-in for mining-only databases.

    Mining consults a catalog for exactly one thing — ``len()``, to
    bound valid item ids. Worker processes used to materialise a real
    :class:`ItemCatalog` with formatted placeholder labels per shard per
    task, making setup cost grow with vocabulary size; this stand-in
    carries only the id bound. Labels are synthesised on demand in the
    (diagnostic-only) accessors.
    """

    __slots__ = ("_n_items",)

    def __init__(self, n_items: int) -> None:
        if n_items < 0:
            raise ConfigError(f"n_items must be >= 0, got {n_items}")
        self._n_items = n_items

    def __len__(self) -> int:
        return self._n_items

    def label(self, item_id: int) -> str:
        if not 0 <= item_id < self._n_items:
            raise UnknownItemError(item_id)
        return f"i{item_id}"

    def kind_of(self, item_id: int) -> str:
        if not 0 <= item_id < self._n_items:
            raise UnknownItemError(item_id)
        return "item"


@dataclass(frozen=True, slots=True)
class FrequentItemset:
    """A mined itemset together with its absolute support count.

    ``items`` holds item ids; translate with
    :meth:`ItemCatalog.labels` for display.
    """

    items: Itemset
    support: int

    def __post_init__(self) -> None:
        if self.support < 0:
            raise MiningError(f"support must be non-negative, got {self.support}")

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, item_id: object) -> bool:
        return item_id in self.items


class TransactionDatabase:
    """An immutable collection of transactions over an :class:`ItemCatalog`.

    Each transaction is a :class:`frozenset` of item ids. The database
    also keeps the *vertical* representation — for each item, the set of
    transaction ids (tids) containing it — which gives O(1) single-item
    support and fast tidset intersection for closure computation.

    Build one either from already-encoded itemsets via the constructor or
    from label transactions with :meth:`from_labelled`.
    """

    def __init__(
        self,
        transactions: Iterable[Collection[int]],
        catalog: ItemCatalog,
    ) -> None:
        self._catalog = catalog
        self._transactions: list[Itemset] = [frozenset(t) for t in transactions]
        n_items = len(catalog)
        for tid, transaction in enumerate(self._transactions):
            for item in transaction:
                if not 0 <= item < n_items:
                    raise MiningError(
                        f"transaction {tid} references item id {item} "
                        f"outside catalog of size {n_items}"
                    )
        self._tidsets: dict[int, frozenset[int]] = self._build_vertical()
        # Per-item transaction bitmasks, built lazily on the first
        # multi-item support query: one arbitrary-precision int per
        # item makes support counting a chain of `&` plus a popcount,
        # several times faster than frozenset intersection on the
        # MCAC/contingency hot path.
        self._bitmasks: dict[int, int] | None = None

    @classmethod
    def from_labelled(
        cls,
        labelled_transactions: Iterable[Iterable[str]],
        *,
        kinds: Mapping[str, str] | None = None,
        catalog: ItemCatalog | None = None,
    ) -> "TransactionDatabase":
        """Build a database from transactions of string labels.

        Parameters
        ----------
        labelled_transactions:
            Iterable of iterables of item labels.
        kinds:
            Optional mapping from label to kind; labels absent from the
            mapping get kind ``"item"``.
        catalog:
            Reuse an existing catalog (labels are added to it) instead of
            creating a fresh one.
        """
        catalog = catalog if catalog is not None else ItemCatalog()
        kinds = kinds or {}
        encoded: list[set[int]] = []
        for transaction in labelled_transactions:
            row = {
                catalog.add(label, kinds.get(label, "item")) for label in transaction
            }
            encoded.append(row)
        return cls(encoded, catalog)

    @property
    def catalog(self) -> ItemCatalog:
        return self._catalog

    def __len__(self) -> int:
        return len(self._transactions)

    def __iter__(self) -> Iterator[Itemset]:
        return iter(self._transactions)

    def __getitem__(self, tid: int) -> Itemset:
        return self._transactions[tid]

    def _build_vertical(self) -> dict[int, frozenset[int]]:
        vertical: dict[int, set[int]] = {}
        for tid, transaction in enumerate(self._transactions):
            for item in transaction:
                vertical.setdefault(item, set()).add(tid)
        return {item: frozenset(tids) for item, tids in vertical.items()}

    def tidset(self, item_id: int) -> frozenset[int]:
        """Return the set of transaction ids containing ``item_id``."""
        return self._tidsets.get(item_id, frozenset())

    def tidset_of(self, itemset: Iterable[int]) -> frozenset[int]:
        """Return the tids of transactions containing *every* item.

        The tidset of the empty itemset is all transactions. Items are
        intersected smallest-tidset-first so the running intersection
        shrinks as quickly as possible.
        """
        items = sorted(itemset, key=lambda i: len(self.tidset(i)))
        if not items:
            return frozenset(range(len(self._transactions)))
        result = self.tidset(items[0])
        for item in items[1:]:
            if not result:
                break
            result = result & self.tidset(item)
        return result

    def item_masks(self) -> dict[int, int]:
        """Per-item transaction bitmasks (bit ``t`` set iff tid ``t`` has the item).

        Built lazily on first use and cached for the lifetime of the
        database; :class:`~repro.mining.bitsets.BitsetIndex` shares this
        exact dict rather than rebuilding it, so the whole mining and
        measurement path works off one mask table. Callers must treat
        the returned dict as read-only.
        """
        if self._bitmasks is None:
            masks: dict[int, int] = {}
            for tid, transaction in enumerate(self._transactions):
                bit = 1 << tid
                for item in transaction:
                    masks[item] = masks.get(item, 0) | bit
            self._bitmasks = masks
        return self._bitmasks

    def support(self, itemset: Iterable[int]) -> int:
        """Absolute support (number of containing transactions) of an itemset."""
        itemset = frozenset(itemset)
        if not itemset:
            return len(self._transactions)
        if len(itemset) == 1:
            return len(self.tidset(next(iter(itemset))))
        masks = self.item_masks()
        result = -1  # all-ones; first AND clips it to the first mask
        for item in itemset:
            result &= masks.get(item, 0)
            if not result:
                return 0
        return result.bit_count()

    def item_supports(self) -> dict[int, int]:
        """Return absolute support of every item that occurs at least once."""
        return {item: len(tids) for item, tids in self._tidsets.items()}

    def items_present(self) -> frozenset[int]:
        """Ids of items that occur in at least one transaction."""
        return frozenset(self._tidsets)

    def transactions_with(self, itemset: Iterable[int]) -> list[Itemset]:
        """Return the transactions that contain every item of ``itemset``."""
        return [self._transactions[tid] for tid in sorted(self.tidset_of(itemset))]

    def restrict_to_items(self, keep: Collection[int]) -> "TransactionDatabase":
        """Project the database onto ``keep``, dropping emptied transactions.

        The catalog is shared with the original database so item ids stay
        stable across the projection.
        """
        keep_set = frozenset(keep)
        projected = [t & keep_set for t in self._transactions]
        return TransactionDatabase(
            [t for t in projected if t],
            self._catalog,
        )

    def describe(self) -> "DatabaseStats":
        """Summary statistics (used by the Table 5.1 reproduction)."""
        lengths = [len(t) for t in self._transactions]
        return DatabaseStats(
            n_transactions=len(self._transactions),
            n_distinct_items=len(self._tidsets),
            total_item_occurrences=sum(lengths),
            max_transaction_length=max(lengths, default=0),
            mean_transaction_length=(
                sum(lengths) / len(lengths) if lengths else 0.0
            ),
        )


class GrowableTransactionDatabase(TransactionDatabase):
    """A :class:`TransactionDatabase` whose rows can be appended and edited.

    The incremental surveillance engine (:mod:`repro.incremental`) keeps
    one of these alive across batches: new reports append rows (new bits
    at the top of every touched item mask), and a follow-up case version
    rewrites exactly one row — clearing the removed items' bits and
    setting the added items' bits in place. The vertical tidsets and the
    bitmask table are maintained eagerly so :meth:`item_masks` stays the
    single shared table that :class:`~repro.mining.bitsets.BitsetIndex`
    wraps; a fresh index over this database after a mutation sees the
    updated masks with no rebuild.

    The mutating methods return enough information (the row's bit, the
    added/removed item ids) for the caller to accumulate a touched-rows
    mask and a delta item universe for delta-aware re-mining.
    """

    def __init__(
        self,
        transactions: Iterable[Collection[int]],
        catalog: ItemCatalog,
    ) -> None:
        super().__init__(transactions, catalog)
        # The parent's vertical view is frozen; swap in mutable sets so
        # row edits are O(row length), not O(database).
        self._tidsets = {item: set(tids) for item, tids in self._tidsets.items()}
        self.item_masks()  # force the mask table into existence

    def append_row(self, items: Collection[int]) -> int:
        """Append a transaction and return its tid (bit position)."""
        row = frozenset(items)
        n_items = len(self._catalog)
        for item in row:
            if not 0 <= item < n_items:
                raise MiningError(
                    f"appended row references item id {item} "
                    f"outside catalog of size {n_items}"
                )
        tid = len(self._transactions)
        bit = 1 << tid
        self._transactions.append(row)
        masks = self._bitmasks
        assert masks is not None  # built eagerly in __init__
        for item in row:
            masks[item] = masks.get(item, 0) | bit
            self._tidsets.setdefault(item, set()).add(tid)
        return tid

    def update_row(self, tid: int, items: Collection[int]) -> tuple[Itemset, Itemset]:
        """Rewrite row ``tid`` in place; return ``(added, removed)`` item ids.

        Removed items have their bit cleared from the mask table (the
        bit-invalidation path a follow-up case version exercises); items
        whose tidset empties are dropped from the vertical view so
        :meth:`item_supports` never reports support 0.
        """
        if not 0 <= tid < len(self._transactions):
            raise MiningError(f"update_row: tid {tid} out of range")
        new_row = frozenset(items)
        n_items = len(self._catalog)
        for item in new_row:
            if not 0 <= item < n_items:
                raise MiningError(
                    f"updated row references item id {item} "
                    f"outside catalog of size {n_items}"
                )
        old_row = self._transactions[tid]
        added = new_row - old_row
        removed = old_row - new_row
        self._transactions[tid] = new_row
        bit = 1 << tid
        masks = self._bitmasks
        assert masks is not None
        for item in added:
            masks[item] = masks.get(item, 0) | bit
            self._tidsets.setdefault(item, set()).add(tid)
        for item in removed:
            remaining = masks[item] & ~bit
            if remaining:
                masks[item] = remaining
            else:
                del masks[item]
            tids = self._tidsets[item]
            tids.discard(tid)
            if not tids:
                del self._tidsets[item]
        return added, removed


@dataclass(frozen=True, slots=True)
class DatabaseStats:
    """Aggregate shape of a transaction database."""

    n_transactions: int
    n_distinct_items: int
    total_item_occurrences: int
    max_transaction_length: int
    mean_transaction_length: float


def resolve_min_support(
    min_support: int | float, n_transactions: int
) -> int:
    """Normalize a support threshold to an absolute count.

    An ``int`` is taken as an absolute count; a ``float`` in ``(0, 1]`` is
    taken as a fraction of the database. Zero or negative thresholds are
    rejected: the paper's pipeline always mines with support ≥ 1 (a rule
    must be witnessed by at least one report).
    """
    if isinstance(min_support, bool):  # bool is an int subclass; refuse it
        raise ConfigError("min_support must be an int or float, not bool")
    if isinstance(min_support, int):
        if min_support < 1:
            raise ConfigError(f"absolute min_support must be >= 1, got {min_support}")
        return min_support
    if isinstance(min_support, float):
        if not 0.0 < min_support <= 1.0:
            raise ConfigError(
                f"fractional min_support must be in (0, 1], got {min_support}"
            )
        # Ceiling so that a fraction never rounds down to support 0.
        return max(1, -int(-min_support * n_transactions // 1))
    raise ConfigError(f"min_support must be int or float, got {type(min_support)!r}")


def canonical_itemset_order(
    itemsets: Iterable[FrequentItemset],
) -> list[FrequentItemset]:
    """Sort itemsets by their sorted item-id tuple.

    Mining backends enumerate closed itemsets in search-tree order,
    which differs between the single-process and sharded miners (and
    between the bitset and reference miners). Every pipeline path
    canonicalizes through this order before rule generation so the
    downstream rule → association → cluster → export chain is
    byte-identical regardless of backend.
    """
    return sorted(itemsets, key=lambda fi: tuple(sorted(fi.items)))


def sort_itemset_labels(
    itemsets: Sequence[FrequentItemset], catalog: ItemCatalog
) -> list[tuple[tuple[str, ...], int]]:
    """Render mined itemsets as (sorted labels, support), deterministically ordered.

    Primarily a convenience for tests and report writers: the output is
    sorted by descending support, then ascending labels.
    """
    rendered = [(catalog.labels(fi.items), fi.support) for fi in itemsets]
    rendered.sort(key=lambda pair: (-pair[1], pair[0]))
    return rendered
