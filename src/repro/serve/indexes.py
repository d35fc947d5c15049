"""Precomputed inverted indexes over one run's cluster records.

Everything the query API can ask for — "clusters mentioning DRUG",
"associations with ADR", "MCACs of this drug pair", "labels starting
with asp" — is answered by probing a dict or bisecting a sorted token
list built once when the run is registered. The hot path never scans
the full cluster list; a linear scan only happens at build time, and
each best-first sort order once, on its first lookup.

Positions, not objects: every index maps to positions into the run's
record tuple, so intersecting two criteria is a cheap merge of sorted
int tuples and the engine stays free to project records however the
endpoint needs.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import combinations
from typing import Any

#: Sort keys every run supports beyond its per-method score names.
BASE_SORT_KEYS = ("support", "confidence", "lift")

#: The list endpoints' sort key when a request names none. Every run
#: indexes it, even one whose records carry no scores at all.
DEFAULT_SORT = "exclusiveness_confidence"


def _sorted_positions(index: dict[Any, list[int]]) -> dict[Any, tuple[int, ...]]:
    return {key: tuple(sorted(positions)) for key, positions in index.items()}


def intersect_sorted(lists: Sequence[Sequence[int]]) -> list[int]:
    """Intersect ascending position lists, smallest-first for early exit."""
    if not lists:
        return []
    ordered = sorted(lists, key=len)
    result = list(ordered[0])
    for other in ordered[1:]:
        if not result:
            break
        members = set(other)
        result = [p for p in result if p in members]
    return result


class PrefixTokenIndex:
    """Case-insensitive prefix lookup over labels, one entry per token.

    Built as a sorted list of ``(token, label)`` pairs per kind;
    a prefix query bisects to the first candidate and walks forward
    while the prefix still matches — O(log n + matches), no scan.
    Multi-token labels ("TRAGAL CITRATE") are reachable through any of
    their tokens, which is what an autocomplete box needs.
    """

    def __init__(self, labels_by_kind: dict[str, Iterable[str]]) -> None:
        self._tokens: dict[str, list[tuple[str, str]]] = {}
        for kind, labels in labels_by_kind.items():
            pairs: set[tuple[str, str]] = set()
            for label in labels:
                for token in label.lower().split():
                    pairs.add((token, label))
            self._tokens[kind] = sorted(pairs)

    @property
    def kinds(self) -> tuple[str, ...]:
        return tuple(sorted(self._tokens))

    def lookup(self, prefix: str, *, kind: str | None = None) -> list[tuple[str, str]]:
        """All ``(kind, label)`` pairs with a token starting with ``prefix``."""
        prefix = prefix.lower().strip()
        if not prefix:
            return []
        kinds = (kind,) if kind is not None else self.kinds
        matches: set[tuple[str, str]] = set()
        for current in kinds:
            pairs = self._tokens.get(current, [])
            start = bisect_left(pairs, (prefix, ""))
            for token, label in pairs[start:]:
                if not token.startswith(prefix):
                    break
                matches.add((current, label))
        return sorted(matches)


class RunIndexes:
    """The full index set of one run snapshot.

    Attributes
    ----------
    by_id:
        stable cluster/association id → record position.
    by_drug / by_adr:
        label → ascending record positions mentioning it.
    by_pair:
        sorted drug-label pair → positions of MCACs whose target
        antecedent contains both drugs.
    order_by:
        sort key (``support``/``confidence``/``lift``,
        :data:`DEFAULT_SORT`, and every score name present in the
        records) → all positions, best-first with
        deterministic label tie-breaks. Unfiltered sorted queries are a
        slice of one of these. The key set is fixed at build time; each
        key's order is sorted on its first lookup (a
        :class:`RankedOrders`), so a refreshed snapshot pays only for
        the orders its requests read.
    prefixes:
        the :class:`PrefixTokenIndex` over drug and ADR labels.
    """

    __slots__ = ("by_id", "by_drug", "by_adr", "by_pair", "order_by", "prefixes")

    def __init__(self, records: Sequence[dict[str, Any]]) -> None:
        by_id: dict[str, int] = {}
        by_drug: dict[str, list[int]] = {}
        by_adr: dict[str, list[int]] = {}
        by_pair: dict[tuple[str, str], list[int]] = {}
        score_names: set[str] = set()
        for position, record in enumerate(records):
            by_id[record["id"]] = position
            drugs = record["drugs"]
            for drug in drugs:
                by_drug.setdefault(drug, []).append(position)
            for adr in record["adrs"]:
                by_adr.setdefault(adr, []).append(position)
            for pair in combinations(sorted(drugs), 2):
                by_pair.setdefault(pair, []).append(position)
            score_names.update(record.get("scores", ()))
        self.by_id = by_id
        self.by_drug = _sorted_positions(by_drug)
        self.by_adr = _sorted_positions(by_adr)
        self.by_pair = _sorted_positions(by_pair)
        self.order_by = RankedOrders(
            records, (*BASE_SORT_KEYS, *sorted(score_names | {DEFAULT_SORT}))
        )
        self.prefixes = PrefixTokenIndex(
            {"drug": by_drug.keys(), "adr": by_adr.keys()}
        )

    @property
    def sort_keys(self) -> tuple[str, ...]:
        return tuple(sorted(self.order_by))


def sort_value(record: dict[str, Any], key: str) -> float:
    """The value record sorts under ``key`` (score names fall back to 0)."""
    if key in BASE_SORT_KEYS:
        return float(record[key])
    return float(record.get("scores", {}).get(key, 0.0))


def rank_positions(
    records: Sequence[dict[str, Any]],
    positions: Iterable[int],
    key: str,
    *,
    descending: bool = True,
) -> list[int]:
    """Order ``positions`` by ``key`` with deterministic tie-breaks."""
    sign = -1.0 if descending else 1.0
    return sorted(
        positions,
        key=lambda p: (
            sign * sort_value(records[p], key),
            tuple(records[p]["drugs"]),
            tuple(records[p]["adrs"]),
        ),
    )


class RankedOrders(Mapping):
    """Sort key → every record position best-first, sorted on first lookup.

    A read-only mapping over a fixed key set: membership, iteration and
    ``len`` never sort; ``order[key]`` sorts that key once and memoises
    it. Concurrent first lookups of one key may both sort; the orders
    are deterministic, so whichever is stored last is the same tuple.
    """

    __slots__ = ("_records", "_keys", "_orders")

    def __init__(
        self, records: Sequence[dict[str, Any]], keys: Iterable[str]
    ) -> None:
        self._records = records
        self._keys = dict.fromkeys(keys)
        self._orders: dict[str, tuple[int, ...]] = {}

    def __getitem__(self, key: str) -> tuple[int, ...]:
        order = self._orders.get(key)
        if order is None:
            if key not in self._keys:
                raise KeyError(key)
            records = self._records
            order = tuple(rank_positions(records, range(len(records)), key))
            self._orders[key] = order
        return order

    def __contains__(self, key: object) -> bool:
        return key in self._keys

    def __iter__(self) -> Iterator[str]:
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)
