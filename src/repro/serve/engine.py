"""The transport-agnostic query engine of the serving layer.

Every public method takes plain keyword parameters and returns a
JSON-compatible dict — the HTTP layer only parses query strings and
serializes; a notebook or test can call the engine directly and get the
exact payload a client would receive.

Request flow, in order:

1. **cache probe** — the canonicalized query key is looked up in the
   bounded :class:`~repro.serve.cache.LRUCache`; a hit skips everything
   below (and bumps ``serve.cache.hits``).
2. **index probe** — drug/ADR/pair/id criteria resolve to sorted
   position lists via :class:`~repro.serve.indexes.RunIndexes`;
   unfiltered sorted listings slice a precomputed best-first ordering.
   The full cluster list is never scanned at request time.
3. **predicate + page** — numeric floors (``min_support`` …) filter the
   candidates, then the pagination window is projected into response
   records.

Every query records a per-endpoint timer and counter into the active
:mod:`repro.obs` registry, which is what ``/v1/metrics`` surfaces.

The payload builders (:func:`cluster_payload`, :func:`drug_payload`,
:func:`page_payload`, :func:`search_payload`) and the parameter
validator (:func:`validated_params`) are module-level functions over an
immutable :class:`~repro.serve.store.RunSnapshot`: the engine's cached
methods delegate to them, and :mod:`repro.serve.bytecache` calls them
directly to precompute response bytes without touching the LRU — both
paths build byte-identical payloads because they *are* the same code.
"""

from __future__ import annotations

from typing import Any

from repro.core.ids import ASSOCIATION_PREFIX, CLUSTER_PREFIX
from repro.errors import BadQueryError, NotFoundError
from repro.obs import NULL_REGISTRY, MetricsRegistry, NullRegistry
from repro.serve.cache import LRUCache
from repro.serve.indexes import DEFAULT_SORT, intersect_sorted, rank_positions
from repro.serve.store import ResultStore, RunSnapshot

#: Hard ceiling on one page, so a single request cannot serialize an
#: entire quarter's clusters.
MAX_PAGE_SIZE = 500
DEFAULT_PAGE_SIZE = 20

_NUMERIC_FILTERS = ("min_support", "min_confidence", "min_lift")


def association_view(record: dict[str, Any]) -> dict[str, Any]:
    """The flat rule projection of one cluster record (``/v1/associations``)."""
    digest = record["id"].split("-", 1)[1]
    return {
        "id": f"{ASSOCIATION_PREFIX}-{digest}",
        "cluster_id": record["id"],
        "drugs": list(record["drugs"]),
        "adrs": list(record["adrs"]),
        "support": record["support"],
        "confidence": record["confidence"],
        "lift": record["lift"],
        "scores": dict(record["scores"]),
    }


def cluster_view(record: dict[str, Any]) -> dict[str, Any]:
    """The full MCAC projection, context levels included (``/v1/clusters``)."""
    view = association_view(record)
    view["id"] = record["id"]
    view["association_id"] = f"{ASSOCIATION_PREFIX}-{view['id'].split('-', 1)[1]}"
    del view["cluster_id"]
    view["context"] = [dict(rule) for rule in record.get("context", ())]
    if "case_ids" in record:
        view["case_ids"] = list(record["case_ids"])
    return view


# -- snapshot-level query functions -------------------------------------
#
# Pure functions of (immutable snapshot, validated parameters): the
# engine wraps them with run resolution + LRU caching, the byte-cache
# precomputes their output for the hot endpoints.


def _validated_int(value: Any, name: str, floor: int) -> int:
    try:
        value = int(value)
    except (TypeError, ValueError):
        raise BadQueryError(f"{name} must be an integer, got {value!r}") from None
    if value < floor:
        raise BadQueryError(f"{name} must be >= {floor}, got {value}")
    return value


def _validated_float(value: Any, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise BadQueryError(f"{name} must be a number, got {value!r}") from None


def validated_limit(value: Any) -> int:
    limit = _validated_int(value, "limit", 1)
    if limit > MAX_PAGE_SIZE:
        raise BadQueryError(f"limit must be <= {MAX_PAGE_SIZE}, got {limit}")
    return limit


def validated_params(snapshot, params: dict[str, Any]) -> dict[str, Any]:
    """Canonicalize list-endpoint parameters against one snapshot.

    The canonical spec is what response caches key on: two requests
    that differ only in parameter spelling (``limit=20`` explicit vs
    defaulted) resolve to the same spec, the same cache entry, and the
    same bytes.
    """
    known = {
        "drug", "adr", "sort", "order", "limit", "offset", *_NUMERIC_FILTERS,
    }
    unknown = set(params) - known
    if unknown:
        raise BadQueryError(
            f"unknown parameters {sorted(unknown)}; valid: {sorted(known)}"
        )
    sort = params.get("sort", DEFAULT_SORT)
    if sort not in snapshot.indexes.order_by:
        raise BadQueryError(
            f"unknown sort key {sort!r}; valid: {list(snapshot.indexes.sort_keys)}"
        )
    order = params.get("order", "desc")
    if order not in ("asc", "desc"):
        raise BadQueryError(f"order must be 'asc' or 'desc', got {order!r}")
    spec: dict[str, Any] = {
        "sort": sort,
        "order": order,
        "limit": validated_limit(params.get("limit", DEFAULT_PAGE_SIZE)),
        "offset": _validated_int(params.get("offset", 0), "offset", 0),
    }
    for name in ("drug", "adr"):
        if params.get(name) is not None:
            spec[name] = str(params[name])
    for name in _NUMERIC_FILTERS:
        if params.get(name) is not None:
            spec[name] = _validated_float(params[name], name)
    return spec


def spec_key(spec: dict[str, Any]) -> tuple:
    """The hashable cache key of one canonical parameter spec."""
    return tuple(sorted(spec.items()))


def candidate_positions(
    snapshot, spec: dict[str, Any]
) -> list[int] | tuple[int, ...]:
    """Resolve index probes; ``None`` criteria select everything."""
    indexes = snapshot.indexes
    probes = []
    if "drug" in spec:
        probes.append(indexes.by_drug.get(spec["drug"], ()))
    if "adr" in spec:
        probes.append(indexes.by_adr.get(spec["adr"], ()))
    if not probes:
        ordered = indexes.order_by[spec["sort"]]
        return ordered if spec["order"] == "desc" else ordered[::-1]
    positions = intersect_sorted(probes)
    return rank_positions(
        snapshot.records,
        positions,
        spec["sort"],
        descending=spec["order"] == "desc",
    )


def page_payload(snapshot, spec: dict[str, Any], view) -> dict[str, Any]:
    """One listing page (``/v1/associations`` / ``/v1/clusters``)."""
    records = snapshot.records
    positions = candidate_positions(snapshot, spec)
    floors = [
        (name.removeprefix("min_"), spec[name])
        for name in _NUMERIC_FILTERS
        if name in spec
    ]
    if floors:
        positions = [
            p
            for p in positions
            if all(records[p][field] >= floor for field, floor in floors)
        ]
    total = len(positions)
    offset, limit = spec["offset"], spec["limit"]
    window = positions[offset : offset + limit]
    items = [view(records[p]) for p in window]
    return {
        "run": snapshot.name,
        "total": total,
        "offset": offset,
        "limit": limit,
        "count": len(items),
        "sort": spec["sort"],
        "order": spec["order"],
        "items": items,
    }


def cluster_position(snapshot, cluster_id: str) -> int | None:
    """The record position of a stable cluster id or its association alias."""
    lookup = cluster_id
    if lookup.startswith(f"{ASSOCIATION_PREFIX}-"):
        lookup = f"{CLUSTER_PREFIX}-{lookup.split('-', 1)[1]}"
    return snapshot.indexes.by_id.get(lookup)


def cluster_payload(snapshot, cluster_id: str) -> dict[str, Any]:
    """One cluster by stable id (accepts the association alias too)."""
    position = cluster_position(snapshot, cluster_id)
    if position is None:
        raise NotFoundError(
            f"unknown cluster {cluster_id!r} in run {snapshot.name!r}"
        )
    payload = cluster_view(snapshot.records[position])
    payload["run"] = snapshot.name
    return payload


def drug_payload(snapshot, name: str) -> dict[str, Any]:
    """The ``/v1/drugs/<name>`` profile payload."""
    indexes = snapshot.indexes
    positions = indexes.by_drug.get(name)
    if positions is None:
        raise NotFoundError(f"unknown drug {name!r} in run {snapshot.name!r}")
    records = snapshot.records
    partners: dict[str, int] = {}
    adrs: dict[str, int] = {}
    for position in positions:
        record = records[position]
        for drug in record["drugs"]:
            if drug != name:
                partners[drug] = partners.get(drug, 0) + 1
        for adr in record["adrs"]:
            adrs[adr] = adrs.get(adr, 0) + 1
    ranked = rank_positions(records, positions, DEFAULT_SORT)
    return {
        "run": snapshot.name,
        "drug": name,
        "n_clusters": len(positions),
        "partners": [
            {"drug": drug, "n_clusters": count}
            for drug, count in sorted(
                partners.items(), key=lambda kv: (-kv[1], kv[0])
            )
        ],
        "adrs": [
            {"adr": adr, "n_clusters": count}
            for adr, count in sorted(adrs.items(), key=lambda kv: (-kv[1], kv[0]))
        ],
        "cluster_ids": [records[p]["id"] for p in ranked],
    }


def search_payload(
    snapshot, query: str, kind: str | None, limit: int
) -> dict[str, Any]:
    """The prefix-token vocabulary search payload."""
    indexes = snapshot.indexes
    matches = []
    for match_kind, label in indexes.prefixes.lookup(query, kind=kind):
        positions = (
            indexes.by_drug if match_kind == "drug" else indexes.by_adr
        ).get(label, ())
        matches.append(
            {
                "kind": match_kind,
                "label": label,
                "n_clusters": len(positions),
                "cluster_ids": [snapshot.records[p]["id"] for p in positions],
            }
        )
    matches.sort(key=lambda m: (-m["n_clusters"], m["kind"], m["label"]))
    return {
        "run": snapshot.name,
        "query": query,
        "total": len(matches),
        "matches": matches[:limit],
    }


class QueryEngine:
    """Paginated, sorted, filtered queries over a :class:`ResultStore`."""

    def __init__(
        self,
        store: ResultStore,
        *,
        cache_size: int = 512,
        registry: MetricsRegistry | NullRegistry | None = None,
    ) -> None:
        self.store = store
        self.cache = LRUCache(maxsize=cache_size)
        self.registry = registry if registry is not None else NULL_REGISTRY
        # When a run is refreshed in place, drop exactly that run's
        # cached pages (keys lead with the snapshot token).
        store.subscribe(self._run_replaced)

    # -- public queries -------------------------------------------------

    def runs(self) -> dict[str, Any]:
        """The ``/v1/runs`` listing (never cached: it is the cheap query)."""
        with self.registry.timer("serve.query.runs"):
            return {"runs": [self.store.get(n).describe() for n in self.store.names()]}

    def associations(self, *, run: str | None = None, **params) -> dict[str, Any]:
        """Flat drug→ADR association listing."""
        return self._paged_query("associations", run, association_view, params)

    def clusters(self, *, run: str | None = None, **params) -> dict[str, Any]:
        """MCAC listing with full context levels."""
        return self._paged_query("clusters", run, cluster_view, params)

    def cluster(self, cluster_id: str, *, run: str | None = None) -> dict[str, Any]:
        """One cluster by stable id (accepts the association alias too)."""
        snapshot = self.resolve(run)
        key = (snapshot.token, "cluster", cluster_id)
        return self._cached(key, "cluster", cluster_payload, snapshot, cluster_id)

    def drug(self, name: str, *, run: str | None = None) -> dict[str, Any]:
        """The ``/v1/drugs/<name>`` profile: partners, ADRs, clusters."""
        snapshot = self.resolve(run)
        key = (snapshot.token, "drug", name)
        return self._cached(key, "drug", drug_payload, snapshot, name)

    def search(
        self,
        query: str,
        *,
        run: str | None = None,
        kind: str | None = None,
        limit: int = DEFAULT_PAGE_SIZE,
    ) -> dict[str, Any]:
        """Prefix-token search over the run's drug/ADR vocabulary."""
        if not query or not query.strip():
            raise BadQueryError("search requires a non-empty q parameter")
        if kind is not None and kind not in ("drug", "adr"):
            raise BadQueryError(f"kind must be 'drug' or 'adr', got {kind!r}")
        limit = validated_limit(limit)
        snapshot = self.resolve(run)
        key = (snapshot.token, "search", query.strip().lower(), kind, limit)
        return self._cached(
            key, "search", search_payload, snapshot, query, kind, limit
        )

    def cache_stats(self) -> dict[str, Any]:
        """The LRU cache's accounting, for ``/v1/metrics``."""
        stats = self.cache.stats()
        return {
            "hits": stats.hits,
            "misses": stats.misses,
            "evictions": stats.evictions,
            "size": stats.size,
            "maxsize": stats.maxsize,
            "hit_rate": round(stats.hit_rate, 4),
        }

    def refresh(self, name: str, result) -> RunSnapshot:
        """Swap run ``name`` to a re-mined result; stale cache entries go.

        Convenience over :meth:`ResultStore.refresh` — the store
        notifies this engine's subscription, which invalidates the
        replaced snapshot's cache entries before the call returns.
        """
        return self.store.refresh(name, result)

    # -- mechanics ------------------------------------------------------

    def _run_replaced(self, old: RunSnapshot, new: RunSnapshot) -> None:
        token = old.token
        dropped = self.cache.evict_where(
            lambda key: isinstance(key, tuple) and key and key[0] == token
        )
        self.registry.counter("serve.cache.invalidated").inc(dropped)

    def resolve(self, run: str | None = None) -> RunSnapshot:
        """The snapshot a query addresses (the store default when unnamed)."""
        return self.store.get(run if run is not None else self.store.default_run())

    def _cached(self, key, endpoint: str, build, *args) -> dict[str, Any]:
        self.registry.counter(f"serve.requests.{endpoint}").inc()
        cached = self.cache.get(key)
        if cached is not None:
            self.registry.counter("serve.cache.hits").inc()
            return cached
        self.registry.counter("serve.cache.misses").inc()
        with self.registry.timer(f"serve.query.{endpoint}"):
            payload = build(*args)
        self.cache.put(key, payload)
        return payload

    def _paged_query(
        self, endpoint: str, run: str | None, view, params: dict[str, Any]
    ) -> dict[str, Any]:
        snapshot = self.resolve(run)
        spec = validated_params(snapshot, params)
        key = (snapshot.token, endpoint, spec_key(spec))
        return self._cached(key, endpoint, page_payload, snapshot, spec, view)
