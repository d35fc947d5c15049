"""Precomputed response *bytes* for the hot serving endpoints.

The query engine's LRU caches Python dicts, which still leaves a full
``json.dumps`` on every request — at "millions of users" traffic the
serializer, not the index probe, dominates the hot path. This module
removes it: every id-addressed resource (``/v1/clusters/<id>`` and its
``assoc-`` alias, ``/v1/drugs/<name>``) and every default-shaped
listing page (first page, default limit, descending, one per sort key,
for both ``/v1/associations`` and ``/v1/clusters``) is rendered to wire
bytes **once per snapshot**, together with its strong ETag, on the
first request that asks for it. Later requests matching those keys are
answered by a dict probe returning a ready ``bytes`` object — zero
per-request JSON encoding, which ``/v1/metrics`` proves via the
``serve.responses.precomputed`` vs ``serve.responses.encoded``
counters. Parameterized long-tail queries keep going through the
engine and its LRU.

Rendering on first request is what makes a refresh cheap: every
appended stream batch changes ``n_total``, so every record's lift and
exclusiveness-with-lift change and no entry of the previous snapshot's
table can be reused, yet the request that follows a refresh typically
reads one page. :meth:`SnapshotBytes.warm` renders the whole table
up front instead; ``mediar serve`` calls it (via
:meth:`~repro.serve.api.ApiResponder.warm`) before forking, so serving
workers share a fully primed table copy-on-write.

Consistency: a table renders from exactly one immutable
:class:`~repro.serve.store.RunSnapshot`, and the directory swaps whole
tables keyed by the snapshot's process-unique ``token``. A reader that
resolved the old snapshot keeps serving the old snapshot's bytes; a
reader that resolves the new one gets the new table — there is no state
in which one response mixes two snapshots (the torn-response hammer in
``tests/serve/test_refresh.py`` drives this under load). Two threads
rendering the same entry at once produce identical bytes, so the race
is benign: the first insert is kept and counted.

ETags are the SHA-256 of the response body, *not* the cluster's stable
id: the id only hashes the rule's drug/ADR labels, while a refresh can
change support counts under the same id — a strong validator must
cover the representation, so a 304 is returned exactly when the bytes
the client holds are the bytes it would receive.
"""

from __future__ import annotations

import hashlib
import json
import threading
from typing import Any

from repro.core.ids import ASSOCIATION_PREFIX
from repro.serve.engine import (
    DEFAULT_PAGE_SIZE,
    association_view,
    cluster_position,
    cluster_view,
    drug_payload,
    page_payload,
    spec_key,
)

#: Tables kept for distinct snapshot tokens before the oldest is
#: evicted — a backstop against the (tiny) race where a request holding
#: a just-replaced snapshot recreates its table after invalidation.
MAX_TABLES = 8


def encode_payload(payload: dict[str, Any]) -> bytes:
    """The one wire encoding of the API (shared by every response path)."""
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def strong_etag(body: bytes) -> str:
    """A strong validator: quoted SHA-256 content hash of the body."""
    return f'"{hashlib.sha256(body).hexdigest()[:32]}"'


def _default_spec(sort: str) -> dict[str, Any]:
    """The canonical spec of a default-shaped listing page under ``sort``."""
    return {"sort": sort, "order": "desc", "limit": DEFAULT_PAGE_SIZE, "offset": 0}


#: The listing endpoints whose default-shaped pages are precomputed.
_VIEWS = {"associations": association_view, "clusters": cluster_view}


class SnapshotBytes:
    """The precomputed hot-path responses of one run snapshot.

    Three probe surfaces, all returning ``(body, etag)`` with
    ``etag is None`` for listing pages (conditional GETs are an
    id-addressed contract), or ``None`` for a key outside the table:

    - :meth:`cluster` — stable cluster id or its association alias
      (one shared entry, counted under both keys);
    - :meth:`drug` — canonical drug label;
    - :meth:`page` — canonical spec key of a default-shaped listing.

    Each entry is rendered on its first probe and memoised; :meth:`warm`
    renders them all. ``n_entries`` and ``n_bytes`` count what has been
    rendered so far, updated under the table's lock as entries land, so
    a metrics reader never iterates a dict another thread is filling.
    """

    __slots__ = ("token", "n_entries", "n_bytes", "_snapshot", "_entries", "_lock")

    def __init__(self, snapshot) -> None:
        self.token = snapshot.token
        self.n_entries = 0
        self.n_bytes = 0
        self._snapshot = snapshot
        self._entries: dict[tuple, tuple[bytes, str | None]] = {}
        self._lock = threading.Lock()

    def cluster(self, cluster_id: str) -> tuple[bytes, str] | None:
        entry = self._entries.get(("cluster", cluster_id))
        if entry is not None:
            return entry
        snapshot = self._snapshot
        position = cluster_position(snapshot, cluster_id)
        if position is None:
            return None
        record = snapshot.records[position]
        payload = cluster_view(record)
        payload["run"] = snapshot.name
        body = encode_payload(payload)
        digest = record["id"].split("-", 1)[1]
        return self._insert(
            (("cluster", record["id"]), ("cluster", f"{ASSOCIATION_PREFIX}-{digest}")),
            (body, strong_etag(body)),
        )

    def drug(self, name: str) -> tuple[bytes, str] | None:
        entry = self._entries.get(("drug", name))
        if entry is not None:
            return entry
        if name not in self._snapshot.indexes.by_drug:
            return None
        body = encode_payload(drug_payload(self._snapshot, name))
        return self._insert((("drug", name),), (body, strong_etag(body)))

    def page(self, endpoint: str, key: tuple) -> tuple[bytes, None] | None:
        entry = self._entries.get((endpoint, key))
        if entry is not None:
            return entry
        view = _VIEWS.get(endpoint)
        sort = dict(key).get("sort")
        spec = _default_spec(sort)
        if (
            view is None
            or sort not in self._snapshot.indexes.order_by
            or key != spec_key(spec)
        ):
            return None
        body = encode_payload(page_payload(self._snapshot, spec, view))
        return self._insert(((endpoint, key),), (body, None))

    def warm(self) -> int:
        """Render every entry of the table; returns ``n_entries``."""
        snapshot = self._snapshot
        for record in snapshot.records:
            self.cluster(record["id"])
        for name in snapshot.indexes.by_drug:
            self.drug(name)
        for endpoint in _VIEWS:
            for sort in snapshot.indexes.sort_keys:
                self.page(endpoint, spec_key(_default_spec(sort)))
        return self.n_entries

    def _insert(self, keys: tuple[tuple, ...], entry):
        # Concurrent first renders of one key produce identical bytes;
        # the first insert wins and only it is counted.
        with self._lock:
            for key in keys:
                if key not in self._entries:
                    self._entries[key] = entry
                    self.n_entries += 1
                    self.n_bytes += len(entry[0])
        return entry


class ByteCacheDirectory:
    """Snapshot token → :class:`SnapshotBytes`, swapped atomically.

    A table is created empty on the first hot-path request that sees a
    snapshot, fills entry by entry as requests (or
    :meth:`SnapshotBytes.warm`) render them, and is shared by every
    transport and worker thread. :meth:`invalidate` — wired to
    :meth:`ResultStore.subscribe` — drops a replaced snapshot's whole
    table in one dict deletion, so post-refresh requests can never be
    answered from superseded bytes.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tables: dict[int, SnapshotBytes] = {}
        self.builds = 0

    def for_snapshot(self, snapshot) -> SnapshotBytes:
        table = self._tables.get(snapshot.token)
        if table is not None:
            return table
        with self._lock:
            table = self._tables.get(snapshot.token)
            if table is None:
                table = SnapshotBytes(snapshot)
                self._tables[snapshot.token] = table
                self.builds += 1
                while len(self._tables) > MAX_TABLES:
                    del self._tables[next(iter(self._tables))]
        return table

    def invalidate(self, token: int) -> bool:
        """Drop the table of snapshot ``token``; True if one was held."""
        with self._lock:
            return self._tables.pop(token, None) is not None

    def stats(self) -> dict[str, int]:
        """Size accounting for ``/v1/metrics``: entries rendered so far."""
        with self._lock:
            tables = list(self._tables.values())
        return {
            "tables": len(tables),
            "entries": sum(table.n_entries for table in tables),
            "bytes": sum(table.n_bytes for table in tables),
            "builds": self.builds,
        }
