"""Named, immutable run snapshots and the store that serves them.

A :class:`RunSnapshot` is one mined quarter (or any named
:class:`~repro.core.pipeline.MarasResult`) frozen into the versioned
export wire format of :mod:`repro.core.export`, with stable cluster ids
and the full :class:`~repro.serve.indexes.RunIndexes` built on top. A
:class:`ResultStore` holds any number of snapshots keyed by run name —
one per FAERS quarter in the intended deployment — and can persist them
to a directory and load them back for warm restarts.

The snapshot *always* goes through the export format, even when built
from a live in-process result. That single normalization step is what
makes the round-trip guarantee trivial: a query served from a freshly
mined run and the same query served after ``save`` → ``load`` read the
exact same records, so the responses are byte-identical.
"""

from __future__ import annotations

import json
import threading
from itertools import count
from pathlib import Path
from typing import Any

from repro.core.export import FORMAT_VERSION, export_result
from repro.core.ids import cluster_id
from repro.core.pipeline import MarasResult
from repro.errors import ConfigError, NotFoundError, StoreError, ValidationError
from repro.runtime import collector_paused
from repro.serve.indexes import RunIndexes
from repro.store import open_backend, validate_run_name


def _validated_name(name: str) -> str:
    # One source of truth for the name grammar (repro.store), surfaced
    # as the serving layer's ConfigError.
    try:
        return validate_run_name(name)
    except StoreError as error:
        raise ConfigError(str(error)) from None


class RunSnapshot:
    """One named run in serving form: export payload + indexes.

    Immutable once built; every consumer (engine threads, the metrics
    endpoint, a save in progress) reads the same tuples and dicts.
    ``token`` is a process-unique sequence number: response-cache keys
    include it, so re-registering a run under the same name can never
    serve a stale cached page.
    """

    __slots__ = ("name", "payload", "records", "indexes", "token")

    _sequence = count()

    def __init__(self, name: str, payload: dict[str, Any]) -> None:
        self.token = next(self._sequence)
        version = payload.get("format_version")
        if version != FORMAT_VERSION:
            raise ValidationError(
                f"unsupported export format version {version!r} "
                f"(this store reads version {FORMAT_VERSION})"
            )
        self.name = _validated_name(name)
        records = []
        for record in payload["clusters"]:
            if "id" not in record:
                # Pre-stable-id exports: the id is a pure content hash,
                # so computing it now matches what export_result writes.
                record = {
                    "id": cluster_id(record["drugs"], record["adrs"]),
                    **record,
                }
            records.append(record)
        self.payload = {**payload, "clusters": records}
        self.records = tuple(records)
        self.indexes = RunIndexes(self.records)

    @classmethod
    def from_result(
        cls, name: str, result: MarasResult, *, include_case_ids: bool = True
    ) -> "RunSnapshot":
        """Snapshot a live pipeline result through the export format."""
        return cls(name, export_result(result, include_case_ids=include_case_ids))

    @property
    def quarter(self) -> str:
        return self.payload.get("quarter", "")

    @property
    def n_clusters(self) -> int:
        return len(self.records)

    def describe(self) -> dict[str, Any]:
        """The ``/v1/runs`` row of this snapshot."""
        return {
            "name": self.name,
            "quarter": self.quarter,
            "n_clusters": self.n_clusters,
            "dataset": dict(self.payload.get("dataset", {})),
            "config": dict(self.payload.get("config", {})),
            "sort_keys": list(self.indexes.sort_keys),
        }


class ResultStore:
    """Named run snapshots, with directory persistence for warm restarts.

    Registration is serialized by a lock; reads go through an atomically
    swapped dict reference so query threads never block on a writer.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._runs: dict[str, RunSnapshot] = {}
        self._subscribers: list[Any] = []

    def subscribe(self, callback) -> None:
        """Register ``callback(old, new)`` to fire when a run is replaced.

        ``old`` is the snapshot being superseded, ``new`` its
        replacement. First registrations (no previous snapshot under
        the name) do not notify. Callbacks run outside the store lock,
        in registration order, on the thread that performed the swap —
        the query-engine cache invalidation hangs off this.
        """
        with self._lock:
            self._subscribers.append(callback)

    @collector_paused()
    def add_result(
        self,
        name: str,
        result: MarasResult,
        *,
        include_case_ids: bool = True,
    ) -> RunSnapshot:
        """Snapshot and register a live result under ``name``."""
        return self.add_snapshot(
            RunSnapshot.from_result(name, result, include_case_ids=include_case_ids)
        )

    def add_export(self, name: str, source: str | Path | dict[str, Any]) -> RunSnapshot:
        """Register a run from an export payload (path or parsed dict)."""
        if isinstance(source, (str, Path)):
            payload = json.loads(Path(source).read_text(encoding="utf-8"))
        else:
            payload = source
        return self.add_snapshot(RunSnapshot(name, payload))

    def add_snapshot(self, snapshot: RunSnapshot) -> RunSnapshot:
        with self._lock:
            runs = dict(self._runs)
            old = runs.get(snapshot.name)
            runs[snapshot.name] = snapshot
            self._runs = runs
            subscribers = tuple(self._subscribers)
        if old is not None:
            for callback in subscribers:
                callback(old, snapshot)
        return snapshot

    def refresh(
        self,
        name: str,
        result: MarasResult,
        *,
        include_case_ids: bool = True,
    ) -> RunSnapshot:
        """Replace an *existing* run with a re-mined result, atomically.

        The surveillance path: a monitor ingests a batch, and the
        serving layer swaps the run in place. The snapshot (export
        normalization + index build) is constructed entirely outside
        the lock; readers see either the old or the new snapshot, never
        a partial one, and subscribers (cache invalidation) fire after
        the swap. Unknown names raise :class:`NotFoundError` — use
        :meth:`add_result` to register a new run.
        """
        if name not in self._runs:
            raise NotFoundError(
                f"cannot refresh unknown run {name!r}; "
                f"have {sorted(self._runs) or 'no runs'}"
            )
        return self.add_result(name, result, include_case_ids=include_case_ids)

    @collector_paused()
    def refresh_from(
        self,
        name: str,
        monitor,
        *,
        include_case_ids: bool = True,
    ) -> RunSnapshot:
        """Refresh ``name`` from a surveillance monitor's latest result.

        The warm-refresh wiring for a serving process that also ingests:
        keep ONE long-lived ``SurveillanceMonitor`` next to the store
        and call this after each ``monitor.ingest(batch)``. The
        monitor's incremental engine carries the closed itemsets over
        from batch to batch and re-mines only the delta, in-process.
        Constructing a fresh monitor per refresh works but forfeits
        that: every mine is a full mine.
        """
        return self.refresh(
            name, monitor.result, include_case_ids=include_case_ids
        )

    def get(self, name: str) -> RunSnapshot:
        """The snapshot named ``name``; :class:`NotFoundError` if absent."""
        snapshot = self._runs.get(name)
        if snapshot is None:
            raise NotFoundError(
                f"unknown run {name!r}; have {sorted(self._runs) or 'no runs'}"
            )
        return snapshot

    def names(self) -> list[str]:
        return sorted(self._runs)

    def __len__(self) -> int:
        return len(self._runs)

    def __contains__(self, name: str) -> bool:
        return name in self._runs

    def default_run(self) -> str:
        """The run a query may omit: the only one, else an explicit error."""
        runs = self._runs
        if len(runs) == 1:
            return next(iter(runs))
        if not runs:
            raise NotFoundError("the store holds no runs")
        raise NotFoundError(
            f"multiple runs available, pass run=<name>: {sorted(runs)}"
        )

    @collector_paused()
    def save(self, target: str | Path) -> list[Any]:
        """Persist every snapshot to the store at ``target``.

        ``target`` is a store URI (``dir:///path``, ``sqlite:///db``)
        or a bare directory path — the historical calling convention.
        Returns each saved run's location: the ``<name>.json`` file
        :class:`~pathlib.Path` for directory stores (written atomically
        via a temp file + ``os.replace``), a ``sqlite://…#name@vN``
        string for SQLite catalogs.
        """
        with open_backend(target) as backend:
            return [
                backend.save_run(name, self._runs[name].payload).location
                for name in self.names()
            ]

    @classmethod
    def load(cls, target: str | Path) -> "ResultStore":
        """Rebuild a store from a :meth:`save` target (warm restart).

        Raises :class:`NotFoundError` when the store holds no runs and
        :class:`~repro.errors.StoreError` when a stored payload is
        unreadable or corrupt — both one-line diagnoses, so a serving
        process started against a bad store fails fast and explains
        itself.
        """
        with open_backend(target) as backend:
            names = sorted({record.name for record in backend.list_runs()})
            if not names:
                raise NotFoundError(f"no run snapshots in {backend.uri}")
            store = cls()
            for name in names:
                store.add_snapshot(RunSnapshot(name, backend.load_run(name)))
        return store
