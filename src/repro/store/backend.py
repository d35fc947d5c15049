"""The durable-store abstraction: named runs behind a URI.

A :class:`Backend` is the persistence substrate every other layer sits
on: the serving tier's :class:`~repro.serve.store.ResultStore` saves and
loads run snapshots through it, ``mediar watch --store`` checkpoints the
incremental engine into it, and the ``mediar runs`` CLI inspects it.
Two implementations ship:

- :class:`~repro.store.directory.DirectoryBackend` — the historical
  one-JSON-file-per-run layout (``dir:///path`` or a bare path), now
  with crash-safe atomic writes;
- :class:`~repro.store.sqlite.SQLiteBackend` — a single WAL-mode
  SQLite file (``sqlite:///path.db``) holding a versioned run catalog
  with retention/compaction plus the engine checkpoint (one row per
  record, so a batch commits only what it changed) and batch journal
  that make a SIGKILL'd surveillance stream resumable.

Backends are addressed by URI so every entry point (``ResultStore.
save``/``load``, ``mediar serve --store``, ``mediar watch --store``,
``mediar runs``) takes one string and :func:`open_backend` picks the
implementation.
"""

from __future__ import annotations

import re
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import StoreError

_RUN_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def validate_run_name(name: str) -> str:
    """Run names become file names, URL values and catalog keys."""
    if not isinstance(name, str) or not _RUN_NAME.match(name):
        raise StoreError(
            "run names must be alphanumeric with ._- separators "
            f"(they become file names and URL values), got {name!r}"
        )
    return name


def utc_timestamp() -> str:
    """The catalog's ``created_at`` format (UTC, second resolution)."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


@dataclass(frozen=True, slots=True)
class RunRecord:
    """One catalog row: a named, versioned snapshot.

    ``location`` is backend-specific — the JSON file path for the
    directory backend, a ``sqlite:///db#name@vN`` fragment for SQLite —
    and exists so CLIs can print where a save landed. ``compacted``
    marks rows whose payload body was dropped by
    :meth:`Backend.compact`; they stay listable but not loadable.
    """

    name: str
    version: int
    created_at: str
    supersedes: int | None  # version number this row replaced, if any
    n_clusters: int
    quarter: str
    compacted: bool
    location: Any

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "version": self.version,
            "created_at": self.created_at,
            "supersedes": self.supersedes,
            "n_clusters": self.n_clusters,
            "quarter": self.quarter,
            "compacted": self.compacted,
        }


@dataclass(frozen=True, slots=True)
class Checkpoint:
    """A restorable surveillance state, as stored by a backend.

    ``state`` is the whole state, with ``records`` as a position →
    record mapping in position order; ``commit_id`` names the commit
    that wrote it last (None for a checkpoint of layout version 1,
    written before commits had ids).
    """

    run: str
    n_batches: int
    fingerprint: str
    updated_at: str
    state: dict[str, Any]
    commit_id: str | None


@dataclass(frozen=True, slots=True)
class JournalEntry:
    """The raw case ids one ingested batch contained (resume guard)."""

    batch_index: int
    case_ids: list[str] = field(default_factory=list)


class Backend(ABC):
    """Durable storage for named run snapshots and surveillance state.

    Run-catalog methods are mandatory; the checkpoint/journal family is
    optional (``supports_checkpoints``) — only the SQLite backend can
    commit a checkpoint and its journal rows atomically, which the
    crash-resume contract requires.
    """

    #: URI this backend was opened from (echoed in errors and CLIs).
    uri: str

    supports_checkpoints: bool = False

    # -- run catalog ---------------------------------------------------

    @abstractmethod
    def save_run(self, name: str, payload: dict[str, Any]) -> RunRecord:
        """Persist one snapshot payload atomically; returns its record.

        Saving an existing name creates a new version that supersedes
        the previous one (the directory backend, which has no version
        axis, replaces the file in place and reports version 1).
        """

    @abstractmethod
    def load_run(self, name: str, version: int | None = None) -> dict[str, Any]:
        """The payload of ``name`` (latest version unless pinned).

        Raises :class:`~repro.errors.StoreError` for unknown runs,
        compacted payloads, and undecodable stored bytes.
        """

    @abstractmethod
    def list_runs(self) -> list[RunRecord]:
        """Every catalog row, ordered by (name, version)."""

    def run_names(self) -> list[str]:
        """Distinct run names with at least one loadable version."""
        names = {
            record.name for record in self.list_runs() if not record.compacted
        }
        return sorted(names)

    @abstractmethod
    def prune(self, keep: int = 1) -> int:
        """Drop catalog rows beyond the newest ``keep`` versions per run.

        Returns the number of rows deleted. The directory backend holds
        one version per run, so it always returns 0.
        """

    @abstractmethod
    def compact(self) -> int:
        """Drop the payload bodies of superseded versions, keep the rows.

        Returns the number of payloads dropped. Catalog metadata
        (version, created_at, supersedes) stays queryable after
        compaction; only the latest version of each run remains
        loadable.
        """

    # -- surveillance checkpoints --------------------------------------

    def _no_checkpoints(self) -> StoreError:
        return StoreError(
            f"{type(self).__name__} does not support checkpoints; "
            "use a sqlite:///path.db store for crash-resumable surveillance"
        )

    def save_checkpoint(
        self,
        run: str,
        state: dict[str, Any],
        *,
        n_batches: int,
        fingerprint: str,
        commit_id: str,
        parent: str | None = None,
        journal: list[JournalEntry] = (),
    ) -> None:
        """Atomically commit a checkpoint + the batches' journal rows.

        ``state["records"]`` maps positions to records and
        ``state["seen_case_ids"]`` lists case ids; the rest of ``state``
        is its header. Without ``parent`` the state is whole and
        replaces the run's checkpoint. With ``parent``, which must still
        be the run's last commit under the same fingerprint, the state
        is a delta: its records are written over their positions, its
        case ids are appended, and its header replaces the stored one.
        Either way the run's last commit becomes ``commit_id``.
        """
        raise self._no_checkpoints()

    def checkpoint_commit(self, run: str) -> str | None:
        """The id of the last commit to ``run``'s checkpoint, or None."""
        raise self._no_checkpoints()

    def load_checkpoint(self, run: str) -> Checkpoint | None:
        """The latest checkpoint of ``run``, or None when there is none."""
        raise self._no_checkpoints()

    def journal_case_ids(self, run: str, batch_index: int) -> list[str] | None:
        """The journaled case ids of one ingested batch (None if absent)."""
        raise self._no_checkpoints()

    def clear_checkpoint(self, run: str) -> None:
        """Drop the checkpoint and journal of ``run`` (idempotent)."""
        raise self._no_checkpoints()

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Release any held resources (idempotent)."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def open_backend(target: str | Path) -> Backend:
    """Resolve a store URI (or bare path) to a backend instance.

    - ``sqlite:///abs/path.db`` / ``sqlite://rel/path.db`` → SQLite;
    - ``dir:///abs/path`` / ``dir://rel/path`` → directory layout;
    - anything else is a filesystem path → directory layout (the
      pre-URI calling convention of ``ResultStore.save``/``load``).
    """
    from repro.store.directory import DirectoryBackend
    from repro.store.sqlite import SQLiteBackend

    text = str(target)
    for scheme, cls in (("sqlite://", SQLiteBackend), ("dir://", DirectoryBackend)):
        if text.startswith(scheme):
            path = text[len(scheme):]
            if not path:
                raise StoreError(f"store URI {text!r} has an empty path")
            return cls(path)
    if "://" in text:
        scheme = text.split("://", 1)[0]
        raise StoreError(
            f"unknown store scheme {scheme!r} in {text!r} "
            "(expected sqlite:// or dir://)"
        )
    return DirectoryBackend(target)
