"""The stdlib-``sqlite3`` durable store: run catalog + checkpoints.

One WAL-mode SQLite file holds everything the durable tier needs:

``runs``
    The versioned run catalog. Saving a name inserts a new version row
    whose ``supersedes`` points at the previous one; readers load the
    newest non-compacted version. :meth:`SQLiteBackend.compact` nulls
    the payload bodies of superseded rows (keeping the catalog metadata
    queryable), :meth:`SQLiteBackend.prune` applies retention by
    deleting rows beyond the newest *keep* versions per run.

``checkpoints`` / ``checkpoint_records`` / ``checkpoint_seen`` / ``journal``
    Crash-resumable surveillance. A run's checkpoint is one
    ``checkpoints`` row (the small state header, its fingerprint and the
    id of its last commit), one ``checkpoint_records`` row per engine
    record (keyed by position) and one ``checkpoint_seen`` row per case
    id seen. After each ingested batch, ``mediar watch --store
    sqlite:///…`` commits only what the batch changed — its records
    written over their positions, its new case ids, the new header —
    and the journal rows of the batches it covers, in **one
    transaction**: a SIGKILL at any instant leaves either the previous
    consistent checkpoint or the new one, never a torn mix. Such a
    commit applies only on top of the commit it was computed against
    (compare-and-swap on the commit id); a whole state replaces the
    run's rows instead. On resume the journal is replayed against the
    input stream to verify the already-ingested prefix is the same
    data, then ingestion continues from the first unjournaled batch.

WAL mode keeps readers (a serving process loading snapshots) unblocked
by the writer (a watch process checkpointing); ``synchronous=NORMAL``
is crash-consistent for process kills — the contract the differential
harness enforces — while trading a fsync per commit against power-loss
durability, the standard WAL posture.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from pathlib import Path
from typing import Any

from repro.errors import StoreError
from repro.store.backend import (
    Backend,
    Checkpoint,
    JournalEntry,
    RunRecord,
    utc_timestamp,
    validate_run_name,
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    id          INTEGER PRIMARY KEY,
    name        TEXT NOT NULL,
    version     INTEGER NOT NULL,
    created_at  TEXT NOT NULL,
    supersedes  INTEGER,
    n_clusters  INTEGER NOT NULL,
    quarter     TEXT NOT NULL DEFAULT '',
    payload     TEXT,
    UNIQUE (name, version)
);
CREATE TABLE IF NOT EXISTS checkpoints (
    run         TEXT PRIMARY KEY,
    updated_at  TEXT NOT NULL,
    n_batches   INTEGER NOT NULL,
    fingerprint TEXT NOT NULL,
    state       TEXT NOT NULL,
    commit_id   TEXT
);
CREATE TABLE IF NOT EXISTS checkpoint_records (
    run         TEXT NOT NULL,
    position    INTEGER NOT NULL CHECK (position >= 0),
    record      TEXT NOT NULL,
    PRIMARY KEY (run, position)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS checkpoint_seen (
    seq         INTEGER PRIMARY KEY,
    run         TEXT NOT NULL,
    case_id     TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS checkpoint_seen_run ON checkpoint_seen (run, seq);
CREATE TABLE IF NOT EXISTS journal (
    run         TEXT NOT NULL,
    batch_index INTEGER NOT NULL,
    case_ids    TEXT NOT NULL,
    PRIMARY KEY (run, batch_index)
);
"""


class SQLiteBackend(Backend):
    """Versioned run catalog + surveillance checkpoints in one DB file."""

    supports_checkpoints = True

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.uri = f"sqlite://{self.path}"
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.is_dir():
            raise StoreError(f"{self.path} is a directory, not a SQLite file")
        try:
            # Autocommit mode; multi-statement writes use explicit
            # BEGIN IMMEDIATE so each logical operation is one commit.
            self._conn = sqlite3.connect(
                str(self.path), isolation_level=None, check_same_thread=False
            )
        except sqlite3.Error as error:
            raise StoreError(f"cannot open {self.path}: {error}") from None
        self._lock = threading.Lock()
        try:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute("PRAGMA foreign_keys=ON")
            self._conn.executescript(_SCHEMA)
            columns = {
                row[1]
                for row in self._conn.execute("PRAGMA table_info(checkpoints)")
            }
            if "commit_id" not in columns:  # a file from checkpoint layout v1
                self._conn.execute(
                    "ALTER TABLE checkpoints ADD COLUMN commit_id TEXT"
                )
        except sqlite3.DatabaseError as error:
            self._conn.close()
            raise StoreError(
                f"{self.path} is not a usable SQLite store ({error})"
            ) from None

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    # -- run catalog ---------------------------------------------------

    def save_run(self, name: str, payload: dict[str, Any]) -> RunRecord:
        validate_run_name(name)
        body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        n_clusters = len(payload.get("clusters", ()))
        quarter = str(payload.get("quarter", ""))
        created_at = utc_timestamp()
        with self._lock:
            try:
                self._conn.execute("BEGIN IMMEDIATE")
                row = self._conn.execute(
                    "SELECT version FROM runs WHERE name = ? "
                    "ORDER BY version DESC LIMIT 1",
                    (name,),
                ).fetchone()
                supersedes = row[0] if row else None
                version = (supersedes or 0) + 1
                self._conn.execute(
                    "INSERT INTO runs (name, version, created_at, supersedes,"
                    " n_clusters, quarter, payload) VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (
                        name,
                        version,
                        created_at,
                        supersedes,
                        n_clusters,
                        quarter,
                        body,
                    ),
                )
                self._conn.execute("COMMIT")
            except sqlite3.Error as error:
                self._rollback()
                raise StoreError(
                    f"cannot save run {name!r} to {self.path}: {error}"
                ) from None
        return RunRecord(
            name=name,
            version=version,
            created_at=created_at,
            supersedes=supersedes,
            n_clusters=n_clusters,
            quarter=quarter,
            compacted=False,
            location=f"{self.uri}#{name}@v{version}",
        )

    def load_run(self, name: str, version: int | None = None) -> dict[str, Any]:
        with self._lock:
            if version is None:
                row = self._conn.execute(
                    "SELECT version, payload FROM runs WHERE name = ? "
                    "ORDER BY version DESC LIMIT 1",
                    (name,),
                ).fetchone()
            else:
                row = self._conn.execute(
                    "SELECT version, payload FROM runs "
                    "WHERE name = ? AND version = ?",
                    (name, version),
                ).fetchone()
        if row is None:
            pinned = "" if version is None else f" version {version}"
            raise StoreError(f"no run named {name!r}{pinned} in {self.uri}")
        found_version, body = row
        if body is None:
            raise StoreError(
                f"run {name!r} version {found_version} was compacted; "
                "its payload body is gone (only catalog metadata remains)"
            )
        try:
            return json.loads(body)
        except json.JSONDecodeError as error:
            raise StoreError(
                f"run {name!r} version {found_version} in {self.path} "
                f"holds invalid JSON ({error})"
            ) from None

    def list_runs(self) -> list[RunRecord]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT name, version, created_at, supersedes, n_clusters,"
                " quarter, payload IS NULL FROM runs ORDER BY name, version"
            ).fetchall()
        return [
            RunRecord(
                name=name,
                version=version,
                created_at=created_at,
                supersedes=supersedes,
                n_clusters=n_clusters,
                quarter=quarter,
                compacted=bool(compacted),
                location=f"{self.uri}#{name}@v{version}",
            )
            for name, version, created_at, supersedes, n_clusters, quarter, compacted
            in rows
        ]

    def prune(self, keep: int = 1) -> int:
        if keep < 1:
            raise StoreError(f"prune keep must be >= 1, got {keep}")
        with self._lock:
            try:
                self._conn.execute("BEGIN IMMEDIATE")
                cursor = self._conn.execute(
                    "DELETE FROM runs WHERE (name, version) NOT IN ("
                    " SELECT name, version FROM ("
                    "  SELECT name, version, ROW_NUMBER() OVER ("
                    "   PARTITION BY name ORDER BY version DESC) AS rank"
                    "  FROM runs) WHERE rank <= ?)",
                    (keep,),
                )
                deleted = cursor.rowcount
                self._conn.execute("COMMIT")
            except sqlite3.Error as error:
                self._rollback()
                raise StoreError(f"prune failed on {self.path}: {error}") from None
        return deleted

    def compact(self) -> int:
        """Null superseded payload bodies; reclaim the file with VACUUM."""
        with self._lock:
            try:
                self._conn.execute("BEGIN IMMEDIATE")
                cursor = self._conn.execute(
                    "UPDATE runs SET payload = NULL WHERE payload IS NOT NULL"
                    " AND (name, version) NOT IN ("
                    "  SELECT name, MAX(version) FROM runs GROUP BY name)"
                )
                dropped = cursor.rowcount
                self._conn.execute("COMMIT")
                if dropped:
                    # VACUUM rewrites the main file; the WAL truncate
                    # folds it in so the reclaim shows up on disk.
                    self._conn.execute("VACUUM")
                    self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            except sqlite3.Error as error:
                self._rollback()
                raise StoreError(f"compact failed on {self.path}: {error}") from None
        return dropped

    # -- surveillance checkpoints --------------------------------------

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
        validate_run_name(run)
        header = {
            key: value
            for key, value in state.items()
            if key not in ("records", "seen_case_ids")
        }
        body = json.dumps(header, sort_keys=True, separators=(",", ":"))
        records = [
            (run, position, json.dumps(record, separators=(",", ":")))
            for position, record in state["records"].items()
        ]
        seen = [(run, case_id) for case_id in state["seen_case_ids"]]
        now = utc_timestamp()
        with self._lock:
            try:
                self._conn.execute("BEGIN IMMEDIATE")
                if parent is None:
                    self._conn.execute(
                        "INSERT OR REPLACE INTO checkpoints (run, updated_at,"
                        " n_batches, fingerprint, state, commit_id)"
                        " VALUES (?, ?, ?, ?, ?, ?)",
                        (run, now, n_batches, fingerprint, body, commit_id),
                    )
                    for table in ("checkpoint_records", "checkpoint_seen"):
                        self._conn.execute(
                            f"DELETE FROM {table} WHERE run = ?", (run,)
                        )
                elif self._conn.execute(
                    "UPDATE checkpoints SET updated_at = ?, n_batches = ?,"
                    " state = ?, commit_id = ?"
                    " WHERE run = ? AND fingerprint = ? AND commit_id = ?",
                    (now, n_batches, body, commit_id, run, fingerprint, parent),
                ).rowcount != 1:
                    self._rollback()
                    raise StoreError(
                        f"checkpoint of run {run!r} no longer ends at commit "
                        f"{parent[:12]}; another writer committed to it"
                    )
                self._conn.executemany(
                    "INSERT OR REPLACE INTO checkpoint_records (run, position,"
                    " record) VALUES (?, ?, ?)",
                    records,
                )
                self._conn.executemany(
                    "INSERT INTO checkpoint_seen (run, case_id) VALUES (?, ?)",
                    seen,
                )
                self._conn.executemany(
                    "INSERT OR REPLACE INTO journal (run, batch_index,"
                    " case_ids) VALUES (?, ?, ?)",
                    [
                        (
                            run,
                            entry.batch_index,
                            json.dumps(entry.case_ids, separators=(",", ":")),
                        )
                        for entry in journal
                    ],
                )
                self._conn.execute("COMMIT")
            except sqlite3.Error as error:
                self._rollback()
                raise StoreError(
                    f"cannot checkpoint run {run!r} to {self.path}: {error}"
                ) from None

    def checkpoint_commit(self, run: str) -> str | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT commit_id FROM checkpoints WHERE run = ?", (run,)
            ).fetchone()
        return None if row is None else row[0]

    def load_checkpoint(self, run: str) -> Checkpoint | None:
        with self._lock:
            try:
                # One read transaction: header and rows are one snapshot.
                self._conn.execute("BEGIN")
                header = self._conn.execute(
                    "SELECT updated_at, n_batches, fingerprint, state,"
                    " commit_id FROM checkpoints WHERE run = ?",
                    (run,),
                ).fetchone()
                records = self._conn.execute(
                    "SELECT position, record FROM checkpoint_records"
                    " WHERE run = ? ORDER BY position",
                    (run,),
                ).fetchall()
                seen = self._conn.execute(
                    "SELECT case_id FROM checkpoint_seen WHERE run = ?"
                    " ORDER BY seq",
                    (run,),
                ).fetchall()
                self._conn.execute("COMMIT")
            except sqlite3.Error as error:
                self._rollback()
                raise StoreError(
                    f"cannot read the checkpoint of run {run!r} from "
                    f"{self.path}: {error}"
                ) from None
        if header is None:
            return None
        updated_at, n_batches, fingerprint, body, commit_id = header
        if records and records[-1][0] != len(records) - 1:
            raise StoreError(
                f"checkpoint of run {run!r} in {self.path} has gaps in its "
                "record positions; the stored state is inconsistent"
            )
        try:
            state = json.loads(body)
            state["records"] = {
                position: json.loads(record) for position, record in records
            }
        except json.JSONDecodeError as error:
            raise StoreError(
                f"checkpoint of run {run!r} in {self.path} holds invalid "
                f"JSON ({error})"
            ) from None
        state["seen_case_ids"] = [case_id for (case_id,) in seen]
        return Checkpoint(
            run=run,
            n_batches=n_batches,
            fingerprint=fingerprint,
            updated_at=updated_at,
            state=state,
            commit_id=commit_id,
        )

    def journal_case_ids(self, run: str, batch_index: int) -> list[str] | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT case_ids FROM journal WHERE run = ? AND batch_index = ?",
                (run, batch_index),
            ).fetchone()
        if row is None:
            return None
        return list(json.loads(row[0]))

    def clear_checkpoint(self, run: str) -> None:
        with self._lock:
            try:
                self._conn.execute("BEGIN IMMEDIATE")
                for table in (
                    "checkpoints",
                    "checkpoint_records",
                    "checkpoint_seen",
                    "journal",
                ):
                    self._conn.execute(
                        f"DELETE FROM {table} WHERE run = ?", (run,)
                    )
                self._conn.execute("COMMIT")
            except sqlite3.Error as error:
                self._rollback()
                raise StoreError(
                    f"cannot clear checkpoint of {run!r}: {error}"
                ) from None

    def _rollback(self) -> None:
        try:
            self._conn.execute("ROLLBACK")
        except sqlite3.Error:
            pass
