"""The backend contract: URI routing, catalogs, retention, atomicity."""

from __future__ import annotations

import json

import pytest

from repro.errors import NotFoundError, StoreError
from repro.serve import QueryEngine, ResultStore
from repro.store import (
    DirectoryBackend,
    SQLiteBackend,
    open_backend,
    validate_run_name,
)


class TestOpenBackend:
    def test_bare_path_is_directory(self, tmp_path):
        backend = open_backend(tmp_path)
        assert isinstance(backend, DirectoryBackend)
        assert backend.uri == f"dir://{tmp_path}"

    def test_dir_uri(self, tmp_path):
        backend = open_backend(f"dir://{tmp_path}")
        assert isinstance(backend, DirectoryBackend)
        assert backend.directory == tmp_path

    def test_sqlite_uri(self, tmp_path):
        with open_backend(f"sqlite://{tmp_path}/runs.db") as backend:
            assert isinstance(backend, SQLiteBackend)
            assert backend.supports_checkpoints

    def test_unknown_scheme_rejected(self):
        with pytest.raises(StoreError, match="unknown store scheme"):
            open_backend("postgres://db/runs")

    def test_empty_path_rejected(self):
        with pytest.raises(StoreError, match="empty path"):
            open_backend("sqlite://")

    def test_run_name_grammar(self):
        assert validate_run_name("2014Q1.v2") == "2014Q1.v2"
        for bad in ("", "../escape", "a b", ".hidden"):
            with pytest.raises(StoreError, match="run names"):
                validate_run_name(bad)


class TestDirectoryBackend:
    def test_save_is_atomic_and_clean(self, tmp_path, payload):
        backend = DirectoryBackend(tmp_path)
        record = backend.save_run("q1", payload)
        assert record.version == 1
        assert record.location == tmp_path / "q1.json"
        # No in-flight temp files survive a completed save.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["q1.json"]
        assert backend.load_run("q1") == payload

    def test_missing_run_is_one_line_error(self, tmp_path):
        with pytest.raises(StoreError, match="no run named 'q9'"):
            DirectoryBackend(tmp_path).load_run("q9")

    def test_corrupt_file_is_diagnosed(self, tmp_path):
        (tmp_path / "bad.json").write_text("{truncated", encoding="utf-8")
        backend = DirectoryBackend(tmp_path)
        with pytest.raises(StoreError, match="not valid JSON"):
            backend.load_run("bad")
        # The listing still surfaces it, marked unloadable.
        [record] = backend.list_runs()
        assert record.name == "bad" and record.compacted

    def test_version_pin_rejected(self, tmp_path, payload):
        backend = DirectoryBackend(tmp_path)
        backend.save_run("q1", payload)
        with pytest.raises(StoreError, match="latest version"):
            backend.load_run("q1", version=2)

    def test_retention_is_noop(self, tmp_path, payload):
        backend = DirectoryBackend(tmp_path)
        backend.save_run("q1", payload)
        assert backend.prune(keep=1) == 0
        assert backend.compact() == 0
        with pytest.raises(StoreError, match="keep must be >= 1"):
            backend.prune(keep=0)

    def test_checkpoints_unsupported(self, tmp_path):
        backend = DirectoryBackend(tmp_path)
        with pytest.raises(StoreError, match="sqlite"):
            backend.load_checkpoint("q1")
        with pytest.raises(StoreError, match="sqlite"):
            backend.save_checkpoint(
                "q1", {}, n_batches=1, fingerprint="x", commit_id="c"
            )
        with pytest.raises(StoreError, match="sqlite"):
            backend.checkpoint_commit("q1")


class TestSQLiteBackend:
    @pytest.fixture
    def backend(self, tmp_path):
        with SQLiteBackend(tmp_path / "runs.db") as backend:
            yield backend

    def test_versions_chain_via_supersedes(self, backend, payload):
        first = backend.save_run("q1", payload)
        second = backend.save_run("q1", payload)
        assert (first.version, first.supersedes) == (1, None)
        assert (second.version, second.supersedes) == (2, 1)
        assert backend.load_run("q1") == payload
        assert backend.load_run("q1", version=1) == payload

    def test_missing_run_and_version(self, backend, payload):
        backend.save_run("q1", payload)
        with pytest.raises(StoreError, match="no run named 'q9'"):
            backend.load_run("q9")
        with pytest.raises(StoreError, match="version 7"):
            backend.load_run("q1", version=7)

    def test_prune_applies_retention_per_run(self, backend, payload):
        for _ in range(4):
            backend.save_run("q1", payload)
        backend.save_run("q2", payload)
        assert backend.prune(keep=2) == 2
        versions = [r.version for r in backend.list_runs() if r.name == "q1"]
        assert versions == [3, 4]
        assert backend.load_run("q2") == payload

    def test_compact_drops_superseded_bodies_keeps_rows(
        self, backend, payload
    ):
        backend.save_run("q1", payload)
        backend.save_run("q1", payload)
        assert backend.compact() == 1
        assert backend.compact() == 0  # idempotent
        rows = backend.list_runs()
        assert [(r.version, r.compacted) for r in rows] == [
            (1, True),
            (2, False),
        ]
        assert backend.load_run("q1") == payload  # latest untouched
        with pytest.raises(StoreError, match="compacted"):
            backend.load_run("q1", version=1)

    def test_run_names_excludes_compacted_only(self, backend, payload):
        backend.save_run("q1", payload)
        backend.save_run("q1", payload)
        backend.compact()
        assert backend.run_names() == ["q1"]

    def test_invalid_name_rejected_before_write(self, backend, payload):
        with pytest.raises(StoreError, match="run names"):
            backend.save_run("../escape", payload)

    def test_path_is_directory_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="directory"):
            SQLiteBackend(tmp_path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "not-a-db.db"
        path.write_bytes(b"this is not a sqlite file" * 64)
        with pytest.raises(StoreError, match="not a usable SQLite store"):
            SQLiteBackend(path)

    def test_checkpoint_roundtrip_and_clear(self, backend):
        from repro.store import JournalEntry

        state = {
            "batch_index": 2,
            "payload": [1, 2, 3],
            "records": {0: {"id": "C1"}, 1: {"id": "C2"}},
            "seen_case_ids": ["C1", "C2", "C3"],
        }
        backend.save_checkpoint(
            "q1",
            state,
            n_batches=2,
            fingerprint="f" * 64,
            commit_id="c1",
            journal=[JournalEntry(0, ["C1"]), JournalEntry(1, ["C2", "C3"])],
        )
        checkpoint = backend.load_checkpoint("q1")
        assert checkpoint.state == state
        assert checkpoint.n_batches == 2
        assert checkpoint.commit_id == backend.checkpoint_commit("q1") == "c1"
        assert backend.journal_case_ids("q1", 1) == ["C2", "C3"]
        assert backend.journal_case_ids("q1", 5) is None
        backend.clear_checkpoint("q1")
        assert backend.load_checkpoint("q1") is None
        assert backend.journal_case_ids("q1", 0) is None

    @staticmethod
    def _commit(backend, state, commit_id, parent=None, **kwargs):
        kwargs.setdefault("fingerprint", "f")
        backend.save_checkpoint(
            "q1",
            {"records": {}, "seen_case_ids": [], **state},
            n_batches=int(commit_id[1:]),
            commit_id=commit_id,
            parent=parent,
            **kwargs,
        )

    def test_delta_commit_writes_over_and_appends(self, backend):
        whole = {"n": 1, "records": {0: "a", 1: "b"}, "seen_case_ids": ["A"]}
        self._commit(backend, whole, "c1")
        delta = {"n": 2, "records": {1: "b2", 2: "c"}, "seen_case_ids": ["C"]}
        self._commit(backend, delta, "c2", parent="c1")
        checkpoint = backend.load_checkpoint("q1")
        assert checkpoint.state == {
            "n": 2,
            "records": {0: "a", 1: "b2", 2: "c"},
            "seen_case_ids": ["A", "C"],
        }
        assert (checkpoint.n_batches, checkpoint.commit_id) == (2, "c2")

    @pytest.mark.parametrize(
        "parent,fingerprint", [("c1", "f"), ("c2", "g")], ids=["stale", "drift"]
    )
    def test_delta_commit_needs_its_parent(self, backend, parent, fingerprint):
        from repro.store import JournalEntry

        whole = {"records": {0: "a"}, "seen_case_ids": ["A"]}
        self._commit(backend, whole, "c1")
        self._commit(backend, {}, "c2", parent="c1")
        with pytest.raises(StoreError, match="another writer"):
            self._commit(
                backend,
                {"records": {1: "b"}, "seen_case_ids": ["B"]},
                "c3",
                parent=parent,
                fingerprint=fingerprint,
                journal=[JournalEntry(2, ["B"])],
            )
        # Nothing of the refused commit landed.
        assert backend.load_checkpoint("q1").state == whole
        assert backend.checkpoint_commit("q1") == "c2"
        assert backend.journal_case_ids("q1", 2) is None

    def test_delta_with_a_gap_is_inconsistent(self, backend):
        self._commit(backend, {"records": {0: "a"}}, "c1")
        self._commit(backend, {"records": {2: "c"}}, "c2", parent="c1")
        with pytest.raises(StoreError, match="gaps"):
            backend.load_checkpoint("q1")


class TestResultStoreIntegration:
    """ResultStore.save/load over both backends serve identical answers."""

    def test_sqlite_roundtrip_preserves_payloads(
        self, tmp_path, snapshot_store
    ):
        uri = f"sqlite://{tmp_path}/runs.db"
        locations = snapshot_store.save(uri)
        assert all(str(loc).startswith("sqlite://") for loc in locations)
        reloaded = ResultStore.load(uri)
        assert reloaded.names() == snapshot_store.names()
        for name in reloaded.names():
            assert (
                reloaded.get(name).payload == snapshot_store.get(name).payload
            )

    def test_backends_serve_identical_responses(
        self, tmp_path, snapshot_store
    ):
        snapshot_store.save(tmp_path / "dirstore")
        snapshot_store.save(f"sqlite://{tmp_path}/runs.db")
        from_dir = QueryEngine(ResultStore.load(tmp_path / "dirstore"))
        from_db = QueryEngine(ResultStore.load(f"sqlite://{tmp_path}/runs.db"))
        name = snapshot_store.names()[0]
        for query in (
            lambda e: e.runs(),
            lambda e: e.clusters(run=name, limit="5"),
            lambda e: e.associations(run=name),
        ):
            assert query(from_dir) == query(from_db)

    def test_directory_save_returns_paths(self, tmp_path, snapshot_store):
        paths = snapshot_store.save(tmp_path / "runs")
        assert [p.name for p in paths] == [
            f"{name}.json" for name in snapshot_store.names()
        ]

    def test_load_empty_sqlite_store_is_not_found(self, tmp_path):
        with pytest.raises(NotFoundError, match="no run snapshots"):
            ResultStore.load(f"sqlite://{tmp_path}/empty.db")

    def test_load_corrupt_directory_is_store_error(self, tmp_path):
        (tmp_path / "broken.json").write_text("[oops", encoding="utf-8")
        with pytest.raises(StoreError, match="not valid JSON"):
            ResultStore.load(tmp_path)

    def test_concurrent_save_leaves_valid_file(self, tmp_path, payload):
        """Readers of a half-saved run see old bytes or new, never torn."""
        backend = DirectoryBackend(tmp_path)
        backend.save_run("q1", {**payload, "marker": "old"})
        backend.save_run("q1", {**payload, "marker": "new"})
        text = (tmp_path / "q1.json").read_text(encoding="utf-8")
        assert json.loads(text)["marker"] == "new"


@pytest.fixture(scope="module")
def snapshot_store(payload) -> ResultStore:
    store = ResultStore()
    store.add_export("2014T1", payload)
    return store
