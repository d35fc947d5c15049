"""The precomputed-bytes layer: correctness, the zero-encode property,
laziness, and refresh invalidation.

The headline acceptance for the async serving work is *zero per-request
JSON encoding on the hot paths* — provable from the outside via the
``serve.responses.precomputed`` / ``serve.responses.encoded`` counters,
which is exactly how this suite asserts it.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.core import Maras, MarasConfig
from repro.core.ids import ASSOCIATION_PREFIX
from repro.core.incremental import SurveillanceMonitor
from repro.obs import MetricsRegistry
from repro.serve import (
    DEFAULT_SORT,
    ApiResponder,
    QueryEngine,
    ResultStore,
    RunSnapshot,
)
from repro.serve.bytecache import (
    ByteCacheDirectory,
    SnapshotBytes,
    encode_payload,
    strong_etag,
)
from repro.serve.engine import (
    DEFAULT_PAGE_SIZE,
    association_view,
    cluster_view,
    drug_payload,
    page_payload,
    spec_key,
)

from tests.serve.conftest import RUN_NAME


def eager_table(snapshot) -> dict[tuple, tuple[bytes, str | None]]:
    """Every entry of a snapshot's table, built in one pass (the oracle).

    Keys are ``("cluster", id)``, ``("drug", name)`` and
    ``(endpoint, spec key)``; the association alias is its own key
    sharing the cluster's entry.
    """
    table: dict[tuple, tuple[bytes, str | None]] = {}
    for record in snapshot.records:
        payload = cluster_view(record)
        payload["run"] = snapshot.name
        body = encode_payload(payload)
        entry = (body, strong_etag(body))
        table[("cluster", record["id"])] = entry
        digest = record["id"].split("-", 1)[1]
        table[("cluster", f"{ASSOCIATION_PREFIX}-{digest}")] = entry
    for name in snapshot.indexes.by_drug:
        body = encode_payload(drug_payload(snapshot, name))
        table[("drug", name)] = (body, strong_etag(body))
    for endpoint, view in (
        ("associations", association_view),
        ("clusters", cluster_view),
    ):
        for sort in snapshot.indexes.sort_keys:
            spec = {
                "sort": sort,
                "order": "desc",
                "limit": DEFAULT_PAGE_SIZE,
                "offset": 0,
            }
            body = encode_payload(page_payload(snapshot, spec, view))
            table[(endpoint, spec_key(spec))] = (body, None)
    return table


def probe(table: SnapshotBytes, key: tuple):
    kind, name = key
    if kind == "cluster":
        return table.cluster(name)
    if kind == "drug":
        return table.drug(name)
    return table.page(kind, name)


@pytest.fixture(scope="module")
def empty_snapshot(small_quarter_reports) -> RunSnapshot:
    result = Maras(MarasConfig(min_support=10**6, clean=False)).run(
        small_quarter_reports
    )
    return RunSnapshot.from_result("empty", result)


class TestEncoding:
    def test_encode_payload_is_canonical(self):
        assert encode_payload({"b": 1, "a": [2]}) == b'{"a": [2], "b": 1}'

    def test_strong_etag_is_quoted_and_content_addressed(self):
        one, same, other = (
            strong_etag(b"body"),
            strong_etag(b"body"),
            strong_etag(b"different"),
        )
        assert one == same != other
        assert one.startswith('"') and one.endswith('"') and len(one) == 34


class TestSnapshotBytes:
    def test_cluster_bytes_match_engine_payload(self, snapshot, engine):
        table = SnapshotBytes(snapshot)
        record = snapshot.records[0]
        body, etag = table.cluster(record["id"])
        assert json.loads(body) == engine.cluster(record["id"])
        assert etag == strong_etag(body)

    def test_association_alias_shares_the_cluster_entry(self, snapshot):
        table = SnapshotBytes(snapshot)
        record = snapshot.records[0]
        alias = "assoc-" + record["id"].split("-", 1)[1]
        assert table.cluster(alias) == table.cluster(record["id"])

    def test_drug_bytes_match_engine_payload(self, snapshot, engine):
        table = SnapshotBytes(snapshot)
        drug = snapshot.records[0]["drugs"][0]
        body, _ = table.drug(drug)
        assert json.loads(body) == engine.drug(drug)

    def test_default_pages_cover_every_sort_key(self, snapshot, engine):
        table = SnapshotBytes(snapshot)
        for sort in snapshot.indexes.sort_keys:
            page = engine.associations(sort=sort)
            key = tuple(
                sorted(
                    {
                        "sort": sort,
                        "order": "desc",
                        "limit": page["limit"],
                        "offset": 0,
                    }.items()
                )
            )
            body, _ = table.page("associations", key)
            assert json.loads(body) == page

    def test_misses_return_none(self, snapshot):
        table = SnapshotBytes(snapshot)
        assert table.cluster("mcac-nope") is None
        assert table.drug("NOPE") is None
        assert table.page("associations", (("sort", "nope"),)) is None


class TestLazyTableMatchesEagerOracle:
    @pytest.fixture(params=["quarter", "empty"])
    def any_snapshot(self, request, snapshot, empty_snapshot):
        return snapshot if request.param == "quarter" else empty_snapshot

    def test_every_entry_renders_the_oracle_bytes(self, any_snapshot):
        oracle = eager_table(any_snapshot)
        table = SnapshotBytes(any_snapshot)
        for key, entry in oracle.items():
            assert probe(table, key) == entry, key
        assert table.n_entries == len(oracle)
        assert table.n_bytes == sum(len(body) for body, _ in oracle.values())

    def test_alias_first_renders_the_cluster_entry(self, snapshot):
        oracle = eager_table(snapshot)
        table = SnapshotBytes(snapshot)
        record_id = snapshot.records[0]["id"]
        alias = f"{ASSOCIATION_PREFIX}-{record_id.split('-', 1)[1]}"
        assert table.cluster(alias) == oracle[("cluster", record_id)]
        assert table.cluster(record_id) == oracle[("cluster", record_id)]
        assert table.n_entries == 2

    def test_warm_renders_the_oracle_entry_count(self, any_snapshot):
        oracle = eager_table(any_snapshot)
        table = SnapshotBytes(any_snapshot)
        assert table.warm() == len(oracle)
        assert table.warm() == len(oracle)  # idempotent
        assert table.n_bytes == sum(len(body) for body, _ in oracle.values())

    def test_misses_stay_misses(self, any_snapshot):
        table = SnapshotBytes(any_snapshot)
        default = {"sort": DEFAULT_SORT, "order": "desc", "offset": 0}
        for spec in (
            {**default, "limit": DEFAULT_PAGE_SIZE + 1},
            {**default, "limit": DEFAULT_PAGE_SIZE, "order": "asc"},
            {**default, "limit": DEFAULT_PAGE_SIZE, "offset": 1},
            {**default, "limit": DEFAULT_PAGE_SIZE, "drug": "ASPIRIN"},
            {**default, "limit": DEFAULT_PAGE_SIZE, "sort": "nope"},
        ):
            assert table.page("clusters", spec_key(spec)) is None, spec
        default_key = spec_key({**default, "limit": DEFAULT_PAGE_SIZE})
        assert table.page("search", default_key) is None
        assert table.cluster("mcac-nope") is None
        assert table.cluster(f"{ASSOCIATION_PREFIX}-nope") is None
        assert table.drug("NOPE") is None
        assert table.n_entries == table.n_bytes == 0


class TestLaziness:
    def test_first_get_after_refresh_renders_one_page(
        self, small_quarter_reports
    ):
        config = MarasConfig(min_support=4, clean=False, incremental=True)
        half = len(small_quarter_reports) // 2
        with SurveillanceMonitor(config) as monitor:
            monitor.ingest(small_quarter_reports[:half])
            store = ResultStore()
            store.add_result(RUN_NAME, monitor.result)
            responder = ApiResponder(
                QueryEngine(store, registry=MetricsRegistry())
            )
            assert responder.handle("GET", "/v1/clusters").status == 200

            monitor.ingest(small_quarter_reports[half : half + 40])
            snapshot = store.refresh_from(RUN_NAME, monitor)
        assert responder.bytes.stats()["entries"] == 0
        response = responder.handle("GET", "/v1/clusters")
        assert response.status == 200
        assert json.loads(response.body)["total"] == snapshot.n_clusters
        assert responder.bytes.stats()["entries"] == 1
        assert set(snapshot.indexes.order_by._orders) == {DEFAULT_SORT}
        assert len(snapshot.indexes.sort_keys) > 1


class TestConcurrentAccounting:
    def test_stats_while_four_threads_render(self, snapshot):
        """Concurrent first renders and a metrics poller: counts stay exact."""
        oracle = eager_table(snapshot)
        directory = ByteCacheDirectory()
        table = directory.for_snapshot(snapshot)
        keys = sorted(oracle, key=repr)
        shares = [keys[i::4] for i in range(4)]
        errors: list[BaseException] = []
        done = threading.Event()

        def render(share):
            try:
                for key in share:
                    assert probe(table, key) == oracle[key]
            except BaseException as error:  # surfaced by the assert below
                errors.append(error)

        def poll():
            try:
                while not done.is_set():
                    stats = directory.stats()
                    assert 0 <= stats["entries"] <= len(oracle)
            except BaseException as error:
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            poller = threading.Thread(target=poll)
            renderers = [
                threading.Thread(target=render, args=(share,)) for share in shares
            ]
            poller.start()
            for thread in renderers:
                thread.start()
            for thread in renderers:
                thread.join(timeout=60)
            done.set()
            poller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in (*renderers, poller))
        assert errors == []
        stats = directory.stats()
        assert stats["entries"] == len(oracle)
        assert stats["bytes"] == sum(len(body) for body, _ in oracle.values())


class TestDirectory:
    def test_tables_are_built_once_and_shared(self, snapshot):
        directory = ByteCacheDirectory()
        first = directory.for_snapshot(snapshot)
        assert directory.for_snapshot(snapshot) is first
        assert directory.builds == 1

    def test_invalidate_drops_exactly_that_token(self, snapshot):
        directory = ByteCacheDirectory()
        directory.for_snapshot(snapshot)
        assert directory.invalidate(snapshot.token) is True
        assert directory.invalidate(snapshot.token) is False
        assert directory.stats()["tables"] == 0

    def test_stats_account_entries_and_bytes(self, snapshot):
        directory = ByteCacheDirectory()
        table = directory.for_snapshot(snapshot)
        table.warm()
        stats = directory.stats()
        assert stats == {
            "tables": 1,
            "entries": table.n_entries,
            "bytes": table.n_bytes,
            "builds": 1,
        }


@pytest.fixture
def hammer_responder(mined_quarter):
    store = ResultStore()
    store.add_result(RUN_NAME, mined_quarter)
    return ApiResponder(QueryEngine(store, registry=MetricsRegistry()))


class TestZeroEncodeProperty:
    def test_hot_paths_never_encode_after_warm(self, hammer_responder, snapshot):
        responder = hammer_responder
        assert responder.warm() > 0
        registry = responder.engine.registry
        encoded_before = registry.snapshot().counters.get(
            "serve.responses.encoded", 0
        )

        cluster_id = snapshot.records[0]["id"]
        drug = snapshot.records[0]["drugs"][0]
        for _ in range(25):
            assert responder.handle("GET", f"/v1/clusters/{cluster_id}").status == 200
            assert responder.handle("GET", f"/v1/drugs/{drug}").status == 200
            assert responder.handle("GET", "/v1/associations").status == 200
            assert responder.handle("GET", "/v1/clusters?sort=lift").status == 200

        counters = responder.engine.registry.snapshot().counters
        assert counters.get("serve.responses.encoded", 0) == encoded_before
        assert counters["serve.responses.precomputed"] == 100

    def test_long_tail_queries_still_encode_through_the_lru(
        self, hammer_responder
    ):
        responder = hammer_responder
        responder.warm()
        response = responder.handle("GET", "/v1/associations?limit=3&offset=7")
        assert response.status == 200
        counters = responder.engine.registry.snapshot().counters
        assert counters["serve.responses.encoded"] == 1

    def test_refresh_invalidates_byte_tables(self, mined_quarter):
        store = ResultStore()
        store.add_result(RUN_NAME, mined_quarter)
        responder = ApiResponder(QueryEngine(store, registry=MetricsRegistry()))
        responder.warm()
        before = responder.handle("GET", "/v1/associations")
        assert before.status == 200

        smaller = Maras(MarasConfig(min_support=6, clean=False)).run(
            mined_quarter.dataset
        )
        responder.engine.refresh(RUN_NAME, smaller)
        counters = responder.engine.registry.snapshot().counters
        assert counters["serve.bytecache.invalidated"] == 1

        after = responder.handle("GET", "/v1/associations")
        assert after.status == 200
        assert json.loads(after.body)["total"] == len(smaller.clusters)
        assert json.loads(before.body)["total"] == len(mined_quarter.clusters)
