"""A run with no clusters still answers every list endpoint."""

from __future__ import annotations

import json

import pytest

from repro.core.pipeline import Maras, MarasConfig
from repro.obs import MetricsRegistry
from repro.serve import (
    DEFAULT_SORT,
    ApiResponder,
    QueryEngine,
    ResultStore,
    RunSnapshot,
)


@pytest.fixture(scope="module")
def responder(small_quarter_reports) -> ApiResponder:
    # A support threshold no itemset reaches: the run has no clusters,
    # hence no score names in its records.
    result = Maras(MarasConfig(min_support=10**6, clean=False)).run(
        small_quarter_reports
    )
    assert not result.clusters
    store = ResultStore()
    store.add_snapshot(RunSnapshot.from_result("empty", result))
    return ApiResponder(QueryEngine(store, registry=MetricsRegistry()))


@pytest.mark.parametrize("endpoint", ["/v1/clusters", "/v1/associations"])
def test_default_sort_answers_on_empty_run(responder, endpoint):
    response = responder.handle("GET", endpoint)
    assert response.status == 200, response.body
    page = json.loads(response.body)
    assert page["total"] == 0
    assert page["items"] == []


def test_default_sort_is_always_indexed(responder):
    assert DEFAULT_SORT in responder.engine.resolve("empty").indexes.order_by
