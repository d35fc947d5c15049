"""Tests for ranking strategies and the Table 5.2 structure."""

from __future__ import annotations

import json

import pytest

from repro.core.exclusiveness import ExclusivenessConfig, exclusiveness
from repro.core.incremental import SurveillanceMonitor
from repro.core.pipeline import Maras, MarasConfig
from repro.core.ranking import (
    RankingMethod,
    rank_clusters,
    ranking_table,
    score_all,
    score_cluster,
)
from repro.errors import ConfigError

from tests.golden.regenerate import DATASET_PATH, GOLDEN_CONFIG, report_from_dict
from tests.incremental.streams import make_stream, split_schedule


class TestScoreCluster:
    def test_confidence_method(self, mined_quarter):
        cluster = mined_quarter.clusters[0]
        assert score_cluster(cluster, RankingMethod.CONFIDENCE) == (
            cluster.target.metrics.confidence
        )

    def test_lift_method(self, mined_quarter):
        cluster = mined_quarter.clusters[0]
        assert score_cluster(cluster, RankingMethod.LIFT) == (
            cluster.target.metrics.lift
        )

    def test_exclusiveness_methods_match_direct_call(self, mined_quarter):
        cluster = mined_quarter.clusters[0]
        assert score_cluster(
            cluster, RankingMethod.EXCLUSIVENESS_CONFIDENCE, theta=0.5
        ) == pytest.approx(
            exclusiveness(cluster, ExclusivenessConfig(measure="confidence", theta=0.5))
        )
        assert score_cluster(
            cluster, RankingMethod.EXCLUSIVENESS_LIFT, theta=0.5
        ) == pytest.approx(
            exclusiveness(cluster, ExclusivenessConfig(measure="lift", theta=0.5))
        )


def golden_result():
    reports = [report_from_dict(row) for row in json.loads(DATASET_PATH.read_text())]
    return Maras(MarasConfig(**GOLDEN_CONFIG)).run(reports)


def trickle_result(seed):
    """A differential-harness stream whose records mostly carry over."""
    config = MarasConfig(min_support=3, clean=True, incremental=True)
    fractions = (0.5, *(0.5 + step / 100 for step in range(1, 51)))
    with SurveillanceMonitor(config) as monitor:
        for batch in split_schedule(make_stream(seed), fractions):
            if batch:
                monitor.ingest(batch)
        assert monitor.engine_stats["n_carried"] > 0
        return monitor.result


def assert_bit_equal_to_score_cluster(cluster, scores, *, theta, decay):
    for method in RankingMethod:
        expected = score_cluster(cluster, method, theta=theta, decay=decay)
        assert scores[method.value].hex() == expected.hex(), method


class TestScoreAll:
    """score_all ≡ score_cluster bit for bit, and records carry its scores."""

    @pytest.mark.parametrize(
        "theta, decay", [(0.5, "linear"), (0.0, "none"), (1.0, "exponential")]
    )
    def test_golden_clusters(self, theta, decay):
        result = golden_result()
        assert result.clusters
        for cluster in result.clusters:
            assert_bit_equal_to_score_cluster(
                cluster,
                score_all(cluster, theta=theta, decay=decay),
                theta=theta,
                decay=decay,
            )

    @pytest.mark.parametrize("seed", [11, 47, 2014])
    def test_carried_and_fresh_records_of_a_stream(self, seed):
        result = trickle_result(seed)
        theta, decay = result.config.theta, result.config.decay
        for record in result.records():
            assert_bit_equal_to_score_cluster(
                record.cluster, record.scores, theta=theta, decay=decay
            )
            assert_bit_equal_to_score_cluster(
                record.cluster,
                score_all(record.cluster, theta=theta, decay=decay),
                theta=theta,
                decay=decay,
            )

    def test_validates_like_score_cluster(self, mined_quarter):
        cluster = mined_quarter.clusters[0]
        with pytest.raises(ConfigError):
            score_all(cluster, theta=1.5)
        with pytest.raises(ConfigError):
            score_all(cluster, decay="cubic")


class TestRankClusters:
    def test_descending_scores_and_contiguous_ranks(self, mined_quarter):
        ranked = rank_clusters(
            mined_quarter.clusters, RankingMethod.EXCLUSIVENESS_CONFIDENCE
        )
        scores = [entry.score for entry in ranked]
        assert scores == sorted(scores, reverse=True)
        assert [entry.rank for entry in ranked] == list(range(1, len(ranked) + 1))

    def test_top_k_truncates(self, mined_quarter):
        ranked = rank_clusters(
            mined_quarter.clusters, RankingMethod.CONFIDENCE, top_k=5
        )
        assert len(ranked) == 5

    def test_invalid_top_k(self, mined_quarter):
        with pytest.raises(ConfigError):
            rank_clusters(mined_quarter.clusters, RankingMethod.CONFIDENCE, top_k=0)

    def test_deterministic_tie_break(self, mined_quarter):
        first = rank_clusters(mined_quarter.clusters, RankingMethod.CONFIDENCE)
        second = rank_clusters(mined_quarter.clusters, RankingMethod.CONFIDENCE)
        assert [e.cluster.target.items for e in first] == [
            e.cluster.target.items for e in second
        ]

    def test_methods_produce_different_orders(self, mined_quarter):
        by_conf = rank_clusters(mined_quarter.clusters, RankingMethod.CONFIDENCE, top_k=10)
        by_excl = rank_clusters(
            mined_quarter.clusters, RankingMethod.EXCLUSIVENESS_CONFIDENCE, top_k=10
        )
        assert [e.cluster.target.items for e in by_conf] != [
            e.cluster.target.items for e in by_excl
        ]

    def test_describe(self, mined_quarter):
        entry = rank_clusters(
            mined_quarter.clusters, RankingMethod.CONFIDENCE, top_k=1
        )[0]
        text = entry.describe(mined_quarter.catalog)
        assert text.startswith("#1")
        assert "=>" in text


class TestRankingTable:
    def test_default_columns_are_the_papers_four(self, mined_quarter):
        table = mined_quarter.ranking_table(top_k=5)
        assert list(table) == [
            RankingMethod.CONFIDENCE,
            RankingMethod.LIFT,
            RankingMethod.EXCLUSIVENESS_CONFIDENCE,
            RankingMethod.EXCLUSIVENESS_LIFT,
        ]
        assert all(len(entries) == 5 for entries in table.values())

    def test_exclusiveness_column_is_not_a_confidence_reshuffle(self, mined_quarter):
        """Table 5.2's observation: the exclusiveness column surfaces
        substantially different rules than raw confidence, not the same
        top-k reordered."""
        table = ranking_table(mined_quarter.clusters, top_k=10)

        def itemsets(entries):
            return {entry.cluster.target.items for entry in entries}

        excl = itemsets(table[RankingMethod.EXCLUSIVENESS_CONFIDENCE])
        conf = itemsets(table[RankingMethod.CONFIDENCE])
        assert len(excl & conf) < 8  # at most a minority carried over
