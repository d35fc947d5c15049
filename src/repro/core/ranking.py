"""Ranking strategies for multi-drug associations.

§5.3 compares four rankings of the same quarter's multi-drug rules —
by confidence, by lift, by exclusiveness-with-confidence, and by
exclusiveness-with-lift (Table 5.2). This module implements those four
plus improvement, over MCACs, with deterministic tie-breaking so the
benchmark tables are reproducible byte-for-byte.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.context import MCAC
from repro.core.exclusiveness import ExclusivenessConfig, exclusiveness, level_term
from repro.core.improvement import improvement
from repro.errors import ConfigError


class RankingMethod(enum.Enum):
    """The ranking columns of Table 5.2 (plus the improvement baseline)."""

    CONFIDENCE = "confidence"
    LIFT = "lift"
    EXCLUSIVENESS_CONFIDENCE = "exclusiveness_confidence"
    EXCLUSIVENESS_LIFT = "exclusiveness_lift"
    IMPROVEMENT = "improvement"


@dataclass(frozen=True, slots=True)
class RankedCluster:
    """One row of a ranking: the cluster, its score, and its 1-based rank."""

    cluster: MCAC
    score: float
    rank: int

    def describe(self, catalog) -> str:
        return (
            f"#{self.rank}  score={self.score:.4f}  "
            f"{self.cluster.target.describe(catalog)}"
        )


def score_cluster(
    cluster: MCAC,
    method: RankingMethod,
    *,
    theta: float = 0.5,
    decay: str = "linear",
) -> float:
    """Score one cluster under one ranking method."""
    if method is RankingMethod.CONFIDENCE:
        return cluster.target.metrics.confidence
    if method is RankingMethod.LIFT:
        return cluster.target.metrics.lift
    if method is RankingMethod.EXCLUSIVENESS_CONFIDENCE:
        return exclusiveness(
            cluster, ExclusivenessConfig(measure="confidence", theta=theta, decay=decay)
        )
    if method is RankingMethod.EXCLUSIVENESS_LIFT:
        return exclusiveness(
            cluster, ExclusivenessConfig(measure="lift", theta=theta, decay=decay)
        )
    if method is RankingMethod.IMPROVEMENT:
        return improvement(cluster)
    raise ConfigError(f"unknown ranking method {method!r}")


def score_all(
    cluster: MCAC, *, theta: float = 0.5, decay: str = "linear"
) -> dict[str, float]:
    """Every :class:`RankingMethod`'s score, keyed by value, in one walk.

    Bit-identical to :func:`score_cluster` per method: each score is the
    same float operations in the same order, but the levels are read
    once instead of once per exclusiveness measure and for improvement.
    """
    weight_of = ExclusivenessConfig(theta=theta, decay=decay).decay_function
    metrics = cluster.target.metrics
    p_confidence = float(metrics.confidence)
    p_lift = float(metrics.lift)
    n_drugs = cluster.n_drugs
    exclusive_confidence = exclusive_lift = 0.0
    confidences: list[float] = []
    for cardinality, rules in cluster.levels.items():
        level_confidences = [float(rule.metrics.confidence) for rule in rules]
        level_lifts = [float(rule.metrics.lift) for rule in rules]
        weight = weight_of(cardinality, n_drugs)
        exclusive_confidence += level_term(
            p_confidence, level_confidences, weight, theta
        )
        exclusive_lift += level_term(p_lift, level_lifts, weight, theta)
        confidences.extend(level_confidences)
    if not confidences:
        raise ConfigError(
            "cluster has no context levels; MCACs of multi-drug rules "
            "always have at least level 1"
        )
    n_levels = len(cluster.levels)
    return {
        RankingMethod.CONFIDENCE.value: metrics.confidence,
        RankingMethod.LIFT.value: metrics.lift,
        RankingMethod.EXCLUSIVENESS_CONFIDENCE.value: exclusive_confidence / n_levels,
        RankingMethod.EXCLUSIVENESS_LIFT.value: exclusive_lift / n_levels,
        RankingMethod.IMPROVEMENT.value: p_confidence - max(confidences),
    }


def rank_clusters(
    clusters: Sequence[MCAC],
    method: RankingMethod,
    *,
    top_k: int | None = None,
    theta: float = 0.5,
    decay: str = "linear",
) -> list[RankedCluster]:
    """Rank clusters under ``method``, highest score first.

    Ties break on (higher target support, fewer drugs, antecedent item
    ids) so equal-score rows order deterministically.
    """
    scores = [
        score_cluster(cluster, method, theta=theta, decay=decay)
        for cluster in clusters
    ]
    return rank_scored(clusters, scores, top_k=top_k)


def rank_scored(
    clusters: Sequence[MCAC],
    scores: Sequence[float],
    *,
    top_k: int | None = None,
) -> list[RankedCluster]:
    """Rank clusters by precomputed ``scores`` (aligned with ``clusters``).

    The ordering of :func:`rank_clusters`, for callers that already
    hold each cluster's score.
    """
    if top_k is not None and top_k < 1:
        raise ConfigError(f"top_k must be >= 1, got {top_k}")
    scored = sorted(
        zip(scores, clusters),
        key=lambda pair: (
            -pair[0],
            -pair[1].target.metrics.n_joint,
            len(pair[1].target.antecedent),
            sorted(pair[1].target.antecedent),
            sorted(pair[1].target.consequent),
        ),
    )
    if top_k is not None:
        scored = scored[:top_k]
    return [
        RankedCluster(cluster=cluster, score=score, rank=index)
        for index, (score, cluster) in enumerate(scored, start=1)
    ]


def ranking_table(
    clusters: Sequence[MCAC],
    methods: Sequence[RankingMethod] | None = None,
    *,
    top_k: int = 5,
    theta: float = 0.5,
    decay: str = "linear",
) -> dict[RankingMethod, list[RankedCluster]]:
    """The Table 5.2 structure: top-k rows per ranking method.

    Defaults to the paper's four columns in their printed order.
    """
    if methods is None:
        methods = (
            RankingMethod.CONFIDENCE,
            RankingMethod.LIFT,
            RankingMethod.EXCLUSIVENESS_CONFIDENCE,
            RankingMethod.EXCLUSIVENESS_LIFT,
        )
    return {
        method: rank_clusters(
            clusters, method, top_k=top_k, theta=theta, decay=decay
        )
        for method in methods
    }
