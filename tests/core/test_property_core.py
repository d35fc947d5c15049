"""Property-based tests of the core MCAC / exclusiveness machinery."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.context import build_cluster
from repro.core.exclusiveness import (
    ExclusivenessConfig,
    exclusiveness,
    exclusiveness_cv,
    exclusiveness_simple,
)
from repro.core.improvement import improvement
from repro.core.ranking import RankingMethod, score_all, score_cluster
from repro.mining.fpclose import fpclose
from repro.mining.rules import partitioned_rules
from repro.mining.transactions import TransactionDatabase

DRUGS = ["D0", "D1", "D2", "D3", "D4"]
ADRS = ["A0", "A1", "A2"]
KINDS = {d: "drug" for d in DRUGS} | {a: "adr" for a in ADRS}

reports_strategy = st.lists(
    st.tuples(
        st.sets(st.sampled_from(DRUGS), min_size=1, max_size=4),
        st.sets(st.sampled_from(ADRS), min_size=1, max_size=2),
    ),
    min_size=8,
    max_size=40,
)

thetas = st.sampled_from([0.0, 0.3, 0.5, 1.0])
decays = st.sampled_from(["linear", "none", "exponential"])
confidences = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
contexts = st.lists(confidences, min_size=1, max_size=10)


def clusters_of(raw_reports):
    rows = [drugs | adrs for drugs, adrs in raw_reports]
    db = TransactionDatabase.from_labelled(rows, kinds=KINDS)
    rules = partitioned_rules(fpclose(db, 1), db)
    return db, [
        build_cluster(rule, db) for rule in rules if len(rule.antecedent) >= 2
    ]


@settings(max_examples=40, deadline=None)
@given(raw=reports_strategy)
def test_mcac_context_is_complete_power_set(raw):
    _, clusters = clusters_of(raw)
    for cluster in clusters:
        n = cluster.n_drugs
        assert cluster.context_size == 2**n - 2
        assert set(cluster.levels) == set(range(1, n))
        for cardinality, rules in cluster.levels.items():
            for rule in rules:
                assert rule.cardinality == cardinality
                assert rule.antecedent < cluster.target.antecedent
                assert rule.consequent == cluster.target.consequent


@settings(max_examples=40, deadline=None)
@given(raw=reports_strategy)
def test_exclusiveness_bounded_by_measure_range(raw):
    """With confidence (range [0,1]) the Eq 3.5 score lies in [-1, 1]."""
    _, clusters = clusters_of(raw)
    config = ExclusivenessConfig(measure="confidence")
    for cluster in clusters:
        score = exclusiveness(cluster, config)
        assert -1.0 <= score <= 1.0


@settings(max_examples=40, deadline=None)
@given(raw=reports_strategy)
def test_improvement_upper_bounds_mean_contrast(raw):
    """Improvement (vs the max context value) is never above the
    contrast vs the mean context value."""
    _, clusters = clusters_of(raw)
    for cluster in clusters:
        values = [
            v for vs in cluster.context_values("confidence").values() for v in vs
        ]
        mean_contrast = exclusiveness_simple(
            cluster.target.metrics.confidence, values
        )
        assert improvement(cluster) <= mean_contrast + 1e-12


@settings(max_examples=80, deadline=None)
@given(p=confidences, values=contexts, theta=st.floats(0.0, 1.0))
def test_cv_penalty_never_flips_sign(p, values, theta):
    base = exclusiveness_simple(p, values)
    penalized = exclusiveness_cv(p, values, theta=theta)
    if base > 0:
        assert 0 <= penalized <= base + 1e-12
    elif base < 0:
        assert base - 1e-12 <= penalized <= 0
    else:
        assert penalized == 0


@settings(max_examples=80, deadline=None)
@given(p=confidences, values=contexts)
def test_theta_monotone_in_penalty_magnitude(p, values):
    scores = [abs(exclusiveness_cv(p, values, theta=t)) for t in (0.0, 0.5, 1.0)]
    assert scores[0] + 1e-12 >= scores[1] >= scores[2] - 1e-12


@settings(max_examples=40, deadline=None)
@given(raw=reports_strategy)
def test_scores_invariant_to_report_order(raw):
    """Mining + scoring is a function of the report multiset, not order."""
    db_a, clusters_a = clusters_of(raw)
    db_b, clusters_b = clusters_of(list(reversed(raw)))

    def normalized(db, clusters):
        catalog = db.catalog
        return sorted(
            (
                catalog.labels(c.target.antecedent),
                catalog.labels(c.target.consequent),
                round(exclusiveness(c), 12),
            )
            for c in clusters
        )

    assert normalized(db_a, clusters_a) == normalized(db_b, clusters_b)


@settings(max_examples=40, deadline=None)
@given(raw=reports_strategy, theta=thetas, decay=decays)
def test_score_all_is_bit_identical_to_score_cluster(raw, theta, decay):
    """One walk of the levels, the same floats as five per-method calls."""
    _, clusters = clusters_of(raw)
    for cluster in clusters:
        scores = score_all(cluster, theta=theta, decay=decay)
        for method in RankingMethod:
            expected = score_cluster(cluster, method, theta=theta, decay=decay)
            assert scores[method.value].hex() == expected.hex(), method
