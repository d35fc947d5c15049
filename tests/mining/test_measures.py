"""Tests for the interestingness measures (Eqs 2.1-2.3 and companions)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.mining.measures import (
    RuleMetrics,
    coefficient_of_variation,
    confidence,
    conviction,
    jaccard,
    leverage,
    lift,
    support_fraction,
)


class TestSupportFraction:
    def test_basic(self):
        assert support_fraction(25, 100) == 0.25

    def test_zero_joint(self):
        assert support_fraction(0, 10) == 0.0

    def test_zero_total_rejected(self):
        with pytest.raises(ConfigError):
            support_fraction(1, 0)

    def test_joint_above_total_rejected(self):
        with pytest.raises(ConfigError):
            support_fraction(11, 10)


class TestConfidence:
    def test_basic(self):
        assert confidence(3, 4) == 0.75

    def test_unobserved_antecedent_is_zero(self):
        assert confidence(0, 0) == 0.0

    def test_perfect_rule(self):
        assert confidence(5, 5) == 1.0

    def test_joint_above_antecedent_rejected(self):
        with pytest.raises(ConfigError):
            confidence(5, 4)


class TestLift:
    def test_independence_gives_one(self):
        # P(A)=0.5, P(B)=0.5, P(AB)=0.25 → lift 1
        assert lift(25, 50, 50, 100) == pytest.approx(1.0)

    def test_positive_association(self):
        assert lift(50, 50, 50, 100) == pytest.approx(2.0)

    def test_unobserved_margin_is_zero(self):
        assert lift(0, 0, 10, 100) == 0.0

    def test_symmetry_in_antecedent_consequent(self):
        assert lift(10, 20, 40, 200) == lift(10, 40, 20, 200)


class TestLeverage:
    def test_independence_gives_zero(self):
        assert leverage(25, 50, 50, 100) == pytest.approx(0.0)

    def test_positive(self):
        assert leverage(50, 50, 50, 100) == pytest.approx(0.25)

    def test_negative(self):
        assert leverage(0, 50, 50, 100) == pytest.approx(-0.25)


class TestConviction:
    def test_independence_gives_one(self):
        assert conviction(25, 50, 50, 100) == pytest.approx(1.0)

    def test_perfect_rule_is_infinite(self):
        assert conviction(10, 10, 20, 100) == math.inf

    def test_unobserved_antecedent_is_zero(self):
        assert conviction(0, 0, 20, 100) == 0.0


class TestJaccard:
    def test_identical_tidsets(self):
        assert jaccard(10, 10, 10) == 1.0

    def test_disjoint(self):
        assert jaccard(0, 5, 5) == 0.0

    def test_partial_overlap(self):
        assert jaccard(2, 4, 4) == pytest.approx(2 / 6)

    def test_empty_union(self):
        assert jaccard(0, 0, 0) == 0.0


class TestCoefficientOfVariation:
    def test_empty_is_zero(self):
        assert coefficient_of_variation([]) == 0.0

    def test_constant_values_are_zero(self):
        assert coefficient_of_variation([0.4, 0.4, 0.4]) == pytest.approx(0.0, abs=1e-12)

    def test_zero_mean_is_zero(self):
        assert coefficient_of_variation([0.0, 0.0]) == 0.0

    def test_known_value(self):
        # values 1, 3: mean 2, population std 1 → Cv 0.5
        assert coefficient_of_variation([1.0, 3.0]) == pytest.approx(0.5)

    def test_clamped_to_one(self):
        # extreme spread: raw Cv ≈ 1.73, must clamp to 1
        assert coefficient_of_variation([0.0, 0.0, 0.0, 10.0]) == 1.0


class TestRuleMetrics:
    def test_from_counts_consistency(self):
        metrics = RuleMetrics.from_counts(10, 20, 40, 200)
        assert metrics.support == pytest.approx(0.05)
        assert metrics.confidence == pytest.approx(0.5)
        assert metrics.lift == pytest.approx(0.5 / 0.2)
        assert metrics.n_joint == 10

    def test_inconsistent_counts_rejected(self):
        with pytest.raises(ConfigError):
            RuleMetrics.from_counts(30, 20, 40, 200)

    def test_margin_above_total_rejected(self):
        with pytest.raises(ConfigError):
            RuleMetrics.from_counts(10, 300, 40, 200)

    def test_value_lookup(self):
        metrics = RuleMetrics.from_counts(10, 20, 40, 200)
        assert metrics.value("confidence") == metrics.confidence
        assert metrics.value("lift") == metrics.lift

    def test_value_unknown_measure_rejected(self):
        metrics = RuleMetrics.from_counts(10, 20, 40, 200)
        with pytest.raises(ConfigError, match="unknown measure"):
            metrics.value("sorcery")


@st.composite
def valid_counts(draw):
    n_total = draw(st.integers(1, 10_000))
    n_antecedent = draw(st.integers(0, n_total))
    n_consequent = draw(st.integers(0, n_total))
    n_joint = draw(st.integers(0, min(n_antecedent, n_consequent)))
    return n_joint, n_antecedent, n_consequent, n_total


def bits(value) -> str:
    return float(value).hex()


class TestFromCountsMatchesMeasureFunctions:
    """``from_counts`` validates once and inlines each measure; every
    field must still equal the standalone function bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(valid_counts())
    def test_every_field_equals_its_function(self, counts):
        n_joint, n_antecedent, n_consequent, n_total = counts
        metrics = RuleMetrics.from_counts(*counts)
        expected = {
            "support": support_fraction(n_joint, n_total),
            "confidence": confidence(n_joint, n_antecedent),
            "lift": lift(*counts),
            "leverage": leverage(*counts),
            "conviction": conviction(*counts),
            "jaccard": jaccard(n_joint, n_antecedent, n_consequent),
        }
        for name, value in expected.items():
            assert bits(getattr(metrics, name)) == bits(value), name

    @pytest.mark.parametrize(
        "counts",
        [(5, 5, 10, 20), (0, 0, 0, 1), (3, 3, 3, 3), (0, 4, 0, 9)],
    )
    def test_zero_and_infinite_cases(self, counts):
        metrics = RuleMetrics.from_counts(*counts)
        assert bits(metrics.conviction) == bits(conviction(*counts))
        assert bits(metrics.lift) == bits(lift(*counts))

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(*[st.integers(-3, 12)] * 4))
    def test_invalid_counts_raise_the_same_error(self, counts):
        try:
            expected = lift(*counts)
        except ConfigError as error:
            with pytest.raises(ConfigError) as raised:
                RuleMetrics.from_counts(*counts)
            assert str(raised.value) == str(error)
        else:
            assert bits(RuleMetrics.from_counts(*counts).lift) == bits(expected)
