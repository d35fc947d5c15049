"""Interestingness measures for itemsets and association rules.

Implements the classical measures of §2.1 of the paper — support
(Eq. 2.1), confidence (Eq. 2.2) and lift (Eq. 2.3) — plus the standard
companions (leverage, conviction, Jaccard) that the ablation benchmarks
use. All functions take *absolute counts* so they are exact and free of
premature floating-point division:

- ``n_joint``      — |A ∪ B|, transactions containing every item of the rule
- ``n_antecedent`` — |A|, transactions containing the antecedent
- ``n_consequent`` — |B|, transactions containing the consequent
- ``n_total``      — N, the database size

The :class:`RuleMetrics` dataclass bundles everything computed for one
rule; it is what the rule generator attaches to each
:class:`~repro.mining.rules.AssociationRule`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError


def _validate_counts(
    n_joint: int, n_antecedent: int, n_consequent: int, n_total: int
) -> None:
    if n_total <= 0:
        raise ConfigError(f"n_total must be positive, got {n_total}")
    if not 0 <= n_joint <= min(n_antecedent, n_consequent):
        raise ConfigError(
            f"inconsistent counts: joint={n_joint}, antecedent={n_antecedent}, "
            f"consequent={n_consequent}"
        )
    if n_antecedent > n_total or n_consequent > n_total:
        raise ConfigError(
            f"marginal count exceeds n_total={n_total}: "
            f"antecedent={n_antecedent}, consequent={n_consequent}"
        )


def support_fraction(n_joint: int, n_total: int) -> float:
    """Relative support P(A ∪ B) (Eq. 2.1, normalized by N)."""
    if n_total <= 0:
        raise ConfigError(f"n_total must be positive, got {n_total}")
    if n_joint < 0 or n_joint > n_total:
        raise ConfigError(f"n_joint={n_joint} out of range for n_total={n_total}")
    return n_joint / n_total


def confidence(n_joint: int, n_antecedent: int) -> float:
    """Confidence P(B | A) (Eq. 2.2).

    A rule with an unobserved antecedent has undefined confidence; this
    is treated as 0.0 so that unsupported context slots never dominate an
    exclusiveness computation.
    """
    if n_antecedent < 0 or n_joint < 0 or n_joint > n_antecedent:
        raise ConfigError(
            f"inconsistent counts: joint={n_joint}, antecedent={n_antecedent}"
        )
    if n_antecedent == 0:
        return 0.0
    return n_joint / n_antecedent


def lift(n_joint: int, n_antecedent: int, n_consequent: int, n_total: int) -> float:
    """Lift P(B|A)/P(B) (Eq. 2.3).

    Returns 0.0 when either marginal is unobserved.
    """
    _validate_counts(n_joint, n_antecedent, n_consequent, n_total)
    if n_antecedent == 0 or n_consequent == 0:
        return 0.0
    return (n_joint * n_total) / (n_antecedent * n_consequent)


def leverage(
    n_joint: int, n_antecedent: int, n_consequent: int, n_total: int
) -> float:
    """Leverage P(A∪B) − P(A)P(B): additive deviation from independence."""
    _validate_counts(n_joint, n_antecedent, n_consequent, n_total)
    return n_joint / n_total - (n_antecedent / n_total) * (n_consequent / n_total)


def conviction(
    n_joint: int, n_antecedent: int, n_consequent: int, n_total: int
) -> float:
    """Conviction P(A)P(¬B)/P(A ∪ ¬B).

    ``math.inf`` for a rule that never fails (confidence 1 with an
    observed antecedent); 0.0 for an unobserved antecedent.
    """
    _validate_counts(n_joint, n_antecedent, n_consequent, n_total)
    if n_antecedent == 0:
        return 0.0
    conf = n_joint / n_antecedent
    p_consequent = n_consequent / n_total
    if conf >= 1.0:
        return math.inf
    return (1.0 - p_consequent) / (1.0 - conf)


def jaccard(n_joint: int, n_antecedent: int, n_consequent: int) -> float:
    """Jaccard coefficient |A∩B| / |A∪B| over the tidsets of A and B."""
    if min(n_joint, n_antecedent, n_consequent) < 0:
        raise ConfigError("counts must be non-negative")
    union = n_antecedent + n_consequent - n_joint
    if union <= 0:
        return 0.0
    return n_joint / union


def coefficient_of_variation(values: list[float] | tuple[float, ...]) -> float:
    """Population coefficient of variation σ/μ, clamped to [0, 1].

    Eq. 3.4 of the paper multiplies the exclusiveness score by
    ``(1 − θ·Cv)``; for that product to stay a *penalty* (never flip the
    score's sign on its own) the Cv term is clamped into [0, 1]. An empty
    input or a zero mean yields 0.0 — no spread information, no penalty.
    """
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    if mean == 0.0:
        return 0.0
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    cv = math.sqrt(variance) / abs(mean)
    return min(cv, 1.0)


@dataclass(frozen=True, slots=True)
class RuleMetrics:
    """All interestingness measures of one rule, computed from counts."""

    n_joint: int
    n_antecedent: int
    n_consequent: int
    n_total: int
    support: float
    confidence: float
    lift: float
    leverage: float
    conviction: float
    jaccard: float

    @classmethod
    def from_counts(
        cls,
        n_joint: int,
        n_antecedent: int,
        n_consequent: int,
        n_total: int,
    ) -> "RuleMetrics":
        """Compute every measure once from the four underlying counts.

        The counts are validated once; each measure is then the same
        expression, with the same zero and ``inf`` cases, as its
        standalone function (which validates on its own).
        """
        _validate_counts(n_joint, n_antecedent, n_consequent, n_total)
        if n_antecedent == 0:
            conf = lift_ = conviction_ = 0.0
        else:
            conf = n_joint / n_antecedent
            lift_ = (
                0.0
                if n_consequent == 0
                else (n_joint * n_total) / (n_antecedent * n_consequent)
            )
            conviction_ = (
                math.inf
                if conf >= 1.0
                else (1.0 - n_consequent / n_total) / (1.0 - conf)
            )
        union = n_antecedent + n_consequent - n_joint
        return cls(
            n_joint=n_joint,
            n_antecedent=n_antecedent,
            n_consequent=n_consequent,
            n_total=n_total,
            support=n_joint / n_total,
            confidence=conf,
            lift=lift_,
            leverage=n_joint / n_total
            - (n_antecedent / n_total) * (n_consequent / n_total),
            conviction=conviction_,
            jaccard=n_joint / union if union > 0 else 0.0,
        )

    def value(self, measure: str) -> float:
        """Look up a measure by name (``"confidence"``, ``"lift"``, ...).

        The exclusiveness scorer is parameterized by measure name, per the
        paper's remark that "confidence ... could be replaced by other
        reasonable measures".
        """
        try:
            result = getattr(self, measure)
        except AttributeError:
            raise ConfigError(f"unknown measure {measure!r}") from None
        if not isinstance(result, (int, float)):
            raise ConfigError(f"{measure!r} is not a numeric measure")
        return float(result)
