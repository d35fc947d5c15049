"""The exclusiveness interestingness score (§3.6).

The intuition: ADRs caused by a genuine drug-drug interaction are
*exclusive* to the complete combination — every proper subset of the
drugs is weakly associated with the same ADRs. The score contrasts the
target rule's strength ``p`` with the strengths of its contextual rules,
in three refinements:

- :func:`exclusiveness_simple` — Eq. 3.3, ``p − mean(context)``;
- :func:`exclusiveness_cv` — Eq. 3.4, the same with a coefficient-of-
  variation penalty ``(1 − θ·Cv)`` so a context mixing one very strong
  sub-rule with weak ones is not excused by its low mean;
- :func:`exclusiveness` — Eq. 3.5, the full per-level form: contrast
  computed per antecedent-cardinality level ``k``, weighted by a decay
  ``fd(k)`` (single-drug context matters most), CV-penalized per level,
  and averaged over levels. ``confidence`` can be swapped for ``lift``
  or any other :class:`~repro.mining.measures.RuleMetrics` field.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.core.context import MCAC
from repro.mining.measures import coefficient_of_variation

DecayFunction = Callable[[int, int], float]


def linear_decay(cardinality: int, n_drugs: int) -> float:
    """The paper's decay: weight ``1 − (k−1)/n`` for level ``k`` of an n-drug rule."""
    return 1.0 - (cardinality - 1) / n_drugs


def no_decay(cardinality: int, n_drugs: int) -> float:
    """Every context level weighted equally (ablation baseline)."""
    return 1.0


def exponential_decay(cardinality: int, n_drugs: int) -> float:
    """Halve the weight per extra drug in the contextual antecedent (ablation)."""
    return 0.5 ** (cardinality - 1)


DECAY_FUNCTIONS: Mapping[str, DecayFunction] = {
    "linear": linear_decay,
    "none": no_decay,
    "exponential": exponential_decay,
}


@dataclass(frozen=True, slots=True)
class ExclusivenessConfig:
    """Parameters of the Eq. 3.5 score.

    Attributes
    ----------
    measure:
        Which :class:`RuleMetrics` field to contrast — the paper
        evaluates ``"confidence"`` and ``"lift"``.
    theta:
        CV-penalty strength θ ∈ [0, 1]; 0 disables the penalty
        (reducing Eq. 3.4 to Eq. 3.3 and the per-level terms of Eq. 3.5
        to plain decayed contrasts).
    decay:
        Name of the decay function (key of :data:`DECAY_FUNCTIONS`).
    """

    measure: str = "confidence"
    theta: float = 0.5
    decay: str = "linear"

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= 1.0:
            raise ConfigError(f"theta must be in [0, 1], got {self.theta}")
        if self.decay not in DECAY_FUNCTIONS:
            raise ConfigError(
                f"unknown decay {self.decay!r}; expected one of "
                f"{sorted(DECAY_FUNCTIONS)}"
            )

    @property
    def decay_function(self) -> DecayFunction:
        return DECAY_FUNCTIONS[self.decay]


def exclusiveness_simple(p: float, context_values: list[float]) -> float:
    """Eq. 3.3: target strength minus the mean context strength.

    An empty context (which the MCAC builder never produces for a
    multi-drug rule) contributes a mean of 0, i.e. the score degenerates
    to ``p``.
    """
    if not context_values:
        return p
    return p - sum(context_values) / len(context_values)


def exclusiveness_cv(
    p: float, context_values: list[float], theta: float = 0.5
) -> float:
    """Eq. 3.4: the mean-contrast score with the CV penalty ``(1 − θ·Cv)``."""
    if not 0.0 <= theta <= 1.0:
        raise ConfigError(f"theta must be in [0, 1], got {theta}")
    base = exclusiveness_simple(p, context_values)
    return base * (1.0 - theta * coefficient_of_variation(context_values))


def exclusiveness(
    cluster: MCAC, config: ExclusivenessConfig | None = None
) -> float:
    """Eq. 3.5: the full multi-level exclusiveness score of one MCAC.

    .. math::

        \\frac{1}{|V|} \\sum_k (p - \\bar v_k) \\cdot f_d(k)
        \\cdot (1 - \\theta \\cdot C_v(v_k))

    where ``v_k`` is the set of measure values of the level-``k``
    contextual rules, ``|V|`` the number of levels, ``p`` the target's
    measure value, ``f_d`` the decay and ``C_v`` the (clamped)
    coefficient of variation.
    """
    config = config if config is not None else ExclusivenessConfig()
    p = cluster.target.metrics.value(config.measure)
    levels = cluster.context_values(config.measure)
    if not levels:
        raise ConfigError(
            "cluster has no context levels; MCACs of multi-drug rules "
            "always have at least level 1"
        )
    decay = config.decay_function
    n_drugs = cluster.n_drugs
    total = 0.0
    for cardinality, values in levels.items():
        total += level_term(p, values, decay(cardinality, n_drugs), config.theta)
    return total / len(levels)


def level_term(p: float, values: list[float], weight: float, theta: float) -> float:
    """One level's addend of Eq. 3.5: ``(p − v̄_k) · f_d(k) · (1 − θ·Cv(v_k))``."""
    mean = sum(values) / len(values)
    return (p - mean) * weight * (1.0 - theta * coefficient_of_variation(values))


def score_clusters(
    clusters: list[MCAC], config: ExclusivenessConfig | None = None
) -> list[tuple[MCAC, float]]:
    """Score every cluster, returned in descending score order."""
    config = config if config is not None else ExclusivenessConfig()
    scored = [(cluster, exclusiveness(cluster, config)) for cluster in clusters]
    scored.sort(key=lambda pair: -pair[1])
    return scored
