"""One record per ranked cluster: everything export and ranking read.

A :class:`ClusterRecord` bundles a multi-drug association and its MCAC
with the values every consumer derives from them — the stable id, the
drug/ADR labels of the target and of each context rule, the sorted
supporting case ids and the score under every
:class:`~repro.core.ranking.RankingMethod`. :class:`MarasResult
<repro.core.pipeline.MarasResult>` builds them lazily through
:func:`build_record`, so :func:`~repro.core.export.export_result`, the
ranking and the surveillance change feed compute each value once per
result.

The incremental engine carries records across batches. Counts that a
batch cannot change are kept; :func:`remeasure` rebuilds the
``n_total``- and supp(Y)-dependent side (support, lift, leverage,
conviction and the two lift scores) through the same
:meth:`~repro.mining.measures.RuleMetrics.from_counts` and
:func:`~repro.core.ranking.score_cluster` calls a fresh build makes, so
the floats are identical.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.association import DrugADRAssociation
from repro.core.context import MCAC, ContextualRule
from repro.core.ids import cluster_id
from repro.core.ranking import RankingMethod, score_cluster
from repro.mining.measures import RuleMetrics
from repro.mining.rules import AssociationRule

#: The scores that read supp(Y) or ``n_total``; the other three read
#: confidences only.
_LIFT_SIDE = (RankingMethod.LIFT, RankingMethod.EXCLUSIVENESS_LIFT)


@dataclass(frozen=True, slots=True)
class ClusterRecord:
    """One clustered itemset: its association, MCAC and derived values.

    ``association.rule`` is ``cluster.target``. ``context_drugs`` holds
    the antecedent labels of each contextual rule in
    :meth:`~repro.core.context.MCAC.all_context_rules` order, and
    ``scores`` maps every :class:`RankingMethod` value to the cluster's
    score (treat it as read-only).
    """

    association: DrugADRAssociation
    cluster: MCAC
    id: str
    drugs: tuple[str, ...]
    adrs: tuple[str, ...]
    context_drugs: tuple[tuple[str, ...], ...]
    case_ids: tuple[str, ...]
    scores: dict[str, float]


def build_record(
    association: DrugADRAssociation,
    cluster: MCAC,
    encoded,
    *,
    theta: float,
    decay: str,
) -> ClusterRecord:
    """Derive a record from scratch against ``encoded``'s catalog and rows."""
    catalog = encoded.catalog
    target = cluster.target
    drugs = catalog.labels(target.antecedent)
    adrs = catalog.labels(target.consequent)
    tids = encoded.database.tidset_of(target.items)
    return ClusterRecord(
        association=association,
        cluster=cluster,
        id=cluster_id(drugs, adrs),
        drugs=drugs,
        adrs=adrs,
        context_drugs=tuple(
            catalog.labels(rule.antecedent) for rule in cluster.all_context_rules()
        ),
        case_ids=tuple(sorted(encoded.case_id_of(tid) for tid in tids)),
        scores={
            method.value: score_cluster(cluster, method, theta=theta, decay=decay)
            for method in RankingMethod
        },
    )


def remeasure(
    record: ClusterRecord,
    *,
    n_consequent: int,
    n_total: int,
    theta: float,
    decay: str,
) -> ClusterRecord:
    """The record under a new supp(Y) and ``n_total``, counts otherwise kept.

    Valid only when no joint or antecedent count of the cluster changed
    (the caller's carry rule). Confidences, and so the level order and
    the confidence-side scores, are unchanged; every metric and the two
    lift-side scores are rebuilt from the kept counts.
    """
    target = record.cluster.target
    kept = target.metrics
    if n_total == kept.n_total and n_consequent == kept.n_consequent:
        return record

    def measured(metrics: RuleMetrics) -> RuleMetrics:
        return RuleMetrics.from_counts(
            n_joint=metrics.n_joint,
            n_antecedent=metrics.n_antecedent,
            n_consequent=n_consequent,
            n_total=n_total,
        )

    rule = AssociationRule(target.antecedent, target.consequent, measured(kept))
    cluster = MCAC(
        target=rule,
        levels={
            level: tuple(
                ContextualRule(
                    context.antecedent, context.consequent, measured(context.metrics)
                )
                for context in rules
            )
            for level, rules in record.cluster.levels.items()
        },
    )
    scores = dict(record.scores)
    for method in _LIFT_SIDE:
        scores[method.value] = score_cluster(
            cluster, method, theta=theta, decay=decay
        )
    return ClusterRecord(
        association=DrugADRAssociation(rule, record.association.support_type),
        cluster=cluster,
        id=record.id,
        drugs=record.drugs,
        adrs=record.adrs,
        context_drugs=record.context_drugs,
        case_ids=record.case_ids,
        scores=scores,
    )
