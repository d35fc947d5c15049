"""JSON export of pipeline results.

The MeDIAR demo serves mined clusters to an interactive web front-end;
this module is that wire format. :func:`export_result` serializes a
:class:`~repro.core.pipeline.MarasResult` — every cluster with its
target rule, full context, per-method scores, and supporting case ids —
into plain JSON-compatible dicts, and :func:`load_export` reads it back
into light-weight records a UI (or a downstream notebook) can consume
without re-mining.

The format is versioned; loaders reject versions they do not know
instead of mis-parsing them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core.ids import cluster_id
from repro.core.pipeline import MarasResult
from repro.errors import ConfigError, ValidationError

FORMAT_VERSION = 1


def export_result(
    result: MarasResult, *, include_case_ids: bool = True
) -> dict[str, Any]:
    """Serialize a pipeline result to a JSON-compatible dict.

    Reads each cluster's :class:`~repro.core.records.ClusterRecord`
    (:meth:`~repro.core.pipeline.MarasResult.records`), so ids, labels,
    case ids and scores are derived once per result.
    """
    clusters = []
    for record in result.records():
        cluster = record.cluster
        metrics = cluster.target.metrics
        entry: dict[str, Any] = {
            "id": record.id,
            "drugs": list(record.drugs),
            "adrs": list(record.adrs),
            "support": metrics.n_joint,
            "confidence": metrics.confidence,
            "lift": metrics.lift,
            "scores": dict(record.scores),
            "context": [
                {
                    "drugs": list(drugs),
                    "cardinality": rule.cardinality,
                    "confidence": rule.metrics.confidence,
                    "lift": rule.metrics.lift,
                }
                for drugs, rule in zip(
                    record.context_drugs, cluster.all_context_rules()
                )
            ],
        }
        if include_case_ids:
            entry["case_ids"] = list(record.case_ids)
        clusters.append(entry)

    stats = result.dataset.stats()
    return {
        "format_version": FORMAT_VERSION,
        "quarter": stats.quarter,
        "dataset": {
            "n_reports": stats.n_reports,
            "n_drugs": stats.n_drugs,
            "n_adrs": stats.n_adrs,
        },
        "config": {
            "min_support": result.config.min_support,
            "max_drugs": result.config.max_drugs,
            "theta": result.config.theta,
            "decay": result.config.decay,
        },
        "clusters": clusters,
    }


def write_export(
    result: MarasResult, path: str | Path, *, include_case_ids: bool = True
) -> Path:
    """Serialize to a JSON file; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = export_result(result, include_case_ids=include_case_ids)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")
    return path


@dataclass(frozen=True, slots=True)
class ExportedCluster:
    """One cluster as read back from an export."""

    id: str
    drugs: tuple[str, ...]
    adrs: tuple[str, ...]
    support: int
    confidence: float
    lift: float
    scores: dict[str, float]
    context: tuple[dict[str, Any], ...]
    case_ids: tuple[str, ...]

    @property
    def key(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        return (self.drugs, self.adrs)


@dataclass(frozen=True, slots=True)
class ExportedResult:
    """A full export, loaded."""

    quarter: str
    n_reports: int
    clusters: tuple[ExportedCluster, ...]
    config: dict[str, Any]

    def top(self, method: str, k: int = 10) -> list[ExportedCluster]:
        """Top-k clusters by one of the exported score names."""
        if not self.clusters:
            return []
        if method not in self.clusters[0].scores:
            raise ConfigError(
                f"unknown score {method!r}; have {sorted(self.clusters[0].scores)}"
            )
        ranked = sorted(self.clusters, key=lambda c: -c.scores[method])
        return ranked[:k]


def load_export(source: str | Path | dict[str, Any]) -> ExportedResult:
    """Load an export from a path or an already-parsed dict."""
    if isinstance(source, (str, Path)):
        payload = json.loads(Path(source).read_text(encoding="utf-8"))
    else:
        payload = source
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValidationError(
            f"unsupported export format version {version!r} "
            f"(this loader reads version {FORMAT_VERSION})"
        )
    clusters = tuple(
        ExportedCluster(
            # Exports written before stable ids lack the field; the id
            # is a pure content hash, so recomputing it here yields the
            # same value export_result would have written.
            id=record.get("id")
            or cluster_id(record["drugs"], record["adrs"]),
            drugs=tuple(record["drugs"]),
            adrs=tuple(record["adrs"]),
            support=int(record["support"]),
            confidence=float(record["confidence"]),
            lift=float(record["lift"]),
            scores={name: float(v) for name, v in record["scores"].items()},
            context=tuple(record["context"]),
            case_ids=tuple(record.get("case_ids", ())),
        )
        for record in payload["clusters"]
    )
    return ExportedResult(
        quarter=payload.get("quarter", ""),
        n_reports=int(payload["dataset"]["n_reports"]),
        clusters=clusters,
        config=dict(payload.get("config", {})),
    )
