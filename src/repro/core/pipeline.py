"""The end-to-end MeDIAR/MARAS pipeline (§5.2's four mining steps).

:class:`Maras` wires the substrates together:

1. **prepare** — clean the raw case reports
   (:class:`~repro.faers.cleaning.ReportCleaner`) and encode them as a
   transaction database with drug/ADR item kinds;
2. **mine** — closed frequent itemsets
   (:func:`~repro.mining.fpclose.fpclose`) at a low support threshold;
3. **filter** — keep rules with drug-only antecedents and ADR-only
   consequents (:func:`~repro.mining.rules.partitioned_rules`), restrict
   to multi-drug rules;
4. **cluster & rank** — build each rule's MCAC and rank by the
   exclusiveness measure.

The :class:`MarasResult` keeps the encoded dataset, so every ranked
cluster can be drilled down to its supporting source reports (§4.1) and
re-ranked under any method without re-mining.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.association import DrugADRAssociation, SupportType
from repro.core.context import MCAC, build_clusters
from repro.core.ranking import (
    RankedCluster,
    RankingMethod,
    rank_scored,
    ranking_table,
)
from repro.core.records import ClusterRecord, build_record
from repro.errors import ConfigError
from repro.faers.cleaning import (
    CleaningStats,
    ReportCleaner,
    SpellingCorrector,
    normalize_adr_term,
    normalize_drug_name,
)
from repro.faers.dataset import ADR_KIND, DRUG_KIND, EncodedDataset, ReportDataset
from repro.faers.schema import CaseReport
from repro.mining.bitsets import SupportOracle
from repro.mining.fpclose import fpclose
from repro.mining.fpgrowth import fpgrowth
from repro.mining.rules import (
    count_all_splits,
    count_partitioned_splits,
    partitioned_rules,
)
from repro.mining.transactions import canonical_itemset_order, resolve_min_support
from repro.obs import NULL_REGISTRY, MetricsRegistry, MetricsSnapshot, NullRegistry
from repro.obs.metrics import use_registry
from repro.parallel.miner import MAX_WORKERS, fpclose_sharded, resolve_workers
from repro.parallel.sharding import SHARD_STRATEGIES, plan_shards
from repro.runtime import collector_paused


@dataclass(frozen=True, slots=True)
class MarasConfig:
    """Knobs of one pipeline run.

    Attributes
    ----------
    min_support:
        Absolute count (int) or fraction (float). The paper mines at a
        deliberately *low* support so rare interactions are not lost.
    max_itemset_len:
        Cardinality cap on mined itemsets (drugs + ADRs combined);
        bounds both runtime and rule length.
    max_drugs:
        Evaluate combinations of 2..max_drugs drugs (the paper's tables
        and user study go up to 4).
    min_confidence:
        Rule-level confidence floor applied at generation (0 keeps all).
    clean:
        Run the cleaning pass (merge case versions, drop duplicates,
        normalize names) before encoding. Disable only for data that is
        already canonical — e.g. the synthetic generator's output.
    count_rule_space:
        Also mine *all* frequent itemsets and count the traditional and
        filtered rule spaces (the Fig 5.1 series). Costs a second mining
        pass; off by default.
    theta, decay:
        Exclusiveness parameters forwarded to the rankers.
    n_workers:
        Number of worker processes for the mining stage. It shards
        one-shot mining; the incremental engine always mines
        in-process. ``1`` (the default) runs the in-process path;
        ``N > 1`` partitions the dataset into shards, mines them in
        ``N`` processes, and merges the per-shard results exactly
        (:mod:`repro.parallel`); ``0`` means one worker per CPU core.
        Results are byte-identical for every value — the differential
        harness in ``tests/parallel`` enforces it.
    shard_strategy:
        How the parallel path partitions reports: ``"hash"`` (stable
        hash of the case id) or ``"quarter"`` (one shard per distinct
        quarter label). Ignored when ``n_workers == 1`` and by the
        incremental engine.
    incremental:
        Make :class:`~repro.core.incremental.SurveillanceMonitor` fold
        batches through the stateful
        :class:`~repro.incremental.IncrementalEngine` (per-batch cost
        proportional to the delta) instead of re-running the full
        pipeline over the accumulated history. One-shot ``Maras.run``
        calls are unaffected by the flag. Incompatible with
        ``count_rule_space`` (the rule-space census is a whole-history
        measurement).
    incremental_rebuild_fraction:
        When a batch's delta touches more than this fraction of the
        post-batch database, the incremental engine falls back to a
        full rebuild: near-total deltas make delta-restricted mining
        pure overhead. ``1.0`` disables the fallback.
    """

    min_support: int | float = 5
    max_itemset_len: int | None = 8
    max_drugs: int = 4
    min_confidence: float = 0.0
    clean: bool = True
    count_rule_space: bool = False
    theta: float = 0.5
    decay: str = "linear"
    n_workers: int = 1
    shard_strategy: str = "hash"
    incremental: bool = False
    incremental_rebuild_fraction: float = 0.5

    def __post_init__(self) -> None:
        support = self.min_support
        if isinstance(support, bool) or not isinstance(support, (int, float)):
            raise ConfigError(
                f"min_support must be an int or float, got {support!r}"
            )
        if isinstance(support, int):
            if support < 1:
                raise ConfigError(
                    f"absolute min_support must be >= 1, got {support}"
                )
        elif not 0.0 < support <= 1.0:
            raise ConfigError(
                f"fractional min_support must be in (0, 1], got {support}"
            )
        if self.max_drugs < 2:
            raise ConfigError(f"max_drugs must be >= 2, got {self.max_drugs}")
        if self.max_itemset_len is not None and self.max_itemset_len < 3:
            raise ConfigError(
                "max_itemset_len must allow at least 2 drugs + 1 ADR, "
                f"got {self.max_itemset_len}"
            )
        if not 0.0 <= self.min_confidence <= 1.0:
            raise ConfigError(
                f"min_confidence must be in [0, 1], got {self.min_confidence}"
            )
        if isinstance(self.n_workers, bool) or not isinstance(self.n_workers, int):
            raise ConfigError(
                f"n_workers must be an int, got {self.n_workers!r}"
            )
        if self.n_workers < 0:
            raise ConfigError(
                f"n_workers must be >= 0 (0 = one per core), got {self.n_workers}"
            )
        if self.n_workers > MAX_WORKERS:
            raise ConfigError(
                f"n_workers must be <= {MAX_WORKERS}, got {self.n_workers} "
                "(use 0 for one worker per core)"
            )
        if self.shard_strategy not in SHARD_STRATEGIES:
            raise ConfigError(
                f"unknown shard strategy {self.shard_strategy!r}; "
                f"choose from {SHARD_STRATEGIES}"
            )
        if self.incremental and self.count_rule_space:
            raise ConfigError(
                "incremental surveillance is incompatible with "
                "count_rule_space"
            )
        if not 0.0 < self.incremental_rebuild_fraction <= 1.0:
            raise ConfigError(
                "incremental_rebuild_fraction must be in (0, 1], got "
                f"{self.incremental_rebuild_fraction}"
            )


@dataclass(frozen=True, slots=True)
class RuleSpaceCounts:
    """The three series of Fig 5.1 for one quarter."""

    total_rules: int
    filtered_rules: int
    mcacs: int


class _KindResolver:
    """Immutable query→item-id resolution structures for one item kind.

    Built once from a catalog snapshot (label map plus the deletion-
    neighborhood :class:`SpellingCorrector` index) and then only read,
    so any number of threads can resolve queries through it without
    synchronization. Construction is the expensive part — it walks every
    label of the kind — which is why :class:`MarasResult` builds it
    lazily and caches it.
    """

    __slots__ = ("_kind", "_normalizer", "_id_by_label", "_corrector")

    def __init__(self, catalog, kind: str, normalizer) -> None:
        self._kind = kind
        self._normalizer = normalizer
        self._id_by_label = {
            catalog.label(item_id): item_id for item_id in catalog.ids_of_kind(kind)
        }
        self._corrector = (
            SpellingCorrector(self._id_by_label) if self._id_by_label else None
        )

    def resolve(self, raw: str) -> int | None:
        """Map one verbatim query string to an item id of this kind.

        Tries the raw string, then its normalized form, then an
        unambiguous edit-distance-1 correction against the kind's
        labels. Returns ``None`` when nothing matches.
        """
        normalized = self._normalizer(raw)
        for candidate in (raw, normalized):
            item_id = self._id_by_label.get(candidate)
            if item_id is not None:
                return item_id
        if not normalized or self._corrector is None:
            return None
        return self._id_by_label.get(self._corrector.correct(normalized))


class MarasResult:
    """Everything one pipeline run produced, with drill-down helpers."""

    def __init__(
        self,
        config: MarasConfig,
        dataset: ReportDataset,
        encoded: EncodedDataset,
        associations: list[DrugADRAssociation],
        clusters: list[MCAC],
        cleaning_stats: CleaningStats | None,
        rule_counts: RuleSpaceCounts | None,
        metrics: MetricsSnapshot | None = None,
        *,
        records: Sequence[ClusterRecord | None] | None = None,
    ) -> None:
        self.config = config
        self.dataset = dataset
        self.encoded = encoded
        self.associations = associations
        self.clusters = clusters
        self.cleaning_stats = cleaning_stats
        self.rule_counts = rule_counts
        #: Stage timings and counters of the run that produced this
        #: result; ``None`` unless the pipeline ran with a real
        #: :class:`~repro.obs.MetricsRegistry`.
        self.metrics = metrics
        # Lazily-built per-kind query resolvers and per-cluster records
        # (read by concurrent server threads; the lock makes first-use
        # construction happen exactly once, and what it builds is
        # immutable thereafter). ``records`` seeds the ones a caller
        # already holds, aligned with ``clusters``; None slots are
        # built on first use.
        self._lock = threading.Lock()
        self._resolvers: dict[str, _KindResolver] = {}
        self._seeds = records
        self._records: list[ClusterRecord] | None = None
        self._record_index: dict[frozenset[int], ClusterRecord] | None = None

    @property
    def catalog(self):
        return self.encoded.catalog

    def rank(
        self,
        method: RankingMethod = RankingMethod.EXCLUSIVENESS_CONFIDENCE,
        *,
        top_k: int | None = None,
    ) -> list[RankedCluster]:
        """Rank this run's clusters under one method."""
        if not isinstance(method, RankingMethod):
            raise ConfigError(f"unknown ranking method {method!r}")
        return rank_scored(
            self.clusters,
            [scores[method.value] for scores in self.cluster_scores()],
            top_k=top_k,
        )

    def cluster_scores(self) -> list[dict[str, float]]:
        """Each cluster's score under every :class:`RankingMethod`.

        Aligned with :attr:`clusters` and keyed by method value; read
        from :meth:`records`, so ranking and export share one scoring
        pass. Treat the dicts as read-only.
        """
        return [record.scores for record in self.records()]

    def records(self) -> list[ClusterRecord]:
        """One :class:`~repro.core.records.ClusterRecord` per cluster.

        Aligned with :attr:`clusters` (and :attr:`associations`); built
        once per result, seeded slots first, so export, ranking and the
        surveillance change feed derive ids, labels, case ids and
        scores once. Treat the list as read-only.
        """
        records = self._records
        if records is None:
            with self._lock:
                records = self._records
                if records is None:
                    seeds = self._seeds or [None] * len(self.clusters)
                    theta, decay = self.config.theta, self.config.decay
                    records = self._records = [
                        seed
                        if seed is not None
                        else build_record(
                            association,
                            cluster,
                            self.encoded,
                            theta=theta,
                            decay=decay,
                        )
                        for seed, association, cluster in zip(
                            seeds, self.associations, self.clusters
                        )
                    ]
                    self._seeds = None
        return records

    def record_of(self, cluster: MCAC) -> ClusterRecord:
        """The record of one of this result's clusters (by target itemset)."""
        index = self._record_index
        if index is None:
            index = {record.cluster.target.items: record for record in self.records()}
            self._record_index = index
        record = index.get(cluster.target.items)
        if record is None:
            raise ConfigError("cluster does not belong to this result")
        return record

    def ranking_table(self, *, top_k: int = 5):
        """Table 5.2: the four rankings side by side."""
        return ranking_table(
            self.clusters,
            top_k=top_k,
            theta=self.config.theta,
            decay=self.config.decay,
        )

    def search(
        self,
        *,
        drug: str | None = None,
        adr: str | None = None,
    ) -> list[MCAC]:
        """§4.1 highlighting: clusters mentioning a drug and/or an ADR.

        Queries may be verbatim strings: each is passed through the
        matching normalizer of :mod:`repro.faers.cleaning` (case,
        punctuation, dosage tails) and, when still unknown, through
        unambiguous edit-distance-1 correction against the catalog's own
        labels — so ``search(drug="aspirin 81 mg")`` and
        ``search(drug="ASPIRN")`` both find the ``ASPIRIN`` clusters.
        """
        if drug is None and adr is None:
            raise ConfigError("search needs a drug, an adr, or both")
        drug_id = (
            self._resolver_for(DRUG_KIND).resolve(drug)
            if drug is not None
            else None
        )
        adr_id = (
            self._resolver_for(ADR_KIND).resolve(adr)
            if adr is not None
            else None
        )
        if drug is not None and drug_id is None:
            return []
        if adr is not None and adr_id is None:
            return []
        matches = []
        for cluster in self.clusters:
            if drug_id is not None and drug_id not in cluster.target.antecedent:
                continue
            if adr_id is not None and adr_id not in cluster.target.consequent:
                continue
            matches.append(cluster)
        return matches

    def _resolver_for(self, kind: str) -> _KindResolver:
        """The cached query resolver of ``kind``, built on first use.

        Safe for concurrent readers: resolvers are immutable once
        constructed, and the lock serializes only the one-time build
        (previously every ``search`` call rebuilt the label list and
        the spelling-corrector's deletion index from scratch).
        """
        resolver = self._resolvers.get(kind)
        if resolver is not None:
            return resolver
        with self._lock:
            resolver = self._resolvers.get(kind)
            if resolver is None:
                normalizer = (
                    normalize_drug_name if kind == DRUG_KIND else normalize_adr_term
                )
                resolver = _KindResolver(self.catalog, kind, normalizer)
                self._resolvers[kind] = resolver
        return resolver

    def supporting_reports(self, cluster: MCAC) -> list[CaseReport]:
        """§4.1 drill-down: the raw reports behind one cluster's target rule."""
        return self.encoded.supporting_reports(cluster.target.items)


class Maras:
    """The MeDIAR/MARAS analytics system.

    >>> from repro.faers import SyntheticConfig, SyntheticFAERSGenerator
    >>> reports = SyntheticFAERSGenerator(SyntheticConfig(n_reports=800)).generate()
    >>> result = Maras(MarasConfig(min_support=4, clean=False)).run(reports)
    >>> top = result.rank(top_k=5)

    Pass a :class:`~repro.obs.MetricsRegistry` to profile the run:
    per-stage timers and item/rule/cluster counters land in
    :attr:`MarasResult.metrics` (and in the registry's sink, if any).
    The default is the no-op registry, which costs nothing.
    """

    def __init__(
        self,
        config: MarasConfig | None = None,
        *,
        registry: MetricsRegistry | NullRegistry | None = None,
    ) -> None:
        self.config = config if config is not None else MarasConfig()
        self.registry = registry if registry is not None else NULL_REGISTRY

    @collector_paused()
    def run(
        self, reports: Sequence[CaseReport] | ReportDataset
    ) -> MarasResult:
        """Execute the full pipeline over ``reports``.

        ``config.clean`` is honored for *both* input shapes: a raw
        report sequence and an already-built :class:`ReportDataset` are
        cleaned identically, so wrapping reports in a dataset can never
        silently bypass §5.2's preparation step (case-version merging,
        name normalization). Callers holding pre-cleaned data should run
        with ``clean=False``.
        """
        registry = self.registry
        with use_registry(registry):
            return self._run(reports, registry)

    def _run(
        self,
        reports: Sequence[CaseReport] | ReportDataset,
        registry: MetricsRegistry | NullRegistry,
    ) -> MarasResult:
        config = self.config
        cleaning_stats: CleaningStats | None = None

        with registry.timer("pipeline.prepare"):
            if isinstance(reports, ReportDataset) and not config.clean:
                dataset = reports
                # Count the input even on the pass-through path, so
                # profiles from pre-built datasets report their true
                # input size.
                registry.counter("pipeline.reports_in").inc(len(dataset))
            else:
                rows = list(reports)
                registry.counter("pipeline.reports_in").inc(len(rows))
                if config.clean:
                    rows, cleaning_stats = ReportCleaner().clean(rows)
                if isinstance(reports, ReportDataset):
                    dataset = ReportDataset(rows, quarter=reports.quarter)
                else:
                    dataset = ReportDataset(rows)
            encoded = dataset.encode()
            database = encoded.database
        registry.counter("pipeline.transactions").inc(len(database))

        # One memoized support cache for the whole run: the rule
        # generators and every MCAC share it, and the sharded merge
        # warms it.
        with registry.timer("pipeline.index"):
            oracle = SupportOracle(database)

        n_workers = resolve_workers(config.n_workers)
        if n_workers > 1 and len(database) > 1:
            with registry.timer("pipeline.mine"):
                closed = fpclose_sharded(
                    database,
                    resolve_min_support(config.min_support, len(database)),
                    max_len=config.max_itemset_len,
                    n_workers=n_workers,
                    plan=plan_shards(dataset, n_workers, config.shard_strategy),
                    oracle=oracle,
                )
        else:
            with registry.timer("pipeline.mine"):
                closed = fpclose(
                    database,
                    config.min_support,
                    max_len=config.max_itemset_len,
                )
        # Canonical order on every path: enumeration order would
        # otherwise leak the mining backend into rule/cluster/export
        # order and break the byte-identical guarantee.
        closed = canonical_itemset_order(closed)
        registry.counter("pipeline.closed_itemsets").inc(len(closed))

        with registry.timer("pipeline.filter"):
            rules = partitioned_rules(
                closed,
                database,
                antecedent_kind=DRUG_KIND,
                consequent_kind=ADR_KIND,
                min_confidence=config.min_confidence,
                oracle=oracle,
            )
            multi_drug_rules = [
                rule
                for rule in rules
                if 2 <= len(rule.antecedent) <= config.max_drugs
            ]
            associations = [
                DrugADRAssociation.from_rule(rule, database)
                for rule in multi_drug_rules
            ]
        registry.counter("pipeline.rules").inc(len(rules))
        registry.counter("pipeline.multi_drug_rules").inc(len(multi_drug_rules))

        # Every closed rule must classify as supported — this is
        # Lemma 3.4.2 holding at runtime, not a filter.
        unsupported = [
            a for a in associations if a.support_type is SupportType.UNSUPPORTED
        ]
        if unsupported:
            raise ConfigError(
                f"internal error: {len(unsupported)} closed rules classified "
                "as unsupported; Lemma 3.4.2 violated"
            )

        with registry.timer("pipeline.cluster"):
            clusters = build_clusters(multi_drug_rules, database, oracle=oracle)
        registry.counter("pipeline.clusters").inc(len(clusters))
        registry.counter("oracle.support_hits").inc(oracle.hits)
        registry.counter("oracle.support_misses").inc(oracle.misses)

        rule_counts: RuleSpaceCounts | None = None
        if config.count_rule_space:
            with registry.timer("pipeline.count_rule_space"):
                all_frequent = fpgrowth(
                    database, config.min_support, max_len=config.max_itemset_len
                )
                catalog = encoded.catalog
                rule_counts = RuleSpaceCounts(
                    total_rules=count_all_splits(all_frequent),
                    filtered_rules=count_partitioned_splits(
                        all_frequent,
                        catalog.ids_of_kind(DRUG_KIND),
                        catalog.ids_of_kind(ADR_KIND),
                    ),
                    mcacs=len(clusters),
                )

        registry.emit(
            "pipeline.run",
            n_reports=len(dataset),
            n_transactions=len(database),
            n_closed_itemsets=len(closed),
            n_rules=len(rules),
            n_multi_drug_rules=len(multi_drug_rules),
            n_clusters=len(clusters),
        )
        return MarasResult(
            config=config,
            dataset=dataset,
            encoded=encoded,
            associations=associations,
            clusters=clusters,
            cleaning_stats=cleaning_stats,
            rule_counts=rule_counts,
            metrics=registry.snapshot() if registry.enabled else None,
        )
