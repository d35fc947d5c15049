"""The stateful incremental surveillance engine.

One :class:`IncrementalEngine` instance owns the accumulated state of a
surveillance stream and turns each ingested batch into a full
:class:`~repro.core.pipeline.MarasResult` at a cost proportional to the
*delta*, not the history:

1. **Incremental cleaning** — the per-case merge state lives in the
   cleaning fold, :class:`~repro.faers.cleaning.IncrementalCleaner`
   (the same fold ``ReportCleaner.clean`` runs once over a whole
   input); only the batch's rows are normalized, and the fold reports
   exactly which kept cases appeared or changed.
2. **Append-only encoding** — the
   :class:`~repro.faers.dataset.IncrementalEncoder` grows the
   item catalog and the per-item bitmask tidsets in place: appended
   cases set new bits at the top, a follow-up version invalidates one
   row's bits.
3. **Delta-aware re-mining** — previously closed itemsets contained in
   no touched row are carried verbatim
   (:func:`~repro.incremental.mining.carry_closed_itemsets`);
   :func:`~repro.mining.fpclose.fpclose` with ``touched_mask`` re-mines
   only the subtrees whose conditional databases intersect the delta.
   The two halves partition the new closed family exactly. Mining
   always runs in-process, whatever ``config.n_workers`` says: a
   sharded mine enumerates every frequent itemset per shard and
   re-intersects them at the merge, which costs more than serial
   closed mining at every size measured.
4. **Downstream reuse** — the support oracle is warm-started from the
   previous batch (entries disjoint from the delta's item universe keep
   their counts), support types of carried itemsets are reused
   (classification reads only the containing transactions, which did
   not change), and each cluster's
   :class:`~repro.core.records.ClusterRecord` (counts, support type,
   id, labels, case ids, scores) is carried when no drug of the itemset
   is a delta item. Only its ``n_total``-dependent side — support,
   lift, leverage, conviction and the two lift scores — is rebuilt, with
   one supp(Y) query when an ADR of it is touched; a record holding a
   renamed label is rebuilt whole. The result reads the carried records
   (:meth:`~repro.core.pipeline.MarasResult.records`), so the ranking,
   the change feed and the export do not recompute them.

Any batch the in-place invariants cannot absorb — a kept/dropped status
flip in cleaning, a catalog-order violation in encoding, or a delta
larger than ``config.incremental_rebuild_fraction`` of the database —
falls back to a full rebuild: one in-process
:func:`~repro.mining.fpclose.fpclose` over the re-encoded kept reports.
On every path the emitted result is byte-identical to
``Maras(config).run(history_so_far)`` — the differential harness in
``tests/incremental`` enforces this across seed grids, batch schedules,
follow-up injections and clean modes.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.association import (
    DrugADRAssociation,
    SupportType,
    classify_support,
)
from repro.core.context import MCAC, build_cluster
from repro.core.pipeline import MarasConfig, MarasResult
from repro.core.records import ClusterRecord, remeasure
from repro.errors import ConfigError, StoreError
from repro.faers.cleaning import CleaningDelta, IncrementalCleaner
from repro.faers.dataset import (
    ADR_KIND,
    DRUG_KIND,
    EncodedDataset,
    EncodingDelta,
    IncrementalEncoder,
    ReportDataset,
)
from repro.faers.schema import CaseReport
from repro.incremental.mining import carry_closed_itemsets
from repro.mining.bitsets import BitsetIndex, SupportOracle
from repro.mining.fpclose import fpclose
from repro.mining.measures import RuleMetrics
from repro.mining.rules import AssociationRule
from repro.mining.transactions import (
    FrequentItemset,
    Itemset,
    canonical_itemset_order,
    resolve_min_support,
)
from repro.obs import NULL_REGISTRY, use_registry


class IncrementalEngine:
    """Stateful per-batch pipeline: cost ∝ delta, output ≡ one-shot run."""

    def __init__(
        self,
        config: MarasConfig,
        *,
        registry=None,
    ) -> None:
        if not config.use_bitsets:
            raise ConfigError(
                "incremental surveillance requires use_bitsets=True"
            )
        if config.count_rule_space:
            raise ConfigError(
                "incremental surveillance does not support count_rule_space"
            )
        self.config = config
        self.registry = registry if registry is not None else NULL_REGISTRY
        self._cleaner = IncrementalCleaner() if config.clean else None
        self._seen_case_ids: set[str] = set()  # no-clean dedup state
        self._encoder = IncrementalEncoder()
        self._closed: list[FrequentItemset] = []
        self._oracle: SupportOracle | None = None
        # Closed itemsets of the last batch that yield no cluster:
        # True when they still yield a drug→ADR rule (counted in
        # n_rules). The clustered ones live in the result's records.
        self._unclustered: dict[Itemset, bool] = {}
        self._result: MarasResult | None = None
        # Records the last durable checkpoint held (see checkpoint_state).
        self._n_records_committed = 0
        self.n_batches = 0
        #: Reuse/delta accounting of the most recent batch (also emitted
        #: as the ``incremental.batch`` event).
        self.last_batch_stats: dict[str, object] = {}

    @property
    def result(self) -> MarasResult | None:
        """The result of the latest batch (None before the first)."""
        return self._result

    # -- durable-store checkpoint support ------------------------------

    def checkpoint_state(self, *, delta: bool = False) -> dict:
        """The carried stream state, restorable by :meth:`from_state`.

        Deliberately minimal: the encoder (catalog + growable bitmask
        database) is *derived* state — the in-place-maintenance
        invariant guarantees it equals a fresh
        :meth:`~repro.faers.dataset.IncrementalEncoder.rebuild`
        over the kept reports — and so is the closed set, which is
        exactly what :func:`~repro.mining.fpclose.fpclose` mines from
        that rebuild. Only the counters and the ``records`` persist: the
        cleaner's merged reports, or the raw kept rows in no-clean
        mode, by position. The closed set, support oracle, cluster
        records and the result are recomputed on restore.

        With ``delta``, ``records`` holds only the positions appended or
        updated since the last :meth:`checkpoint_committed`.
        """
        if self._result is None:
            raise StoreError("cannot checkpoint before the first batch")
        since = self._n_records_committed if delta else 0
        state: dict = {
            "n_batches": self.n_batches,
            "clean": self._cleaner is not None,
            "n_rows": len(self._encoder.database),
        }
        if self._cleaner is not None:
            state["cleaner"] = self._cleaner.merge_state()
            state["records"] = self._cleaner.merge_records(since)
        else:
            rows = self._encoder.row_reports
            state["records"] = dict(enumerate(rows[since:], since))
        return state

    def checkpoint_committed(self) -> None:
        """The last :meth:`checkpoint_state` is durable: deltas start here."""
        if self._cleaner is not None:
            self._n_records_committed = len(self._cleaner)
            self._cleaner.track_updates()
        else:
            self._n_records_committed = len(self._encoder.row_reports)

    @classmethod
    def from_state(
        cls, config: MarasConfig, state: dict, *, registry=None
    ) -> "IncrementalEngine":
        """Rebuild an engine whose next :meth:`ingest` continues the stream.

        The resumed engine is observably identical to the one that wrote
        the checkpoint: the kept reports are re-encoded and re-mined
        through the full-rebuild path (the rebuild ≡ in-place
        invariant), and the cluster records are recomputed through the
        exact code path that produced them.
        """
        engine = cls(config, registry=registry)
        if bool(state["clean"]) != (engine._cleaner is not None):
            mode = "clean" if state["clean"] else "no-clean"
            raise StoreError(
                f"checkpoint was written in {mode} mode but the config "
                "requests the opposite; refusing to mix streams"
            )
        records = list(state["records"].values())
        if engine._cleaner is not None:
            engine._cleaner = IncrementalCleaner.from_merge_state(
                state["cleaner"], records
            )
            delta = CleaningDelta()
        else:
            engine._seen_case_ids = {report.case_id for report in records}
            delta = CleaningDelta(appended=records)
        engine.n_batches = int(state["n_batches"])
        engine._run_rebuild(delta, NULL_REGISTRY, {})
        n_rows = len(engine._encoder.database)
        if n_rows != int(state["n_rows"]):
            raise StoreError(
                f"checkpoint claims {state['n_rows']} encoded rows but the "
                f"restored stream encodes {n_rows}; the stored state "
                "is inconsistent"
            )
        return engine

    # -- ingest --------------------------------------------------------

    def ingest(self, rows: Sequence[CaseReport]) -> MarasResult:
        """Fold one batch into the stream and return the updated result."""
        registry = self.registry
        with use_registry(registry), registry.timer("incremental.ingest"):
            return self._ingest(list(rows), registry)

    def _ingest(self, rows: list[CaseReport], registry) -> MarasResult:
        config = self.config
        self.n_batches += 1
        registry.counter("incremental.batches").inc()

        with registry.timer("incremental.clean"):
            delta = self._clean_batch(rows)

        n_touched = len(delta.appended) + len(delta.updated)
        reason = self._rebuild_reason(delta, n_touched)
        stats: dict[str, object] = {
            "batch_index": self.n_batches - 1,
            "n_rows_in": len(rows),
            "n_cases_new": delta.n_new_cases,
            "n_cases_updated": delta.n_updated_cases,
            "n_rows_appended": len(delta.appended),
            "n_rows_updated": len(delta.updated),
            "rebuild_reason": reason,
        }
        registry.counter("incremental.rows_appended").inc(len(delta.appended))
        registry.counter("incremental.rows_updated").inc(len(delta.updated))

        if reason is not None:
            registry.counter("incremental.full_rebuilds").inc()
            self._run_rebuild(delta, registry, stats)
        else:
            self._run_delta(delta, registry, stats)

        stats["n_transactions"] = len(self._encoder.database)
        stats["n_closed"] = len(self._closed)
        self.last_batch_stats = stats
        registry.emit("incremental.batch", **stats)
        assert self._result is not None
        return self._result

    def _clean_batch(self, rows: list[CaseReport]) -> CleaningDelta:
        if self._cleaner is None:
            # No-clean mode matches the monitor's historical semantics:
            # the first version of a case wins, later versions of the
            # same case id are dropped unseen.
            fresh: list[CaseReport] = []
            for report in rows:
                if report.case_id not in self._seen_case_ids:
                    self._seen_case_ids.add(report.case_id)
                    fresh.append(report)
            return CleaningDelta(appended=fresh, n_new_cases=len(fresh))
        return self._cleaner.ingest(rows)

    def _rebuild_reason(
        self, delta: CleaningDelta, n_touched: int
    ) -> str | None:
        if self._result is None:
            return "initial build"
        if delta.needs_rebuild:
            return "case-version merge flipped a duplicate drop"
        reason = self._encoder.rebuild_reason(delta)
        if reason is not None:
            return reason
        n_after = len(self._encoder.database) + len(delta.appended)
        fraction = self.config.incremental_rebuild_fraction
        if n_after and n_touched / n_after > fraction:
            return (
                f"delta touches {n_touched}/{n_after} rows "
                f"(> rebuild fraction {fraction})"
            )
        return None

    # -- full rebuild path ---------------------------------------------

    def _run_rebuild(self, delta: CleaningDelta, registry, stats) -> None:
        config = self.config
        with registry.timer("incremental.encode"):
            if self._cleaner is not None:
                kept = self._cleaner.kept_reports()
            else:
                kept = list(self._encoder.row_reports) + delta.appended
            self._encoder.rebuild(kept)
        database = self._encoder.database
        threshold = resolve_min_support(config.min_support, len(database))
        oracle = SupportOracle.for_database(database)
        with registry.timer("incremental.mine"):
            closed = canonical_itemset_order(
                fpclose(database, threshold, max_len=config.max_itemset_len)
            )
        stats.update(
            n_carried=0,
            n_mined=len(closed),
            n_suspects=0,
            reuse_ratio=0.0,
            oracle_entries_carried=0,
        )
        with registry.timer("incremental.downstream"):
            self._downstream(
                closed,
                oracle,
                carried_keys=frozenset(),
                previous=(),
                effect=None,
                registry=registry,
                stats=stats,
            )

    # -- delta path ----------------------------------------------------

    def _run_delta(self, delta: CleaningDelta, registry, stats) -> None:
        config = self.config
        assert self._result is not None
        # The previous records are derived from the catalog and database
        # the encoder is about to mutate: build any still missing first.
        previous = self._result.records()
        with registry.timer("incremental.encode"):
            effect = self._encoder.apply(delta)
        database = self._encoder.database
        threshold = resolve_min_support(config.min_support, len(database))

        touched_mask = effect.touched_mask
        if touched_mask == 0:
            # Metadata-only delta (e.g. a follow-up that changed an
            # event date but no drug/ADR sets): the mining state is
            # untouched, everything carries.
            assert self._oracle is not None
            stats.update(
                n_carried=len(self._closed),
                n_mined=0,
                n_suspects=0,
                reuse_ratio=1.0,
                oracle_entries_carried=0,
            )
            with registry.timer("incremental.downstream"):
                self._downstream(
                    self._closed,
                    self._oracle,
                    carried_keys={fi.items for fi in self._closed},
                    previous=previous,
                    effect=effect,
                    registry=registry,
                    stats=stats,
                )
            return

        touched_tids = effect.updated_tids + effect.appended_tids
        with registry.timer("incremental.mine"):
            carried, suspects = carry_closed_itemsets(
                self._closed, database, touched_tids, threshold
            )
            mined = fpclose(
                database,
                threshold,
                max_len=config.max_itemset_len,
                touched_mask=touched_mask,
            )
            closed = canonical_itemset_order(carried + mined)
        registry.counter("incremental.closed_carried").inc(len(carried))
        registry.counter("incremental.closed_mined").inc(len(mined))
        registry.counter("incremental.suspects_dropped").inc(suspects)

        # Fresh oracle over the mutated masks, warm-started with every
        # closed support plus the previous cache's delta-disjoint
        # entries (their masks cannot have changed).
        oracle = SupportOracle(BitsetIndex(database))
        for fi in closed:
            oracle.warm(fi.items, fi.support)
        oracle_carried = 0
        if self._oracle is not None:
            oracle_carried = oracle.warm_from(
                self._oracle, invalidated=frozenset(effect.delta_items)
            )
        registry.counter("incremental.oracle_entries_carried").inc(
            oracle_carried
        )
        n_closed = len(closed)
        stats.update(
            n_carried=len(carried),
            n_mined=len(mined),
            n_suspects=suspects,
            reuse_ratio=len(carried) / n_closed if n_closed else 1.0,
            oracle_entries_carried=oracle_carried,
        )
        with registry.timer("incremental.downstream"):
            self._downstream(
                closed,
                oracle,
                carried_keys={fi.items for fi in carried},
                previous=previous,
                effect=effect,
                registry=registry,
                stats=stats,
            )

    # -- downstream (rules / associations / clusters / result) --------

    def _downstream(
        self,
        closed: list[FrequentItemset],
        oracle: SupportOracle,
        *,
        carried_keys: frozenset[Itemset] | set[Itemset],
        previous: Sequence[ClusterRecord],
        effect: EncodingDelta | None,
        registry,
        stats: dict[str, object],
    ) -> None:
        """Rules, associations and cluster records of the new closed list.

        ``previous`` are the last result's records and ``effect`` the
        batch's encoding delta (``None`` on a rebuild: nothing carries).
        A cluster's counts are the supports of its itemset, of every
        antecedent subset alone and joined with the consequent, and of
        the consequent Y; its support type reads only the transactions
        containing the itemset, so it is unchanged for a carried itemset
        (contained in no touched row). A subset's support moves only
        through a row whose changed items meet the subset: an appended
        row (all its items are delta items) or the items an updated row
        gained or lost. So when no drug of a carried itemset is a delta
        item and no item of it was changed by an updated row, every
        count but supp(Y) is unchanged, and when none of its items is a
        delta item, supp(Y) is too. Such a record keeps its counts, id,
        labels, case ids and confidence-side scores;
        :func:`~repro.core.records.remeasure` rebuilds the
        ``n_total``/supp(Y) side. A record holding a renamed item, and
        every other cluster, is built afresh.
        """
        config = self.config
        theta, decay = config.theta, config.decay
        database = self._encoder.database
        catalog = database.catalog
        antecedent_ids = catalog.ids_of_kind(DRUG_KIND)
        consequent_ids = catalog.ids_of_kind(ADR_KIND)
        n_total = len(database)

        if effect is None:
            carried_records: dict[Itemset, ClusterRecord] = {}
            carried_flags: dict[Itemset, bool] = {}
            delta_items = updated_items = renamed = frozenset()
        else:
            carried_records = {
                record.cluster.target.items: record for record in previous
            }
            carried_flags = self._unclustered
            delta_items = effect.delta_items
            updated_items = effect.updated_items
            renamed = effect.renamed_items

        unclustered: dict[Itemset, bool] = {}
        associations: list[DrugADRAssociation] = []
        clusters: list[MCAC] = []
        seeds: list[ClusterRecord | None] = []
        n_rules = 0
        n_carried = 0
        n_requeried = 0
        support_types_carried = 0

        for fi in closed:
            key = fi.items
            if key in carried_keys:
                requery = not key.isdisjoint(delta_items)
                if not requery or (
                    key.isdisjoint(updated_items)
                    and (key & delta_items).isdisjoint(antecedent_ids)
                ):
                    record = carried_records.get(key)
                    if record is not None and key.isdisjoint(renamed):
                        target = record.cluster.target
                        if requery:
                            n_consequent = oracle.support(target.consequent)
                            n_requeried += 1
                        else:
                            n_consequent = target.metrics.n_consequent
                        record = remeasure(
                            record,
                            n_consequent=n_consequent,
                            n_total=n_total,
                            theta=theta,
                            decay=decay,
                        )
                        n_carried += 1
                        n_rules += 1
                        associations.append(record.association)
                        clusters.append(record.cluster)
                        seeds.append(record)
                        continue
                    is_rule = carried_flags.get(key)
                    if is_rule is not None:
                        n_carried += 1
                        n_rules += is_rule
                        unclustered[key] = is_rule
                        continue
            # Inline per-itemset partitioned_rules: same math, but the
            # kind partitions are hoisted out of the loop.
            antecedent = key & antecedent_ids
            consequent = key & consequent_ids
            rule: AssociationRule | None = None
            if antecedent and consequent and antecedent | consequent == key:
                metrics = RuleMetrics.from_counts(
                    n_joint=fi.support,
                    n_antecedent=oracle.support(antecedent),
                    n_consequent=oracle.support(consequent),
                    n_total=n_total,
                )
                if metrics.confidence >= config.min_confidence:
                    rule = AssociationRule(antecedent, consequent, metrics)
            if rule is None:
                unclustered[key] = False
                continue
            n_rules += 1
            if not 2 <= len(rule.antecedent) <= config.max_drugs:
                unclustered[key] = True
                continue
            record = carried_records.get(key)
            if record is not None and key in carried_keys:
                support_type = record.association.support_type
                support_types_carried += 1
            else:
                support_type = classify_support(database, key, oracle=oracle)
            associations.append(
                DrugADRAssociation(rule=rule, support_type=support_type)
            )
            clusters.append(build_cluster(rule, database, oracle=oracle))
            seeds.append(None)

        unsupported = [
            a for a in associations if a.support_type is SupportType.UNSUPPORTED
        ]
        if unsupported:
            raise ConfigError(
                f"internal error: {len(unsupported)} closed rules classified "
                "as unsupported; Lemma 3.4.2 violated"
            )

        registry.counter("incremental.artifacts_carried").inc(n_carried)
        registry.counter("incremental.consequents_requeried").inc(n_requeried)
        registry.counter("incremental.support_types_carried").inc(
            support_types_carried
        )
        stats["artifacts_carried"] = n_carried
        stats["consequents_requeried"] = n_requeried
        stats["support_types_carried"] = support_types_carried
        stats["n_rules"] = n_rules
        stats["n_associations"] = len(associations)

        encoder = self._encoder
        dataset = ReportDataset.from_cleaned(
            tuple(encoder.row_reports),
            encoder.quarter(),
            distinct=encoder.distinct_counts(),
        )
        encoded = EncodedDataset(
            database,
            tuple(report.case_id for report in dataset.reports),
            dataset.reports,
        )
        self._result = MarasResult(
            config=config,
            dataset=dataset,
            encoded=encoded,
            associations=associations,
            clusters=clusters,
            cleaning_stats=(
                self._cleaner.stats() if self._cleaner is not None else None
            ),
            rule_counts=None,
            metrics=registry.snapshot() if registry.enabled else None,
            records=seeds,
        )
        self._closed = list(closed)
        self._oracle = oracle
        self._unclustered = unclustered
