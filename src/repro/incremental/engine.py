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
   The two halves partition the new closed family exactly. At
   ``n_workers > 1`` the delta re-mine itself is sharded across the
   engine's long-lived process pool
   (:func:`~repro.parallel.miner.fpclose_sharded` with the same
   ``touched_mask`` contract): shard rows are projected onto the
   touched rows' item universe, so worker cost tracks the delta's
   neighbourhood rather than the accumulated history.
4. **Downstream reuse** — the support oracle is warm-started from the
   previous batch (entries disjoint from the delta's item universe keep
   their counts), support types of carried itemsets are reused
   (classification reads only the containing transactions, which did
   not change), and whole rule/association/cluster triples are reused
   when the transaction count is unchanged too (metrics embed
   ``n_total``).

Any batch the in-place invariants cannot absorb — a kept/dropped status
flip in cleaning, a catalog-order violation in encoding, or a delta
larger than ``config.incremental_rebuild_fraction`` of the database —
falls back to a full rebuild that mirrors the one-shot pipeline's
mining invocation exactly (including sharded mining at
``n_workers > 1``). On every path the emitted result is byte-identical
to ``Maras(config).run(history_so_far)`` — the differential harness in
``tests/incremental`` enforces this across seed grids, batch schedules,
follow-up injections and worker counts.
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
from repro.errors import ConfigError, StoreError
from repro.faers.cleaning import CleaningDelta, IncrementalCleaner
from repro.faers.dataset import (
    ADR_KIND,
    DRUG_KIND,
    EncodedDataset,
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
from repro.parallel.miner import fpclose_sharded, resolve_workers
from repro.parallel.pool import MiningPool
from repro.parallel.sharding import plan_shards

# (rule, association, cluster) of one closed itemset; any slot may be
# None when the itemset yields no drug→ADR rule / no multi-drug rule.
_Artifacts = tuple[
    AssociationRule | None, DrugADRAssociation | None, MCAC | None
]


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
        self._artifacts: dict[Itemset, _Artifacts] = {}
        self._support_types: dict[Itemset, SupportType] = {}
        self._n_rows_prev = 0
        self._result: MarasResult | None = None
        self._pool: MiningPool | None = None
        # Records the last durable checkpoint held (see checkpoint_state).
        self._n_records_committed = 0
        self.n_batches = 0
        #: Reuse/delta accounting of the most recent batch (also emitted
        #: as the ``incremental.batch`` event).
        self.last_batch_stats: dict[str, object] = {}

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Shut down the mining pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "IncrementalEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

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
        mode, by position. The closed set, support oracle, per-itemset
        artifacts and the result are recomputed on restore.

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
        invariant), and downstream artifacts are recomputed through the
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
        # A serial re-mine: the closed set is the same at every worker
        # count, and one mine is not worth spawning the pool for.
        engine._run_rebuild(delta, NULL_REGISTRY, {}, serial=True)
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

    def _ensure_pool(self, n_workers: int) -> MiningPool:
        """The engine's long-lived mining pool.

        A :class:`~repro.parallel.pool.MiningPool`, so batches reuse
        the same worker processes instead of spawning a pool each time.
        Each delta re-mine ships its shard rows already projected onto
        the touched universe, so what crosses the process boundary
        tracks the delta's neighbourhood.
        """
        if self._pool is None:
            self._pool = MiningPool(n_workers)
        return self._pool

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

    def _run_rebuild(
        self, delta: CleaningDelta, registry, stats, *, serial: bool = False
    ) -> None:
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
        n_workers = resolve_workers(config.n_workers)
        with registry.timer("incremental.mine"):
            if not serial and n_workers > 1 and len(database) > 1:
                # Mirror the one-shot pipeline's sharded invocation
                # bit for bit — same plan, same shared oracle.
                dataset = ReportDataset.from_cleaned(
                    tuple(kept), self._encoder.quarter()
                )
                closed = fpclose_sharded(
                    database,
                    threshold,
                    max_len=config.max_itemset_len,
                    n_workers=n_workers,
                    plan=plan_shards(dataset, n_workers, config.shard_strategy),
                    oracle=oracle,
                    pool=self._ensure_pool(n_workers),
                )
            else:
                closed = fpclose(
                    database, threshold, max_len=config.max_itemset_len
                )
            closed = canonical_itemset_order(closed)
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
                reuse_artifacts=False,
                registry=registry,
                stats=stats,
            )

    # -- delta path ----------------------------------------------------

    def _run_delta(self, delta: CleaningDelta, registry, stats) -> None:
        config = self.config
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
                    reuse_artifacts=len(database) == self._n_rows_prev,
                    registry=registry,
                    stats=stats,
                )
            return

        touched_tids = effect.updated_tids + effect.appended_tids
        n_workers = resolve_workers(config.n_workers)
        with registry.timer("incremental.mine"):
            carried, suspects = carry_closed_itemsets(
                self._closed, database, touched_tids, threshold
            )
            if n_workers > 1 and len(database) > 1:
                # Shard the delta re-mine across the long-lived pool:
                # the same plan the one-shot pipeline would use, but
                # each shard's rows projected onto the touched rows'
                # item universe (see repro.parallel.miner), so worker
                # cost tracks the delta's neighbourhood, not history.
                dataset = ReportDataset.from_cleaned(
                    tuple(self._encoder.row_reports), self._encoder.quarter()
                )
                mined = fpclose_sharded(
                    database,
                    threshold,
                    max_len=config.max_itemset_len,
                    n_workers=n_workers,
                    plan=plan_shards(dataset, n_workers, config.shard_strategy),
                    pool=self._ensure_pool(n_workers),
                    touched_mask=touched_mask,
                )
            else:
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
                reuse_artifacts=len(database) == self._n_rows_prev,
                delta_items=frozenset(effect.delta_items),
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
        reuse_artifacts: bool,
        delta_items: frozenset[int] = frozenset(),
        registry,
        stats: dict[str, object],
    ) -> None:
        config = self.config
        database = self._encoder.database
        catalog = database.catalog
        antecedent_ids = catalog.ids_of_kind(DRUG_KIND)
        consequent_ids = catalog.ids_of_kind(ADR_KIND)
        n_total = len(database)

        artifacts: dict[Itemset, _Artifacts] = {}
        support_types: dict[Itemset, SupportType] = {}
        associations: list[DrugADRAssociation] = []
        clusters: list[MCAC] = []
        n_rules = 0
        artifacts_carried = 0
        support_types_carried = 0

        for fi in closed:
            key = fi.items
            entry: _Artifacts | None = None
            if (
                reuse_artifacts
                and key in carried_keys
                and key.isdisjoint(delta_items)
            ):
                # Rule metrics and cluster levels are functions of the
                # supports of *subsets* of the itemset (antecedent
                # subsets, the consequent) plus n_total. A subset's
                # support can rise even when the carried itemset's own
                # tidset is untouched — a follow-up adding one item to
                # a row grows every subset that row now covers — so the
                # whole triple is reusable only when the itemset is
                # also disjoint from the delta's item universe (then no
                # subset can reach a changed row) and n_total is
                # unchanged.
                entry = self._artifacts.get(key)
                if entry is not None:
                    artifacts_carried += 1
            if entry is None:
                # Inline per-itemset partitioned_rules: same math, but
                # the kind partitions are hoisted out of the loop.
                antecedent = key & antecedent_ids
                consequent = key & consequent_ids
                rule: AssociationRule | None = None
                if (
                    antecedent
                    and consequent
                    and antecedent | consequent == key
                ):
                    metrics = RuleMetrics.from_counts(
                        n_joint=fi.support,
                        n_antecedent=oracle.support(antecedent),
                        n_consequent=oracle.support(consequent),
                        n_total=n_total,
                    )
                    if metrics.confidence >= config.min_confidence:
                        rule = AssociationRule(antecedent, consequent, metrics)
                if rule is None:
                    entry = (None, None, None)
                elif not 2 <= len(rule.antecedent) <= config.max_drugs:
                    entry = (rule, None, None)
                else:
                    if key in carried_keys and key in self._support_types:
                        # Support-type classification reads only the
                        # containing transactions — untouched for a
                        # carried itemset even when n_total changed.
                        support_type = self._support_types[key]
                        support_types_carried += 1
                    else:
                        support_type = classify_support(
                            database, key, oracle=oracle
                        )
                    association = DrugADRAssociation(
                        rule=rule, support_type=support_type
                    )
                    cluster = build_cluster(rule, database, oracle=oracle)
                    entry = (rule, association, cluster)
            artifacts[key] = entry
            rule, association, cluster = entry
            if rule is not None:
                n_rules += 1
            if association is not None:
                associations.append(association)
                clusters.append(cluster)
                support_types[key] = association.support_type

        unsupported = [
            a for a in associations if a.support_type is SupportType.UNSUPPORTED
        ]
        if unsupported:
            raise ConfigError(
                f"internal error: {len(unsupported)} closed rules classified "
                "as unsupported; Lemma 3.4.2 violated"
            )

        registry.counter("incremental.artifacts_carried").inc(artifacts_carried)
        registry.counter("incremental.support_types_carried").inc(
            support_types_carried
        )
        stats["artifacts_carried"] = artifacts_carried
        stats["support_types_carried"] = support_types_carried
        stats["n_rules"] = n_rules
        stats["n_associations"] = len(associations)

        dataset = ReportDataset.from_cleaned(
            tuple(self._encoder.row_reports), self._encoder.quarter()
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
        )
        self._closed = list(closed)
        self._oracle = oracle
        self._artifacts = artifacts
        self._support_types = support_types
        self._n_rows_prev = n_total
