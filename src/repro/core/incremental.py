"""Incremental surveillance over a growing report stream.

The paper's motivation (§1.1): "thousands of reports are added on daily
bases hence the database grows rapidly", and manual re-review of the
whole ranking after every batch is exactly the cost MeDIAR is supposed
to remove. :class:`SurveillanceMonitor` maintains the pipeline over an
append-only report stream and, per ingested batch, reports the *deltas*
a drug-safety evaluator acts on:

- **newly surfaced** clusters — combinations that crossed the support
  threshold in this batch;
- **risers** — clusters whose exclusiveness rank improved by more than
  a configurable number of positions;
- **dropped** clusters — fell back below support;
- **rank stability** — Spearman correlation between consecutive
  rankings, a one-number answer to "did this batch reshuffle my queue?".

By default mining is re-run per batch over the accumulated history
(closed-itemset mining at these scales is sub-second; see the
mining-scaling benchmark) and only the diffing is incremental. With
``MarasConfig(incremental=True)`` the monitor instead folds each batch
through :class:`~repro.incremental.IncrementalEngine`, whose per-batch
cost is proportional to the *delta* — same results byte for byte, at
streaming cost.
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from repro.core.pipeline import Maras, MarasConfig, MarasResult
from repro.core.ranking import RankingMethod
from repro.errors import ConfigError, StoreError
from repro.faers.dataset import ReportDataset
from repro.faers.schema import CaseReport
from repro.incremental.engine import IncrementalEngine
from repro.obs import NULL_REGISTRY, MetricsRegistry, NullRegistry

ClusterKey = tuple[tuple[str, ...], tuple[str, ...]]


def cluster_key(result: MarasResult, cluster) -> ClusterKey:
    """A catalog-independent identity for a cluster: (drug labels, ADR labels).

    Item ids are not stable across re-encodings of a grown dataset, so
    deltas are computed on label tuples. The labels are read from the
    cluster's record (:meth:`MarasResult.record_of`).
    """
    record = result.record_of(cluster)
    return (record.drugs, record.adrs)


@dataclass(frozen=True, slots=True)
class BatchDelta:
    """What changed when one batch was ingested."""

    batch_index: int
    n_reports_total: int
    newly_surfaced: tuple[ClusterKey, ...]
    dropped: tuple[ClusterKey, ...]
    risers: tuple[tuple[ClusterKey, int, int], ...]  # (key, old rank, new rank)
    rank_correlation: float | None  # None on the first batch

    @property
    def n_clusters_changed(self) -> int:
        return len(self.newly_surfaced) + len(self.dropped) + len(self.risers)


def _fractional_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks with ties sharing the average (fractional) rank.

    ``[10, 20, 20, 30]`` → ``[1.0, 2.5, 2.5, 4.0]``. Average ranks make
    Spearman ρ a pure function of the *values* — tie order (e.g. dict
    insertion order after a re-encoding) cannot change the result.
    """
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    start = 0
    while start < len(order):
        end = start
        while (
            end + 1 < len(order)
            and values[order[end + 1]] == values[order[start]]
        ):
            end += 1
        average = (start + end) / 2 + 1
        for position in range(start, end + 1):
            ranks[order[position]] = average
        start = end + 1
    return ranks


def spearman_correlation(
    old_ranks: dict[ClusterKey, int], new_ranks: dict[ClusterKey, int]
) -> float | None:
    """Spearman ρ over the clusters present in both rankings.

    Ties are handled with average (fractional) ranks and the Pearson
    form of the coefficient, so the result is deterministic regardless
    of how tied keys happen to be ordered. Returns ``None`` when fewer
    than three clusters are shared (the coefficient is meaningless
    below that) or when one side ranks every shared cluster identically
    (zero variance — ρ is undefined).
    """
    shared = sorted(set(old_ranks) & set(new_ranks))
    if len(shared) < 3:
        return None
    old = _fractional_ranks([old_ranks[key] for key in shared])
    new = _fractional_ranks([new_ranks[key] for key in shared])
    # Fractional ranks over n items always average to (n + 1) / 2.
    mean = (len(shared) + 1) / 2
    covariance = sum((a - mean) * (b - mean) for a, b in zip(old, new))
    old_variance = sum((a - mean) ** 2 for a in old)
    new_variance = sum((b - mean) ** 2 for b in new)
    if old_variance == 0.0 or new_variance == 0.0:
        return None
    return covariance / (old_variance * new_variance) ** 0.5


class SurveillanceMonitor:
    """Maintain MeDIAR results over an append-only report stream.

    >>> monitor = SurveillanceMonitor(MarasConfig(min_support=5, clean=False))
    >>> delta = monitor.ingest(first_batch)
    >>> delta = monitor.ingest(next_batch)
    >>> delta.newly_surfaced

    The config is forwarded verbatim to each batch's pipeline run. The
    full-rescan monitor therefore shards each re-mine at
    ``MarasConfig(n_workers=N)`` (:mod:`repro.parallel`), while the
    incremental engine always mines in-process; results are identical
    either way.
    """

    def __init__(
        self,
        config: MarasConfig | None = None,
        *,
        method: RankingMethod = RankingMethod.EXCLUSIVENESS_CONFIDENCE,
        riser_threshold: int = 5,
        registry: MetricsRegistry | NullRegistry | None = None,
    ) -> None:
        self._setup(config, method, riser_threshold, registry)
        self._engine: IncrementalEngine | None = (
            IncrementalEngine(self.config, registry=self.registry)
            if self.config.incremental
            else None
        )

    def _setup(
        self,
        config: MarasConfig | None,
        method: RankingMethod,
        riser_threshold: int,
        registry: MetricsRegistry | NullRegistry | None,
    ) -> None:
        """Every field but the engine (see :meth:`from_checkpoint_state`)."""
        if riser_threshold < 1:
            raise ConfigError(f"riser_threshold must be >= 1, got {riser_threshold}")
        self.config = config if config is not None else MarasConfig()
        self.method = method
        self.riser_threshold = riser_threshold
        self.registry = registry if registry is not None else NULL_REGISTRY
        # Raw kept rows, accumulated only in re-run-everything mode —
        # the engine carries its own state, so holding the raw stream
        # there would double memory and bloat checkpoints for nothing.
        self._reports: list[CaseReport] = []
        self._n_reports = 0
        # Case ids seen so far, live in *both* clean modes: the no-clean
        # path dedups against it, and both paths use it to report how
        # many rows of a batch were genuinely new versus follow-ups. The
        # list keeps first-seen order, so a checkpoint delta is a slice.
        self._seen_case_ids: set[str] = set()
        self._seen_order: list[str] = []
        #: Id of the last checkpoint commit this monitor wrote or was
        #: restored from (see :mod:`repro.store.checkpoint`).
        self.checkpoint_id: str | None = None
        self._n_seen_committed = 0
        self._batch_index = 0
        self._last_result: MarasResult | None = None
        self._last_ranks: dict[ClusterKey, int] = {}
        self._history: list[BatchDelta] = []

    def close(self) -> None:
        """Close the monitor; idempotent.

        The monitor holds no processes or other resources, so this
        releases nothing. It stays so callers can bracket a stream with
        ``with SurveillanceMonitor(...)`` or an explicit ``close()``.
        """

    def __enter__(self) -> "SurveillanceMonitor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def result(self) -> MarasResult:
        """The pipeline result over everything ingested so far."""
        if self._last_result is None:
            raise ConfigError("no batches ingested yet")
        return self._last_result

    @property
    def history(self) -> Sequence[BatchDelta]:
        return tuple(self._history)

    @property
    def engine_stats(self) -> dict[str, object]:
        """Delta/reuse accounting of the incremental engine's last batch.

        Empty when the monitor runs in re-run-everything mode.
        """
        return dict(self._engine.last_batch_stats) if self._engine else {}

    def __len__(self) -> int:
        return self._n_reports

    @property
    def n_batches(self) -> int:
        """Batches ingested so far (including pre-restore ones)."""
        return self._batch_index

    def ingest(self, batch: Iterable[CaseReport]) -> BatchDelta:
        """Append one batch, re-mine, and return the change feed.

        With ``config.clean`` on, every raw row is kept — including
        follow-up versions of an already-seen case — and case-version
        merging / name normalization happen downstream, exactly as a
        one-shot ``Maras.run`` over the same raw reports would do.
        Surveillance results therefore match the batch-free run. With
        cleaning off, rows re-using a seen case id are dropped, since an
        uncleaned :class:`ReportDataset` requires unique case ids.

        ``surveillance.reports_ingested`` counts rows that introduced a
        new case id in either mode; rows carrying a follow-up version of
        a seen case count into ``surveillance.case_updates`` instead.

        With ``config.incremental`` the batch folds through the stateful
        :class:`~repro.incremental.IncrementalEngine` (per-batch cost
        proportional to the delta); the change feed and the result are
        byte-identical to the re-run-everything path.
        """
        rows = list(batch)
        new_rows = [r for r in rows if r.case_id not in self._seen_case_ids]
        n_updates = len(rows) - len(new_rows)
        if self.config.clean:
            # Every raw row is kept — follow-up versions merge into
            # their case downstream — but only rows introducing an
            # unseen case id count as fresh intake.
            kept = rows
        else:
            # An uncleaned ReportDataset requires unique case ids, so
            # rows re-using a seen case id are dropped.
            kept = new_rows
        fresh = dict.fromkeys(r.case_id for r in new_rows)
        self._seen_case_ids.update(fresh)
        self._seen_order.extend(fresh)
        if not kept and self._last_result is None:
            raise ConfigError("first batch contained no new reports")
        if self._engine is None:
            self._reports.extend(kept)
        self._n_reports += len(kept)
        self._batch_index += 1

        registry = self.registry
        mine_start = time.perf_counter()
        with registry.timer("surveillance.batch"):
            if self._engine is not None:
                result = self._engine.ingest(kept)
            elif self.config.clean:
                # Pass the raw rows: the pipeline cleans (merging case
                # versions), so a ReportDataset — which rejects
                # duplicate case ids — is built only afterwards.
                result = Maras(self.config, registry=registry).run(
                    self._reports
                )
            else:
                result = Maras(self.config, registry=registry).run(
                    ReportDataset(self._reports)
                )
        mine_seconds = time.perf_counter() - mine_start
        new_ranks = {
            cluster_key(result, entry.cluster): entry.rank
            for entry in result.rank(self.method)
        }

        old_ranks = self._last_ranks
        newly_surfaced = tuple(sorted(set(new_ranks) - set(old_ranks)))
        dropped = tuple(sorted(set(old_ranks) - set(new_ranks)))
        risers = tuple(
            (key, old_ranks[key], new_ranks[key])
            for key in sorted(set(new_ranks) & set(old_ranks))
            if old_ranks[key] - new_ranks[key] >= self.riser_threshold
        )
        delta = BatchDelta(
            batch_index=self._batch_index,
            n_reports_total=self._n_reports,
            newly_surfaced=newly_surfaced,
            dropped=dropped,
            risers=risers,
            rank_correlation=(
                spearman_correlation(old_ranks, new_ranks) if old_ranks else None
            ),
        )
        registry.counter("surveillance.batches").inc()
        registry.counter("surveillance.reports_ingested").inc(len(new_rows))
        registry.counter("surveillance.case_updates").inc(n_updates)
        registry.emit(
            "surveillance.batch",
            batch_index=self._batch_index,
            n_reports_total=self._n_reports,
            n_fresh=len(new_rows),
            n_case_updates=n_updates,
            mine_seconds=mine_seconds,
            n_newly_surfaced=len(newly_surfaced),
            n_dropped=len(dropped),
            n_risers=len(risers),
            rank_correlation=delta.rank_correlation,
        )
        self._last_result = result
        self._last_ranks = new_ranks
        self._history.append(delta)
        return delta

    def ingest_stream(
        self, reports: Iterable[CaseReport], *, batch_size: int = 4096
    ) -> Iterator[BatchDelta]:
        """Feed a report stream through :meth:`ingest` in fixed-size batches.

        The capacity-tier entry point: ``reports`` may be an unbounded
        generator (the streaming synthetic source, a chained
        :func:`~repro.faers.synthetic.quarter_sequence`) — it is consumed
        one batch at a time and never materialized, so the transient
        footprint on top of the monitor's own state is O(batch_size).
        Yields the :class:`BatchDelta` of each batch as it is mined;
        results are identical to calling :meth:`ingest` with the same
        pre-split batches.
        """
        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        iterator = iter(reports)
        while batch := list(itertools.islice(iterator, batch_size)):
            yield self.ingest(batch)

    # -- durable-store checkpoint support ------------------------------

    def checkpoint_state(self, *, delta: bool = False) -> dict:
        """The restorable stream state, for the durable store.

        Only available in incremental mode: the re-run-everything path
        would have to persist the entire raw history, which is exactly
        the cost model checkpointing exists to avoid. The returned dict
        still holds :class:`~repro.faers.schema.CaseReport` objects —
        :mod:`repro.store.checkpoint` converts to and from JSON. The
        engine's ``records`` (position → report) sit at the top level,
        beside ``seen_case_ids``: they are the two parts that grow.

        With ``delta``, ``seen_case_ids`` and ``records`` hold only
        what was appended or updated since the last
        :meth:`checkpoint_committed`.
        """
        if self._engine is None:
            raise StoreError(
                "checkpoints require MarasConfig(incremental=True); the "
                "full-rescan monitor carries no restorable delta state"
            )
        engine = self._engine.checkpoint_state(delta=delta)
        return {
            "batch_index": self._batch_index,
            "n_reports": self._n_reports,
            "seen_case_ids": self._seen_order[
                self._n_seen_committed if delta else 0 :
            ],
            "records": engine.pop("records"),
            "engine": engine,
        }

    def checkpoint_committed(self, commit_id: str) -> None:
        """The last :meth:`checkpoint_state` is durable as ``commit_id``.

        Call it once the store holds that state (after the commit, or
        after a restore from it), before the next :meth:`ingest`.
        """
        self.checkpoint_id = commit_id
        self._n_seen_committed = len(self._seen_order)
        self._engine.checkpoint_committed()

    @classmethod
    def from_checkpoint_state(
        cls,
        config: MarasConfig,
        state: dict,
        *,
        method: RankingMethod = RankingMethod.EXCLUSIVENESS_CONFIDENCE,
        riser_threshold: int = 5,
        registry: MetricsRegistry | NullRegistry | None = None,
    ) -> "SurveillanceMonitor":
        """Rebuild a monitor whose next :meth:`ingest` continues the stream.

        ``history`` starts empty (it narrates only post-restore batches)
        but the ranking baseline is recomputed from the restored result,
        so the first post-restore delta's risers/surfaced/dropped sets
        and rank correlation match an uninterrupted monitor's.
        """
        if not config.incremental:
            raise StoreError(
                "checkpoints require MarasConfig(incremental=True)"
            )
        monitor = cls.__new__(cls)
        monitor._setup(config, method, riser_threshold, registry)
        monitor._engine = IncrementalEngine.from_state(
            config,
            {**state["engine"], "records": state["records"]},
            registry=monitor.registry,
        )
        monitor._batch_index = int(state["batch_index"])
        monitor._n_reports = int(state["n_reports"])
        monitor._seen_order = list(state["seen_case_ids"])
        monitor._seen_case_ids = set(monitor._seen_order)
        result = monitor._engine.result
        assert result is not None  # from_state always recomputes it
        monitor._last_result = result
        monitor._last_ranks = {
            cluster_key(result, entry.cluster): entry.rank
            for entry in result.rank(monitor.method)
        }
        return monitor

    def watchlist(self, top_k: int = 20) -> list[tuple[ClusterKey, int]]:
        """The current top-k ranked clusters as (key, rank) pairs."""
        if self._last_result is None:
            raise ConfigError("no batches ingested yet")
        return sorted(
            ((key, rank) for key, rank in self._last_ranks.items() if rank <= top_k),
            key=lambda pair: pair[1],
        )
