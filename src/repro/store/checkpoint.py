"""Checkpoint/restore of a surveillance stream through a backend.

This module is the bridge between the in-memory carried state of
:class:`~repro.core.incremental.SurveillanceMonitor` /
:class:`~repro.incremental.engine.IncrementalEngine` and its durable
JSON form in a :class:`~repro.store.backend.Backend`:

- :func:`config_fingerprint` hashes the *output-affecting* fields of a
  :class:`~repro.core.pipeline.MarasConfig`. Resume refuses a
  checkpoint written under a different fingerprint — silently mixing,
  say, two ``min_support`` values would produce a stream that matches
  *neither* config's one-shot run. ``n_workers`` and
  ``shard_strategy`` are deliberately excluded: the engine always mines
  in-process and ignores both, so a stream checkpointed under
  ``n_workers=4`` may resume under ``n_workers=1`` and vice versa.
- :func:`checkpoint_monitor` commits the monitor's state. A backend
  keeps a checkpoint's records and seen case ids one row each, so a
  commit writes only the batch's change: the records appended or
  updated since the monitor's last commit (kept rows in no-clean mode,
  the cleaner's merged reports in clean mode), the case ids first seen
  since, and the small header of counters. That holds only while the
  stored checkpoint ends at the monitor's own last commit; otherwise
  (the first commit, another writer's lineage, a commit that failed
  after reaching the store) the commit writes the whole state. The
  monitor moves its marks only after a commit succeeds, so a failed
  commit loses nothing.
- :func:`restore_monitor` loads the state and rebuilds the monitor;
  :func:`verify_journal` checks the batch journal against the input
  stream.

The correctness contract — a SIGKILL'd, resumed stream exports the
same bytes as an uninterrupted one — rests on two invariants the rest
of the codebase already enforces: the encoder's in-place state and the
carried closed set equal a fresh rebuild and re-mine over the kept
reports (so the closed set is not stored but re-mined on restore), and
every downstream cache (support oracle, artifacts, support
types) affects speed only, never values. ``tests/store`` asserts the
contract end to end, including kills inside a batch.
"""

from __future__ import annotations

import hashlib
import json
import uuid

from repro.core.incremental import SurveillanceMonitor
from repro.core.pipeline import MarasConfig
from repro.core.ranking import RankingMethod
from repro.errors import StoreError
from repro.faers.schema import CaseReport
from repro.runtime import collector_paused
from repro.store.backend import Backend, JournalEntry

#: Bump when the checkpoint payload layout changes incompatibly.
CHECKPOINT_VERSION = 2

# MarasConfig fields that change the exported bytes. Excluded on
# purpose: n_workers / shard_strategy (byte-identical across values),
# incremental / incremental_rebuild_fraction (select *how* the result
# is computed, not what it is), count_rule_space (the engine rejects
# it).
_FINGERPRINT_FIELDS = (
    "min_support",
    "max_itemset_len",
    "max_drugs",
    "min_confidence",
    "clean",
    "theta",
    "decay",
)


def config_fingerprint(config: MarasConfig) -> str:
    """Hash of the config fields that determine the stream's output."""
    payload = {name: getattr(config, name) for name in _FINGERPRINT_FIELDS}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@collector_paused()
def checkpoint_monitor(
    backend: Backend,
    run: str,
    monitor: SurveillanceMonitor,
    *,
    fingerprint: str,
    journal: list[JournalEntry] = (),
) -> None:
    """Atomically persist the monitor's state + the batches' journal rows.

    Called after each ingested batch; ``journal`` carries the entries
    of the batches this checkpoint newly covers. A kill before the
    commit leaves the previous checkpoint (the batch replays on
    resume); a kill after it leaves this one — never a torn mix. The
    commit carries only the change since the stored checkpoint when
    that checkpoint is this monitor's last commit, else the whole state.
    """
    parent = monitor.checkpoint_id
    if parent is not None and backend.checkpoint_commit(run) != parent:
        parent = None
    state = monitor.checkpoint_state(delta=parent is not None)
    records = {p: report.to_json() for p, report in state["records"].items()}
    commit_id = uuid.uuid4().hex
    backend.save_checkpoint(
        run,
        {**state, "version": CHECKPOINT_VERSION, "records": records},
        n_batches=state["batch_index"],
        fingerprint=fingerprint,
        commit_id=commit_id,
        parent=parent,
        journal=journal,
    )
    monitor.checkpoint_committed(commit_id)


def restore_monitor(
    backend: Backend,
    run: str,
    config: MarasConfig,
    *,
    method: RankingMethod = RankingMethod.EXCLUSIVENESS_CONFIDENCE,
    riser_threshold: int = 5,
    registry=None,
) -> SurveillanceMonitor | None:
    """Rebuild the checkpointed monitor of ``run``; None when absent.

    Raises :class:`~repro.errors.StoreError` when the stored
    fingerprint disagrees with ``config`` — resuming under different
    mining parameters would yield a stream matching neither run.
    """
    checkpoint = backend.load_checkpoint(run)
    if checkpoint is None:
        return None
    stored_version = checkpoint.state.get("version")
    if stored_version != CHECKPOINT_VERSION:
        raise StoreError(
            f"checkpoint of run {run!r} has layout version "
            f"{stored_version!r}; this build reads {CHECKPOINT_VERSION}"
        )
    expected = config_fingerprint(config)
    if checkpoint.fingerprint != expected:
        raise StoreError(
            f"checkpoint of run {run!r} was written under a different "
            "mining config (fingerprint "
            f"{checkpoint.fingerprint[:12]}… != {expected[:12]}…); "
            "resume with the original parameters or clear the checkpoint"
        )
    records = {
        position: CaseReport.from_json(record)
        for position, record in checkpoint.state["records"].items()
    }
    monitor = SurveillanceMonitor.from_checkpoint_state(
        config,
        {**checkpoint.state, "records": records},
        method=method,
        riser_threshold=riser_threshold,
        registry=registry,
    )
    # The restored state is exactly the stored commit's: continue it.
    monitor.checkpoint_committed(checkpoint.commit_id)
    return monitor


def verify_journal(
    backend: Backend,
    run: str,
    batches: list[list[CaseReport]],
    n_done: int,
) -> None:
    """Check the journaled prefix matches the re-derived input batches.

    The journal records the case ids each already-ingested batch
    contained. On resume the caller re-derives the batch split from its
    input; if the first ``n_done`` batches disagree with the journal,
    the input stream changed since the checkpoint and continuing would
    silently corrupt the run.
    """
    for index in range(n_done):
        journaled = backend.journal_case_ids(run, index)
        if journaled is None:
            raise StoreError(
                f"checkpoint of run {run!r} covers {n_done} batches but "
                f"batch {index} has no journal row; the store is "
                "inconsistent — clear the checkpoint to start over"
            )
        actual = [report.case_id for report in batches[index]]
        if journaled != actual:
            raise StoreError(
                f"batch {index} of the input stream does not match the "
                f"journal of run {run!r} ({len(actual)} vs "
                f"{len(journaled)} case ids); the input changed since "
                "the checkpoint — clear it to start over"
            )
