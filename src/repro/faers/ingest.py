"""Streaming, bounded-memory ingest: clean + encode a report stream.

The one-shot path materializes the raw ``list[CaseReport]`` on its way
into the miner. At the ~5k-report benchmark scale nobody notices; at
the million-report capacity tier the raw list alone costs hundreds of
megabytes that the miner never looks at.

:func:`encode_stream` consumes any ``Iterable[CaseReport]`` — a list, the
synthetic generator's :meth:`~repro.faers.synthetic.
SyntheticFAERSGenerator.iter_reports`, or the parser's
:func:`~repro.faers.parser.iter_quarter` — in fixed-size chunks. Each
chunk goes through the cleaning fold
(:class:`~repro.faers.cleaning.IncrementalCleaner`) and the resulting
delta through the encoder
(:class:`~repro.faers.dataset.IncrementalEncoder`), the same two objects
:class:`~repro.faers.cleaning.ReportCleaner`,
:meth:`~repro.faers.dataset.ReportDataset.encode` and the incremental
surveillance engine run. Peak memory is the retained state — one merged
report per kept case, the encoded database and catalog — plus
**O(chunk_size)** transient rows: no raw list is ever held. The
bounded-memory regression test (``tests/faers/test_streaming_memory.py``)
holds the transient overhead to O(chunk) so the path cannot silently
regress to a hidden ``list()``.

Equivalence contract
--------------------
For any stream and any chunk size, the resulting catalog, transactions,
case ids, reports and :class:`~repro.faers.cleaning.CleaningStats` are
**byte-identical** to ``ReportCleaner().clean(list(stream))`` →
``ReportDataset.encode()`` (``tests/faers/test_streaming.py``). Chunks
are applied to the encoding in place; a follow-up version that the
in-place encoding cannot express (see
:meth:`~repro.faers.dataset.IncrementalEncoder.rebuild_reason`, or a
merge that flips an earlier case's duplicate drop) marks the encoding
stale, and :meth:`StreamEncoder.finish` re-encodes the kept reports
once.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.faers.cleaning import CleaningStats, ReportCleaner
from repro.faers.dataset import IncrementalEncoder
from repro.faers.schema import CaseReport
from repro.mining.transactions import (
    GrowableTransactionDatabase,
    ItemCatalog,
)
from repro.obs import get_registry

#: Default rows per chunk: large enough that per-chunk overhead
#: (timer spans, registry lookups) vanishes, small enough that the
#: transient chunk is noise next to the retained database.
DEFAULT_CHUNK_SIZE = 4096


def iter_chunks(reports: Iterable[CaseReport], chunk_size: int) -> Iterator[list[CaseReport]]:
    """Split any iterable into lists of at most ``chunk_size`` rows."""
    if chunk_size < 1:
        raise ConfigError(f"chunk_size must be >= 1, got {chunk_size}")
    iterator = iter(reports)
    while chunk := list(itertools.islice(iterator, chunk_size)):
        yield chunk


@dataclass(slots=True)
class StreamedIngest:
    """What one :func:`encode_stream` pass produced.

    ``database`` rows, ``case_ids``, ``reports`` and the catalog are
    parallel to the one-shot ``ReportDataset.encode()`` output.
    """

    database: GrowableTransactionDatabase
    case_ids: list[str]
    reports: list[CaseReport]
    cleaning_stats: CleaningStats
    n_chunks: int = 0

    @property
    def catalog(self) -> ItemCatalog:
        return self.database.catalog


class StreamEncoder:
    """Chunked clean + encode into a growable database.

    One instance per stream; feed chunks with :meth:`ingest_chunk` (or
    let :func:`encode_stream` drive it), then call :meth:`finish`.
    """

    def __init__(
        self,
        *,
        drug_vocabulary: Iterable[str] | None = None,
        adr_vocabulary: Iterable[str] | None = None,
    ) -> None:
        self._cleaner = ReportCleaner(drug_vocabulary, adr_vocabulary).fold()
        self._encoder = IncrementalEncoder()
        self._stale = False  # a chunk could not be applied in place
        self.n_chunks = 0

    @property
    def stats(self) -> CleaningStats:
        """Cleaning counters of every row ingested so far."""
        return self._cleaner.stats()

    def ingest_chunk(self, chunk: Iterable[CaseReport]) -> None:
        """Clean and encode one chunk of raw rows."""
        registry = get_registry()
        self.n_chunks += 1
        with registry.timer("ingest.clean"):
            delta = self._cleaner.ingest(chunk)
        if self._stale:
            return
        with registry.timer("ingest.encode"):
            if delta.needs_rebuild or self._encoder.rebuild_reason(delta):
                self._stale = True
            else:
                self._encoder.apply(delta)

    def finish(self) -> StreamedIngest:
        """Freeze the accumulated state into a :class:`StreamedIngest`."""
        registry = get_registry()
        if self._stale:
            with registry.timer("ingest.encode"):
                self._encoder.rebuild(self._cleaner.kept_reports())
            self._stale = False
        stats = self.stats
        if registry.enabled:
            registry.counter("ingest.rows_in").inc(stats.rows_in)
            registry.counter("ingest.reports_out").inc(stats.reports_out)
            registry.counter("ingest.chunks").inc(self.n_chunks)
        reports = self._encoder.row_reports
        return StreamedIngest(
            database=self._encoder.database,
            case_ids=[report.case_id for report in reports],
            reports=reports,
            cleaning_stats=stats,
            n_chunks=self.n_chunks,
        )


def encode_stream(
    reports: Iterable[CaseReport],
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    drug_vocabulary: Iterable[str] | None = None,
    adr_vocabulary: Iterable[str] | None = None,
) -> StreamedIngest:
    """Clean + encode a report stream in bounded-memory chunks.

    The streaming replacement for the ``clean → ReportDataset →
    encode`` chain; see the module docstring for the memory model and
    the equivalence contract. ``reports`` may be a list (processed
    identically) or a one-shot generator (never materialized).
    """
    encoder = StreamEncoder(
        drug_vocabulary=drug_vocabulary, adr_vocabulary=adr_vocabulary
    )
    for chunk in iter_chunks(reports, chunk_size):
        encoder.ingest_chunk(chunk)
    return encoder.finish()
