"""FAERS substrate: schema, parsing, cleaning, and synthetic generation.

The FDA Adverse Event Reporting System publishes quarterly extracts of
spontaneous adverse-event reports. MeDIAR consumes an abstraction of a
report — *case → (set of drugs taken, set of ADRs observed)* — and this
package provides every step from raw quarterly files to that
abstraction:

- :mod:`repro.faers.schema` — record and report dataclasses.
- :mod:`repro.faers.parser` — parser for the ``$``-delimited ASCII
  quarterly files (both legacy AERS ``ISR`` and modern ``primaryid``
  layouts).
- :mod:`repro.faers.cleaning` — drug-name normalization, misspelling
  repair against a vocabulary, and case merging and de-duplication
  (§5.2's "data preparation and cleaning" step), as one fold over
  batches of rows.
- :mod:`repro.faers.dataset` — :class:`ReportDataset`, the bridge from
  reports to the mining substrate's transaction database, with report
  linkage preserved so ranked rules can be traced back to source cases,
  and the one report → item-id encoder.
- :mod:`repro.faers.synthetic` — a generator of synthetic FAERS quarters
  with *planted* drug-drug-interaction ground truth, standing in for the
  real 2014 extracts (see DESIGN.md, substitutions).
- :mod:`repro.faers.ingest` — the streaming tier: chunked, bounded-memory
  clean + encode of any report iterable (the million-report capacity
  path; byte-identical to the one-shot chain).
- :mod:`repro.faers.vocab` — drug/ADR vocabularies seeded with the names
  appearing in the paper.
"""

from repro.faers.cleaning import CleaningStats, ReportCleaner, normalize_adr_term, normalize_drug_name
from repro.faers.dedup import (
    NearDuplicatePolicy,
    find_near_duplicates,
    resolve_near_duplicates,
)
from repro.faers.dataset import DatasetStats, ReportDataset
from repro.faers.ingest import StreamedIngest, StreamEncoder, encode_stream, iter_chunks
from repro.faers.parser import iter_quarter, parse_quarter, read_delimited
from repro.faers.schema import CaseReport, ReportType
from repro.faers.synthetic import (
    InteractionSpec,
    SyntheticConfig,
    SyntheticFAERSGenerator,
    iter_year,
    quarter_config,
    quarter_sequence,
)
from repro.faers.vocab import ADR_VOCABULARY, DRUG_VOCABULARY
from repro.faers.writer import QuarterFiles, write_quarter_files

__all__ = [
    "ADR_VOCABULARY",
    "CaseReport",
    "CleaningStats",
    "DatasetStats",
    "DRUG_VOCABULARY",
    "InteractionSpec",
    "NearDuplicatePolicy",
    "ReportCleaner",
    "ReportDataset",
    "ReportType",
    "StreamEncoder",
    "StreamedIngest",
    "SyntheticConfig",
    "SyntheticFAERSGenerator",
    "encode_stream",
    "find_near_duplicates",
    "iter_chunks",
    "iter_quarter",
    "iter_year",
    "normalize_adr_term",
    "normalize_drug_name",
    "resolve_near_duplicates",
    "parse_quarter",
    "quarter_config",
    "quarter_sequence",
    "QuarterFiles",
    "read_delimited",
    "write_quarter_files",
]
