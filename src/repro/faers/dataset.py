"""The bridge from case reports to the mining substrate.

:class:`ReportDataset` holds cleaned :class:`~repro.faers.schema.CaseReport`
objects, produces Table 5.1-style statistics, and encodes itself as a
:class:`~repro.mining.transactions.TransactionDatabase` whose items carry
drug/ADR kinds. The encoding keeps a tid → case-id mapping, which is what
lets the pipeline answer "show me the original reports supporting this
rule" (§4.1, mapping interactions to actual reports).

:class:`IncrementalEncoder` is the one report → item-id encoder: the
one-shot :meth:`ReportDataset.encode`, the streaming ingest and the
incremental surveillance engine all assign ids through its row loop,
and the engine and the streaming ingest also maintain it in place
across batches.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.faers.cleaning import CleaningDelta
from repro.faers.schema import CaseReport, ReportType
from repro.mining.transactions import (
    GrowableTransactionDatabase,
    ItemCatalog,
    TransactionDatabase,
    mask_tids,
)

DRUG_KIND = "drug"
ADR_KIND = "adr"

# Suffix applied to a reaction term whose string collides with a drug
# name (rare, but FAERS verbatim data makes no namespace promise).
_COLLISION_SUFFIX = " (REACTION)"


@dataclass(frozen=True, slots=True)
class DatasetStats:
    """One row of Table 5.1: reports / distinct drugs / distinct ADRs."""

    quarter: str
    n_reports: int
    n_drugs: int
    n_adrs: int


class EncodedDataset:
    """A :class:`TransactionDatabase` plus the report linkage behind it."""

    def __init__(
        self,
        database: TransactionDatabase,
        case_ids: tuple[str, ...],
        reports: tuple[CaseReport, ...],
    ) -> None:
        if not (len(database) == len(case_ids) == len(reports)):
            raise ConfigError(
                "database, case_ids and reports must be parallel sequences"
            )
        self.database = database
        self._case_ids = case_ids
        self._reports = reports

    @property
    def catalog(self) -> ItemCatalog:
        return self.database.catalog

    def case_id_of(self, tid: int) -> str:
        """Case id of transaction ``tid``."""
        return self._case_ids[tid]

    def report_of(self, tid: int) -> CaseReport:
        """Full source report of transaction ``tid``."""
        return self._reports[tid]

    def supporting_reports(self, itemset: Iterable[int]) -> list[CaseReport]:
        """Source reports containing every item of ``itemset``.

        This is the §4.1 drill-down: from a ranked rule back to the raw
        cases that support it.
        """
        database = self.database
        tids = mask_tids(database.itemset_mask(itemset), len(database))
        return [self._reports[tid] for tid in tids]


class ReportDataset:
    """An ordered, immutable collection of case reports."""

    def __init__(self, reports: Sequence[CaseReport], quarter: str = "") -> None:
        self._reports = tuple(reports)
        ids = [r.case_id for r in self._reports]
        if len(set(ids)) != len(ids):
            counts = Counter(ids)
            duplicated = sorted(i for i, n in counts.items() if n > 1)[:5]
            raise ConfigError(
                f"duplicate case ids in dataset (run ReportCleaner first): "
                f"{duplicated}"
            )
        self.quarter = quarter or self._infer_quarter()
        self._distinct: tuple[int, int] | None = None

    @classmethod
    def from_cleaned(
        cls,
        reports: tuple[CaseReport, ...],
        quarter: str = "",
        *,
        distinct: tuple[int, int] | None = None,
    ) -> "ReportDataset":
        """Wrap reports known to have unique case ids, skipping the scan.

        The duplicate-case-id check in ``__init__`` is O(n) on every
        call; the incremental engine already guarantees uniqueness (its
        merge state is keyed by case id), so the per-batch result
        assembly uses this trusted path. ``quarter`` follows the same
        contract as ``__init__`` (empty string = no single quarter).
        ``distinct`` is the (drug, ADR) name count :meth:`stats` would
        otherwise rescan every report for, when the caller already
        keeps it (:meth:`IncrementalEncoder.distinct_counts`).
        """
        self = cls.__new__(cls)
        self._reports = tuple(reports)
        self.quarter = quarter
        self._distinct = distinct
        return self

    def _infer_quarter(self) -> str:
        quarters = {r.quarter for r in self._reports if r.quarter}
        return next(iter(quarters)) if len(quarters) == 1 else ""

    def __len__(self) -> int:
        return len(self._reports)

    def __iter__(self) -> Iterator[CaseReport]:
        return iter(self._reports)

    def __getitem__(self, index: int) -> CaseReport:
        return self._reports[index]

    @property
    def reports(self) -> tuple[CaseReport, ...]:
        return self._reports

    def distinct_drugs(self) -> frozenset[str]:
        return frozenset(drug for r in self._reports for drug in r.drugs)

    def distinct_adrs(self) -> frozenset[str]:
        return frozenset(adr for r in self._reports for adr in r.adrs)

    def stats(self) -> DatasetStats:
        """The Table 5.1 row for this dataset."""
        if self._distinct is None:
            self._distinct = (len(self.distinct_drugs()), len(self.distinct_adrs()))
        n_drugs, n_adrs = self._distinct
        return DatasetStats(
            quarter=self.quarter,
            n_reports=len(self._reports),
            n_drugs=n_drugs,
            n_adrs=n_adrs,
        )

    def filter_report_type(self, report_type: ReportType) -> "ReportDataset":
        """Keep only reports of one provenance (the paper keeps EXP)."""
        return ReportDataset(
            [r for r in self._reports if r.report_type is report_type],
            quarter=self.quarter,
        )

    def filter_quarter(self, quarter: str) -> "ReportDataset":
        return ReportDataset(
            [r for r in self._reports if r.quarter == quarter], quarter=quarter
        )

    def mentioning_drug(self, drug: str) -> "ReportDataset":
        """Reports whose drug list contains ``drug`` (exact canonical name)."""
        return ReportDataset(
            [r for r in self._reports if drug in r.drugs], quarter=self.quarter
        )

    def encode(self) -> EncodedDataset:
        """Encode into a transaction database with drug/ADR item kinds.

        Ids are assigned in first-seen row order by
        :class:`IncrementalEncoder`'s row loop. A reaction term that
        collides with a drug name anywhere in the dataset is
        disambiguated with a ``" (REACTION)"`` suffix.
        """
        encoder = IncrementalEncoder()
        rows = encoder.encode_rows(self._reports)
        database = TransactionDatabase(rows, encoder.catalog)
        case_ids = tuple(report.case_id for report in self._reports)
        return EncodedDataset(database, case_ids, self._reports)


@dataclass(slots=True)
class EncodingDelta:
    """Effect of one applied :class:`~repro.faers.cleaning.CleaningDelta`."""

    delta_items: set[int] = field(default_factory=set)
    appended_tids: list[int] = field(default_factory=list)
    updated_tids: list[int] = field(default_factory=list)  # items changed
    #: Items an updated row gained or lost (a subset of ``delta_items``;
    #: the rest come from appended rows).
    updated_items: set[int] = field(default_factory=set)
    #: Items whose label the batch renamed in place (drug/ADR collision
    #: repair); their ids, rows and masks are unchanged.
    renamed_items: set[int] = field(default_factory=set)

    @property
    def touched_mask(self) -> int:
        """OR of the bits of every appended row and every changed row."""
        mask = 0
        for tid in self.updated_tids:
            mask |= 1 << tid
        if self.appended_tids:
            # Appended tids are contiguous at the top of the database.
            mask |= ((1 << len(self.appended_tids)) - 1) << self.appended_tids[0]
        return mask


class IncrementalEncoder:
    """Catalog + growable database, encoded once and maintained in place.

    Ids are assigned in first-seen row order, drugs of a row before its
    ADRs. A reaction term equal to a drug label is suffixed with
    ``" (REACTION)"``; the one-shot answer ("does this term collide with
    *any* drug in the dataset?") needs the whole dataset, so the row
    loop repairs on first collision instead: a new drug label that equals
    an already-encoded unsuffixed ADR renames that ADR item in place
    (:meth:`~repro.mining.transactions.ItemCatalog.rename_label`). A
    rename keeps the id and moves no row, so encoding the rows in any
    number of steps gives the catalog a single pass gives.

    Appended kept cases append rows (new bits at the top of the touched
    item masks) and a follow-up version of a kept case rewrites its one
    row (bit invalidation); the database's masks and support counts are
    its only column view, so a fresh
    :class:`~repro.mining.bitsets.SupportOracle` per batch answers from
    the mutated masks with no rebuild. Three kinds of update would give ids an order the one-shot
    encoding would not, and force a full re-encode instead, reported by
    :meth:`rebuild_reason`:

    - an updated row adds an item that is new to the catalog (the
      one-shot encoding would have assigned its id at that earlier row's
      position);
    - an updated row adds an existing item whose first-seen row is
      *later* than the updated row (same id-order violation);
    - an updated row removes items (cannot happen under union merging,
      but checked so the invariant never silently rots).
    """

    def __init__(self) -> None:
        self.catalog = ItemCatalog()
        self.database = GrowableTransactionDatabase([], self.catalog)
        self._drug_labels: set[str] = set()
        self._adr_terms: set[str] = set()
        self._renamed: set[int] = set()
        self._unsuffixed_adr_item: dict[str, int] = {}
        self._first_row: list[int] = []  # item id → first tid containing it
        self._row_reports: list[CaseReport] = []
        self._tid_by_case: dict[str, int] = {}
        self._quarters: set[str] = set()

    @property
    def row_reports(self) -> list[CaseReport]:
        """The report behind each row, in tid order."""
        return self._row_reports

    def quarter(self) -> str:
        """Same contract as ``ReportDataset._infer_quarter``."""
        return next(iter(self._quarters)) if len(self._quarters) == 1 else ""

    def distinct_counts(self) -> tuple[int, int]:
        """Distinct drug names and reaction terms over the encoded rows.

        The counts :meth:`ReportDataset.stats` reports, kept as rows are
        encoded instead of rescanned. Exact because an applied update
        never drops a name from its row (the merge is a union, and
        :meth:`rebuild_reason` rejects a row that loses items).
        """
        return len(self._drug_labels), len(self._adr_terms)

    def encode_rows(self, reports: Iterable[CaseReport]) -> list[set[int]]:
        """Assign ids to ``reports`` as the next rows; return their items.

        The caller owns storing the rows: :meth:`rebuild` and
        :meth:`ReportDataset.encode` build a database from the list,
        :meth:`apply` appends each row to the growable one.
        """
        return [self._encode_row(report) for report in reports]

    def _encode_row(self, report: CaseReport) -> set[int]:
        catalog = self.catalog
        drug_labels = self._drug_labels
        row: set[int] = set()
        for drug in report.drugs:
            if drug not in drug_labels:
                drug_labels.add(drug)
                item = self._unsuffixed_adr_item.pop(drug, None)
                if item is not None:
                    catalog.rename_label(item, drug + _COLLISION_SUFFIX)
                    self._renamed.add(item)
            row.add(catalog.add(drug, DRUG_KIND))
        self._adr_terms.update(report.adrs)
        for adr in report.adrs:
            if adr in drug_labels:
                row.add(catalog.add(adr + _COLLISION_SUFFIX, ADR_KIND))
            else:
                item = catalog.add(adr, ADR_KIND)
                self._unsuffixed_adr_item[adr] = item
                row.add(item)
        tid = len(self._row_reports)
        n_new = len(catalog) - len(self._first_row)
        if n_new:
            self._first_row.extend([tid] * n_new)
        self._row_reports.append(report)
        self._tid_by_case[report.case_id] = tid
        if report.quarter:
            self._quarters.add(report.quarter)
        return row

    def _known_item(self, label: str, kind: str) -> int | None:
        """Id of an already-encoded drug or ADR term (None = new)."""
        if kind == DRUG_KIND:
            if label not in self._drug_labels:
                return None
        elif label in self._drug_labels:
            label += _COLLISION_SUFFIX
        return self.catalog.get_id(label)

    def rebuild_reason(self, delta: CleaningDelta) -> str | None:
        """Why this delta cannot be applied in place (None = it can).

        Pure check — no state is mutated, so the caller can fall back to
        :meth:`rebuild` on a non-None answer.
        """
        for report in delta.updated:
            tid = self._tid_by_case[report.case_id]
            new_row: set[int] = set()
            for labels, kind in ((report.drugs, DRUG_KIND), (report.adrs, ADR_KIND)):
                for label in labels:
                    item = self._known_item(label, kind)
                    if item is None:
                        return "follow-up adds an item new to the catalog"
                    if self._first_row[item] > tid:
                        return "follow-up back-fills an item first seen later"
                    new_row.add(item)
            if self.database[tid] - new_row:
                return "follow-up removes items from a row"
        return None

    def apply(self, delta: CleaningDelta) -> EncodingDelta:
        """Mutate the encoding in place (call :meth:`rebuild_reason` first)."""
        effect = EncodingDelta()
        self._renamed = set()
        for report in delta.updated:
            tid = self._tid_by_case[report.case_id]
            row = {self._known_item(drug, DRUG_KIND) for drug in report.drugs}
            row.update(self._known_item(adr, ADR_KIND) for adr in report.adrs)
            added, removed = self.database.update_row(tid, row)
            self._row_reports[tid] = report
            self._adr_terms.update(report.adrs)
            if added or removed:
                effect.updated_items |= added | removed
                effect.updated_tids.append(tid)
        effect.delta_items |= effect.updated_items
        for report in delta.appended:
            row = self._encode_row(report)
            effect.appended_tids.append(self.database.append_row(row))
            effect.delta_items |= row
        effect.renamed_items = self._renamed
        return effect

    def rebuild(self, reports: Iterable[CaseReport]) -> None:
        """Re-encode from scratch: the encoding ``ReportDataset.encode`` gives."""
        self.__init__()
        rows = self.encode_rows(reports)
        self.database = GrowableTransactionDatabase(rows, self.catalog)


def stats_table(datasets: Sequence[ReportDataset]) -> list[DatasetStats]:
    """Table 5.1: one stats row per quarter dataset."""
    return [dataset.stats() for dataset in datasets]
