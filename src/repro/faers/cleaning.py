"""Data preparation and cleaning (§5.2, step one).

The paper: "We extracted the drugs and ADRs from FAERS reports and
merged them for each single case. We performed some preliminary cleaning
on drug names and ADRs to remove duplication and correct misspellings."

Three layers:

- :func:`normalize_drug_name` / :func:`normalize_adr_term` — verbatim
  string → canonical term (case folding, punctuation and whitespace
  collapse, dosage/form suffix stripping, trade-name parentheses).
- misspelling repair — edit-distance-1 correction against a reference
  vocabulary, only applied when the correction is unambiguous.
- :class:`IncrementalCleaner` — the one implementation of the step: a
  fold over batches of raw rows that normalizes and corrects each row,
  merges the versions of each case id, and drops exact content
  duplicates, reporting per batch which kept cases appeared or changed
  (:class:`CleaningDelta`). :class:`ReportCleaner` runs one fresh fold
  over a whole input; the streaming ingest
  (:mod:`repro.faers.ingest`) feeds it chunk by chunk and the
  incremental surveillance engine feeds it batch by batch, so all three
  produce the same cleaned reports and :class:`CleaningStats` by
  construction.

A case's first row becomes its report by direct construction from the
memo's cleaned term sets, which are already normalized and non-empty,
so only the scalar checks of :meth:`CaseReport.build` (case id, age
range, ISO date) are applied to it; a merge of a later version goes
through ``build``.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.errors import ConfigError, ValidationError
from repro.faers.schema import CaseReport, validate_scalars
from repro.obs import get_registry
from repro.runtime import collector_paused

# Dose/strength/form tails frequently pasted into FAERS verbatim drug
# strings: "ASPIRIN 81 MG", "WARFARIN SODIUM TAB", "NEXIUM 40MG CAPSULES".
_DOSAGE_TAIL = re.compile(
    r"\s+(\d+(\.\d+)?\s*(MG|MCG|G|ML|IU|%)(/\s*\w+)?"
    r"|TAB(LET)?S?|CAP(SULE)?S?|INJ(ECTION)?|SOLUTION|CREAM|SYRUP"
    r"|ORAL|TOPICAL|HCL|SODIUM|POTASSIUM|CALCIUM)\s*$"
)
_PARENTHETICAL = re.compile(r"\s*\([^)]*\)\s*")
_NON_TERM = re.compile(r"[^A-Z0-9\- ]+")
_MULTISPACE = re.compile(r"\s{2,}")


def normalize_drug_name(verbatim: str) -> str:
    """Canonicalize one verbatim drug string.

    Uppercases, drops parentheticals (``"TACROLIMUS (PROGRAF)"`` →
    ``"TACROLIMUS"``), strips punctuation, and repeatedly removes
    dose/strength/form tails. Returns the empty string when nothing
    survives — callers treat that as "no usable drug mention".
    """
    term = verbatim.upper().strip()
    term = _PARENTHETICAL.sub(" ", term)
    term = _NON_TERM.sub(" ", term)
    term = _MULTISPACE.sub(" ", term).strip()
    while True:
        stripped = _DOSAGE_TAIL.sub("", term).strip()
        if stripped == term:
            break
        term = stripped
    return _MULTISPACE.sub(" ", term).strip()


def normalize_adr_term(verbatim: str) -> str:
    """Canonicalize one reaction term (MedDRA PTs are already clean-ish)."""
    term = verbatim.upper().strip()
    term = _NON_TERM.sub(" ", term)
    return _MULTISPACE.sub(" ", term).strip()


class SpellingCorrector:
    """Unambiguous edit-distance-1 correction against a vocabulary.

    A candidate is corrected only when exactly one vocabulary term is
    within edit distance 1 — ambiguity leaves the input untouched, since
    a wrong merge is worse for signal mining than a missed one.
    """

    def __init__(self, vocabulary: Iterable[str]) -> None:
        self._vocabulary = frozenset(vocabulary)
        if not self._vocabulary:
            raise ConfigError("vocabulary must be non-empty")
        # Deletion-neighborhood index: every vocab term keyed by each of
        # its single-character deletions (and itself). This finds all
        # edit-distance-1 matches without scanning the vocabulary.
        self._deletions: dict[str, set[str]] = {}
        for term in self._vocabulary:
            for key in self._deletion_keys(term):
                self._deletions.setdefault(key, set()).add(term)

    @staticmethod
    def _deletion_keys(term: str) -> set[str]:
        keys = {term}
        keys.update(term[:i] + term[i + 1 :] for i in range(len(term)))
        return keys

    def correct(self, term: str) -> str:
        """Return the corrected term, or ``term`` itself if no unique fix."""
        if term in self._vocabulary:
            return term
        candidates: set[str] = set()
        for key in self._deletion_keys(term):
            candidates.update(self._deletions.get(key, ()))
        matches = {c for c in candidates if _edit_distance_at_most_one(term, c)}
        if len(matches) == 1:
            return next(iter(matches))
        return term


def _edit_distance_at_most_one(left: str, right: str) -> bool:
    """True when Levenshtein distance ≤ 1 (cheap two-pointer check)."""
    if left == right:
        return True
    len_l, len_r = len(left), len(right)
    if abs(len_l - len_r) > 1:
        return False
    if len_l > len_r:
        left, right, len_l, len_r = right, left, len_r, len_l
    i = j = 0
    edited = False
    while i < len_l and j < len_r:
        if left[i] == right[j]:
            i += 1
            j += 1
            continue
        if edited:
            return False
        edited = True
        if len_l == len_r:
            i += 1
        j += 1
    return True


@dataclass(slots=True)
class CleaningStats:
    """What a cleaning fold did to the rows it has seen so far."""

    rows_in: int = 0
    reports_out: int = 0
    cases_merged: int = 0
    exact_duplicates_dropped: int = 0
    drug_names_corrected: int = 0
    adr_terms_corrected: int = 0
    empty_reports_dropped: int = 0


Signature = tuple[tuple[str, ...], tuple[str, ...]]


@dataclass(slots=True)
class CleaningDelta:
    """What one ingested batch changed in the cleaned view of the stream.

    ``appended`` — merged reports of kept cases that first appeared in
    this batch, in first-appearance order (their rows append at the end
    of the encoded transaction order). ``updated`` — new merged reports
    of pre-batch kept cases whose content changed (a follow-up version
    merged in). ``needs_rebuild`` — a pre-batch case's kept/dropped
    status flipped, so the appended/updated view cannot express the
    change and the caller must re-encode from :meth:`IncrementalCleaner.
    kept_reports`.
    """

    appended: list[CaseReport] = field(default_factory=list)
    updated: list[CaseReport] = field(default_factory=list)
    needs_rebuild: bool = False
    n_new_cases: int = 0
    n_updated_cases: int = 0


class IncrementalCleaner:
    """The cleaning fold: normalize, correct, merge and de-duplicate.

    The state is one record per case — its merged report, indexed by
    the case's first-appearance *position* — plus the signature groups
    the duplicate drop is defined over. A merged case is *kept* iff it
    has the minimal position within its (drugs, adrs) signature group,
    which is exactly "first signature wins" over the merged cases in
    first-appearance order, whatever batches the rows arrived in. A
    follow-up version that moves a case between signature groups can
    flip the kept/dropped status of a *pre-batch* case; the delta then
    reports ``needs_rebuild`` because a row would appear or disappear
    in the middle of the encoded transaction order.

    Normalization and correction are pure per verbatim string, so each
    side memoizes ``verbatim → (term, corrected?)``: a term costs its
    regex passes once per distinct string, and the correction counters
    still count every occurrence. The memo lives as long as the fold and
    grows with the distinct verbatim strings it has seen; every kept row
    shares the memo's one string object per term.
    """

    def __init__(
        self,
        drug_corrector: SpellingCorrector | None = None,
        adr_corrector: SpellingCorrector | None = None,
    ) -> None:
        self._drug_corrector = drug_corrector
        self._adr_corrector = adr_corrector
        self._drug_memo: dict[str, tuple[str, bool]] = {}
        self._adr_memo: dict[str, tuple[str, bool]] = {}
        self._reports: list[CaseReport] = []  # merged report per position
        self._position: dict[str, int] = {}  # case id → position
        # Signature group → its keeper (minimal position), and the other
        # members of groups that have any: a singleton group costs no set.
        self._keeper: dict[Signature, int] = {}
        self._duplicates: dict[Signature, set[int]] = {}
        # Positions whose merged report changed since track_updates();
        # None until a checkpoint opens the window, so a fold no store
        # watches records nothing.
        self._updated: set[int] | None = None
        self._rows_in = 0
        self._cases_merged = 0
        self._empty_dropped = 0
        self._drug_names_corrected = 0
        self._adr_terms_corrected = 0

    def ingest(self, rows: Iterable[CaseReport]) -> CleaningDelta:
        """Fold one batch of raw rows into the state and return the delta."""
        batch_floor = len(self._reports)
        # Pre-batch merged report of every case touched this batch
        # (None = the case first appeared in this batch).
        touched: dict[str, CaseReport | None] = {}
        needs_rebuild = False
        for report in rows:
            self._rows_in += 1
            drugs, n_fixed = _clean_side(
                report.drugs,
                self._drug_memo,
                normalize_drug_name,
                self._drug_corrector,
            )
            self._drug_names_corrected += n_fixed
            adrs, n_fixed = _clean_side(
                report.adrs, self._adr_memo, normalize_adr_term, self._adr_corrector
            )
            self._adr_terms_corrected += n_fixed
            if not drugs or not adrs:
                self._empty_dropped += 1
                continue
            case_id = report.case_id
            position = self._position.get(case_id)
            if position is None:
                touched.setdefault(case_id, None)
                # The memo's terms are already normalized and non-empty,
                # so only the scalars need build()'s checks.
                validate_scalars(case_id, report.age, report.event_date)
                self._admit(
                    CaseReport(
                        case_id,
                        tuple(sorted(drugs)),
                        tuple(sorted(adrs)),
                        report_type=report.report_type,
                        quarter=report.quarter,
                        age=report.age,
                        sex=report.sex,
                        country=report.country,
                        event_date=report.event_date,
                    )
                )
                continue
            existing = self._reports[position]
            touched.setdefault(case_id, existing)
            self._cases_merged += 1
            merged = CaseReport.build(
                case_id,
                set(existing.drugs) | drugs,
                set(existing.adrs) | adrs,
                report_type=existing.report_type,
                quarter=existing.quarter,
                age=existing.age,
                sex=existing.sex,
                country=existing.country,
                event_date=existing.event_date or report.event_date,
            )
            if merged == existing:
                continue  # exact resubmission: nothing changed
            self._reports[position] = merged
            if self._updated is not None:
                self._updated.add(position)
            old_signature = existing.signature()
            new_signature = merged.signature()
            if new_signature != old_signature:
                needs_rebuild |= self._move(
                    position, old_signature, new_signature, batch_floor
                )

        delta = CleaningDelta(needs_rebuild=needs_rebuild)
        for case_id in sorted(touched, key=self._position.__getitem__):
            before = touched[case_id]
            position = self._position[case_id]
            now = self._reports[position]
            kept = self._keeper[now.signature()] == position
            if before is None:
                delta.n_new_cases += 1
                if kept:
                    delta.appended.append(now)
            elif now != before:
                delta.n_updated_cases += 1
                if kept:
                    delta.updated.append(now)
        return delta

    def _admit(self, report: CaseReport) -> None:
        """Give a first-seen case the next position and join its group."""
        position = len(self._reports)
        self._reports.append(report)
        self._position[report.case_id] = position
        self._join(position, report.signature())

    def _join(self, position: int, signature: Signature) -> None:
        keeper = self._keeper.get(signature)
        if keeper is None:
            self._keeper[signature] = position
            return
        if position < keeper:
            self._keeper[signature] = position
            position = keeper
        self._duplicates.setdefault(signature, set()).add(position)

    def _leave(self, position: int, signature: Signature) -> None:
        others = self._duplicates.get(signature)
        if self._keeper[signature] == position:
            if others is None:
                del self._keeper[signature]
                return
            position = min(others)
            self._keeper[signature] = position
        others.remove(position)
        if not others:
            del self._duplicates[signature]

    def _move(
        self,
        position: int,
        old_signature: Signature,
        new_signature: Signature,
        batch_floor: int,
    ) -> bool:
        """Move one case between signature groups; True if a *pre-batch*
        case's kept/dropped status may have changed (conservative)."""
        flip = False
        was_kept = self._keeper[old_signature] == position
        self._leave(position, old_signature)
        # Leaving as the keeper promotes the group's next-oldest
        # member; a pre-batch promotion inserts a row mid-stream.
        promoted = self._keeper.get(old_signature)
        if was_kept and promoted is not None and promoted < batch_floor:
            flip = True
        keeper = self._keeper.get(new_signature)
        if keeper is not None and position < keeper < batch_floor:
            flip = True  # pre-batch keeper demoted to duplicate
        self._join(position, new_signature)
        now_kept = self._keeper[new_signature] == position
        if position < batch_floor and was_kept != now_kept:
            flip = True  # the moving case's own row appears/disappears
        return flip

    def kept_reports(self) -> list[CaseReport]:
        """The cleaned dataset, in first-appearance order of kept cases."""
        keeper = self._keeper
        return [
            report
            for position, report in enumerate(self._reports)
            if keeper[report.signature()] == position
        ]

    def stats(self) -> CleaningStats:
        """Cumulative counters of every row folded so far."""
        return CleaningStats(
            rows_in=self._rows_in,
            reports_out=len(self._keeper),
            cases_merged=self._cases_merged,
            exact_duplicates_dropped=len(self._reports) - len(self._keeper),
            drug_names_corrected=self._drug_names_corrected,
            adr_terms_corrected=self._adr_terms_corrected,
            empty_reports_dropped=self._empty_dropped,
        )

    # -- durable-store checkpoint support ------------------------------

    def merge_state(self) -> dict:
        """The carried counters, restorable by :meth:`from_merge_state`.

        The merged reports themselves are :meth:`merge_records`.
        Positions and signature groups are *derived* state — every
        merged report carries its own signature, and positions are the
        record order — so only the merged reports and the pure counters
        need persisting. Spelling correctors and the memo are not
        captured: the incremental engine always runs the cleaner
        without correctors, and correction counts are carried as
        counters.
        """
        return {
            "rows_in": self._rows_in,
            "cases_merged": self._cases_merged,
            "empty_dropped": self._empty_dropped,
            "drug_names_corrected": self._drug_names_corrected,
            "adr_terms_corrected": self._adr_terms_corrected,
        }

    def merge_records(self, since: int = 0) -> dict[int, CaseReport]:
        """The merged report of each position, in position order.

        With ``since`` > 0 — the number of positions a committed copy
        held when :meth:`track_updates` was last called — only the
        positions updated since then or appended after ``since`` are
        returned.
        """
        records = (
            {p: self._reports[p] for p in sorted(self._updated) if p < since}
            if since
            else {}
        )
        records.update(enumerate(self._reports[since:], since))
        return records

    def __len__(self) -> int:
        """Positions held: one per case id, merge records and duplicates."""
        return len(self._reports)

    def track_updates(self) -> None:
        """Start recording the positions a merge updates, from empty."""
        self._updated = set()

    @classmethod
    def from_merge_state(
        cls, state: dict, reports: Iterable[CaseReport]
    ) -> "IncrementalCleaner":
        """Rebuild a cleaner whose next :meth:`ingest` continues the fold."""
        cleaner = cls()
        for report in reports:
            cleaner._admit(report)
        cleaner._rows_in = int(state["rows_in"])
        cleaner._cases_merged = int(state["cases_merged"])
        cleaner._empty_dropped = int(state["empty_dropped"])
        cleaner._drug_names_corrected = int(state["drug_names_corrected"])
        cleaner._adr_terms_corrected = int(state["adr_terms_corrected"])
        return cleaner


def _clean_side(
    verbatims: tuple[str, ...],
    memo: dict[str, tuple[str, bool]],
    normalizer,
    corrector: SpellingCorrector | None,
) -> tuple[set[str], int]:
    """Canonical terms of one side of one row, and how many were corrected.

    Every returned term is stripped and non-empty, so a report can be
    constructed from them without :meth:`CaseReport.build`'s term checks.
    """
    cleaned: set[str] = set()
    n_corrected = 0
    for verbatim in verbatims:
        hit = memo.get(verbatim)
        if hit is None:
            term = normalizer(verbatim)
            corrected = False
            if term and corrector is not None:
                fixed = corrector.correct(term)
                corrected = fixed != term
                # A vocabulary term becomes a report term as is, so it
                # gets the checks CaseReport.build gives a term.
                term = fixed.strip()
                if not term:
                    raise ValidationError(f"invalid vocabulary term {fixed!r}")
            hit = memo[verbatim] = (term, corrected)
        term, corrected = hit
        if term:
            cleaned.add(term)
            n_corrected += corrected
    return cleaned, n_corrected


class ReportCleaner:
    """Whole-dataset cleaning: one fresh :class:`IncrementalCleaner` fold.

    Parameters
    ----------
    drug_vocabulary, adr_vocabulary:
        Optional reference vocabularies for misspelling repair; when
        omitted, only normalization and de-duplication run.
    """

    def __init__(
        self,
        drug_vocabulary: Iterable[str] | None = None,
        adr_vocabulary: Iterable[str] | None = None,
    ) -> None:
        self._drug_corrector = (
            SpellingCorrector(drug_vocabulary) if drug_vocabulary else None
        )
        self._adr_corrector = (
            SpellingCorrector(adr_vocabulary) if adr_vocabulary else None
        )

    def fold(self) -> IncrementalCleaner:
        """A fresh fold configured with this cleaner's vocabularies."""
        return IncrementalCleaner(self._drug_corrector, self._adr_corrector)

    @collector_paused()
    def clean(
        self, reports: Iterable[CaseReport]
    ) -> tuple[list[CaseReport], CleaningStats]:
        """Normalize, correct, merge and de-duplicate ``reports``.

        Returns the cleaned reports (original order of first appearance
        preserved) and the counters. Rows sharing a case id are merged
        into one report whose drug/ADR sets are the unions; after
        merging, reports with identical (drugs, adrs) content beyond the
        first are dropped as FAERS follow-up duplicates.

        ``reports`` may be any iterable, including a one-shot generator
        (the streaming synthetic source, :func:`~repro.faers.parser.
        iter_quarter`); the input is consumed in a single pass and never
        materialized. **Ordering contract:** output order is the order
        each kept case id was *first seen* while consuming the input — a
        case claims its output slot with its first row whose normalized
        content is non-empty, later follow-up rows merge into that slot
        in place, and the post-merge duplicate drop never reorders
        survivors. A list and a generator over the same rows therefore
        produce identical output (``tests/faers/test_streaming.py`` pins
        this down).
        """
        registry = get_registry()
        with registry.timer("faers.clean"):
            fold = self.fold()
            fold.ingest(reports)
            cleaned = fold.kept_reports()
            stats = fold.stats()
        if registry.enabled:
            for name in (
                "rows_in",
                "reports_out",
                "cases_merged",
                "exact_duplicates_dropped",
                "drug_names_corrected",
                "adr_terms_corrected",
                "empty_reports_dropped",
            ):
                registry.counter(f"faers.clean.{name}").inc(getattr(stats, name))
        return cleaned, stats
