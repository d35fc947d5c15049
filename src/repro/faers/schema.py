"""Dataclasses modelling FAERS records and the abstracted case report.

The raw quarterly extract splits one adverse-event case across several
``$``-delimited files; the three that matter to MeDIAR are DEMO (one row
per case: demographics and report provenance), DRUG (one row per drug
per case) and REAC (one row per reaction per case). The parser reads
those into :class:`DemoRecord` / :class:`DrugRecord` / :class:`ReacRecord`
and joins them into the :class:`CaseReport` abstraction the rest of the
system consumes.
"""

from __future__ import annotations

import datetime
import enum
from dataclasses import dataclass

from repro.errors import ValidationError


class ReportType(enum.Enum):
    """FAERS report provenance.

    The paper uses only the mandatory manufacturer reports marked
    *expedited* (EXP), which by regulation contain at least one serious
    unlabelled adverse event.
    """

    EXPEDITED = "EXP"
    PERIODIC = "PER"
    DIRECT = "DIR"

    @classmethod
    def from_code(cls, code: str) -> "ReportType":
        code = code.strip().upper()
        for member in cls:
            if member.value == code:
                return member
        raise ValidationError(f"unknown report type code {code!r}")


@dataclass(frozen=True, slots=True)
class DemoRecord:
    """One row of a DEMO file: case identity and provenance."""

    case_id: str
    report_type: ReportType
    quarter: str
    age: float | None = None
    sex: str | None = None
    country: str | None = None
    event_date: str | None = None


@dataclass(frozen=True, slots=True)
class DrugRecord:
    """One row of a DRUG file: one drug mentioned in one case."""

    case_id: str
    drug_name: str
    role: str = "SS"  # PS primary suspect, SS secondary suspect, C concomitant, I interacting


@dataclass(frozen=True, slots=True)
class ReacRecord:
    """One row of a REAC file: one MedDRA preferred term for one case."""

    case_id: str
    adr_term: str


@dataclass(frozen=True, slots=True)
class CaseReport:
    """The abstraction MeDIAR mines: a case's drugs and ADRs.

    ``drugs`` and ``adrs`` are stored as sorted tuples so that reports
    are hashable, deterministic to render, and cheap to compare during
    de-duplication. Construct via :meth:`build` to get the sorting and
    validation for free.
    """

    case_id: str
    drugs: tuple[str, ...]
    adrs: tuple[str, ...]
    report_type: ReportType = ReportType.EXPEDITED
    quarter: str = ""
    age: float | None = None
    sex: str | None = None
    country: str | None = None
    event_date: str | None = None  # FAERS event_dt, ISO "YYYY-MM-DD"

    @classmethod
    def build(
        cls,
        case_id: str,
        drugs: object,
        adrs: object,
        *,
        report_type: ReportType = ReportType.EXPEDITED,
        quarter: str = "",
        age: float | None = None,
        sex: str | None = None,
        country: str | None = None,
        event_date: str | None = None,
    ) -> "CaseReport":
        """Validate and normalize into a canonical report.

        Duplicate drug/ADR mentions collapse; empty strings are
        rejected. A report must mention at least one drug and one ADR —
        a case with neither side populated carries no minable signal and
        is dropped earlier in the pipeline, so reaching here with one is
        a programming error worth surfacing.
        """
        if not case_id:
            raise ValidationError("case_id must be non-empty")
        drug_set = _canonical_terms(drugs, "drug")
        adr_set = _canonical_terms(adrs, "adr")
        if not drug_set or not adr_set:
            raise ValidationError(
                f"case {case_id}: report needs at least one drug and one ADR "
                f"(got {len(drug_set)} drugs, {len(adr_set)} ADRs)"
            )
        validate_scalars(case_id, age, event_date)
        return cls(
            case_id=case_id,
            drugs=drug_set,
            adrs=adr_set,
            report_type=report_type,
            quarter=quarter,
            age=age,
            sex=sex,
            country=country,
            event_date=event_date,
        )

    @property
    def items(self) -> frozenset[str]:
        """Drugs and ADRs as one label set (the transaction view)."""
        return frozenset(self.drugs) | frozenset(self.adrs)

    def signature(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Content signature used for exact-duplicate detection."""
        return (self.drugs, self.adrs)

    def to_json(self) -> dict:
        """JSON-compatible record; :meth:`from_json` round-trips exactly.

        The durable store serializes carried surveillance state (merged
        case reports) through this; default-valued optional fields are
        omitted to keep checkpoints compact.
        """
        record: dict = {
            "case_id": self.case_id,
            "drugs": list(self.drugs),
            "adrs": list(self.adrs),
        }
        if self.report_type is not ReportType.EXPEDITED:
            record["report_type"] = self.report_type.value
        if self.quarter:
            record["quarter"] = self.quarter
        for field_name in ("age", "sex", "country", "event_date"):
            value = getattr(self, field_name)
            if value is not None:
                record[field_name] = value
        return record

    @classmethod
    def from_json(cls, record: dict) -> "CaseReport":
        """Rebuild a report written by :meth:`to_json` (validated)."""
        return cls.build(
            record["case_id"],
            record["drugs"],
            record["adrs"],
            report_type=ReportType(record.get("report_type", "EXP")),
            quarter=record.get("quarter", ""),
            age=record.get("age"),
            sex=record.get("sex"),
            country=record.get("country"),
            event_date=record.get("event_date"),
        )


def validate_scalars(case_id: str, age: float | None, event_date: str | None) -> None:
    """The checks :meth:`CaseReport.build` applies to a report's scalars.

    A non-empty case id, an age in [0, 150] if given, and an ISO
    ``YYYY-MM-DD`` event date if given; raises
    :class:`~repro.errors.ValidationError` otherwise.
    """
    if not case_id:
        raise ValidationError("case_id must be non-empty")
    if age is not None and not 0 <= age <= 150:
        raise ValidationError(f"case {case_id}: implausible age {age}")
    if event_date is not None:
        try:
            datetime.date.fromisoformat(event_date)
        except ValueError:
            raise ValidationError(
                f"case {case_id}: event_date must be ISO YYYY-MM-DD, got {event_date!r}"
            ) from None


def _canonical_terms(terms: object, side: str) -> tuple[str, ...]:
    if isinstance(terms, str):
        raise ValidationError(
            f"{side}s must be an iterable of strings, not a bare string {terms!r}"
        )
    result = set()
    for term in terms:  # type: ignore[union-attr]
        if not isinstance(term, str) or not term.strip():
            raise ValidationError(f"invalid {side} term {term!r}")
        result.add(term.strip())
    return tuple(sorted(result))
