"""Reference oracle for the FAERS parser: the dict-per-row reader and join.

This is the straightforward implementation :mod:`repro.faers.parser`
replaced: every data row becomes a ``{column: value}`` dict and every
field is looked up by name. It is kept only as the specification the
differential test (``test_parser_differential.py``) holds the
positional parser to. The one addition is that the reader yields each
row's line number, so the two key errors can report where they
happened, as the production parser does.
"""

from __future__ import annotations

import datetime
from collections.abc import Iterator
from pathlib import Path

from repro.errors import ParseError
from repro.faers.parser import ParseStats
from repro.faers.schema import CaseReport, ReportType

DELIMITER = "$"

_REPORT_TYPE_CODES = {
    "EXP": ReportType.EXPEDITED,
    "30DAY": ReportType.EXPEDITED,
    "5DAY": ReportType.EXPEDITED,
    "PER": ReportType.PERIODIC,
    "DIR": ReportType.DIRECT,
}

_KEY_COLUMNS = ("primaryid", "isr")


def read_delimited_numbered(path) -> Iterator[tuple[int, dict[str, str]]]:
    """Yield ``(line number, lower-cased-key dict)`` per data row."""
    path = Path(path)
    with path.open("r", encoding="latin-1") as handle:
        header_line = handle.readline()
        if not header_line.strip():
            raise ParseError("empty file or blank header", path=str(path), line_number=1)
        columns = [c.strip().lower() for c in header_line.rstrip("\n").split(DELIMITER)]
        if len(set(columns)) != len(columns):
            raise ParseError(
                f"duplicate column names in header: {columns}",
                path=str(path),
                line_number=1,
            )
        for line_number, line in enumerate(handle, start=2):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            values = line.split(DELIMITER)
            if len(values) > len(columns):
                raise ParseError(
                    f"row has {len(values)} fields but header has {len(columns)}",
                    path=str(path),
                    line_number=line_number,
                )
            values.extend([""] * (len(columns) - len(values)))
            yield line_number, dict(zip(columns, values))


def read_delimited(path) -> Iterator[dict[str, str]]:
    for _, row in read_delimited_numbered(path):
        yield row


def _case_key(row: dict[str, str], path: str, line_number: int) -> str:
    for column in _KEY_COLUMNS:
        value = row.get(column, "").strip()
        if value:
            return value
    raise ParseError(
        f"row has no case key (expected one of {_KEY_COLUMNS}): {row}",
        path=path,
        line_number=line_number,
    )


def _require_key_column(first_row: dict[str, str], path: str, line_number: int) -> None:
    if not any(column in first_row for column in _KEY_COLUMNS):
        raise ParseError(
            f"file lacks a case-key column (one of {_KEY_COLUMNS}); "
            f"columns present: {sorted(first_row)}",
            path=path,
            line_number=line_number,
        )


def parse_quarter(
    demo_path,
    drug_path,
    reac_path,
    *,
    quarter: str = "",
    report_types: frozenset[ReportType] | None = None,
) -> tuple[list[CaseReport], ParseStats]:
    stats = ParseStats()

    demographics: dict[str, dict[str, str]] = {}
    order: list[str] = []
    for line_number, row in read_delimited_numbered(demo_path):
        if stats.demo_rows == 0:
            _require_key_column(row, str(demo_path), line_number)
        stats.demo_rows += 1
        key = _case_key(row, str(demo_path), line_number)
        if key not in demographics:
            order.append(key)
        demographics[key] = row  # later versions of a case supersede earlier

    drugs: dict[str, set[str]] = {}
    for line_number, row in read_delimited_numbered(drug_path):
        if stats.drug_rows == 0:
            _require_key_column(row, str(drug_path), line_number)
        stats.drug_rows += 1
        key = _case_key(row, str(drug_path), line_number)
        if key not in demographics:
            stats.orphan_drug_rows += 1
            continue
        name = row.get("drugname", "").strip()
        if name:
            drugs.setdefault(key, set()).add(name)

    reactions: dict[str, set[str]] = {}
    for line_number, row in read_delimited_numbered(reac_path):
        if stats.reac_rows == 0:
            _require_key_column(row, str(reac_path), line_number)
        stats.reac_rows += 1
        key = _case_key(row, str(reac_path), line_number)
        if key not in demographics:
            stats.orphan_reac_rows += 1
            continue
        term = row.get("pt", "").strip()
        if term:
            reactions.setdefault(key, set()).add(term)

    reports = []
    for key in order:
        row = demographics.pop(key)
        case_drugs = drugs.pop(key, None)
        case_reactions = reactions.pop(key, None)
        if not case_drugs:
            stats.cases_without_drugs += 1
            continue
        if not case_reactions:
            stats.cases_without_reactions += 1
            continue
        report_type = _parse_report_type(row)
        if report_types is not None and report_type not in report_types:
            continue
        stats.reports += 1
        reports.append(
            CaseReport.build(
                case_id=key,
                drugs=case_drugs,
                adrs=case_reactions,
                report_type=report_type,
                quarter=quarter,
                age=_parse_age(row),
                sex=row.get("sex", row.get("gndr_cod", "")).strip() or None,
                country=row.get("occr_country", row.get("reporter_country", "")).strip()
                or None,
                event_date=_parse_event_date(row),
            )
        )
    return reports, stats


def _parse_report_type(row: dict[str, str]) -> ReportType:
    code = row.get("rept_cod", "").strip().upper()
    return _REPORT_TYPE_CODES.get(code, ReportType.EXPEDITED)


def _parse_event_date(row: dict[str, str]) -> str | None:
    raw = row.get("event_dt", "").strip()
    if len(raw) != 8 or not raw.isdigit():
        return None
    candidate = f"{raw[:4]}-{raw[4:6]}-{raw[6:]}"
    try:
        datetime.date.fromisoformat(candidate)
    except ValueError:
        return None
    return candidate


def _parse_age(row: dict[str, str]) -> float | None:
    raw = row.get("age", "").strip()
    if not raw:
        return None
    try:
        age = float(raw)
    except ValueError:
        return None
    unit = row.get("age_cod", "YR").strip().upper() or "YR"
    factors = {"YR": 1.0, "DEC": 10.0, "MON": 1 / 12, "WK": 1 / 52, "DY": 1 / 365, "HR": 1 / 8760}
    factor = factors.get(unit)
    if factor is None:
        return None
    age = age * factor
    if not 0 <= age <= 150:
        return None
    return age
