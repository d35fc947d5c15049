"""Parser for FAERS quarterly ASCII extracts.

FDA ships each quarter as a set of ``$``-delimited text files with a
single header line. One adverse-event case is spread across DEMO (one
row per case version), DRUG (one row per drug mention) and REAC (one row
per reaction). Two layout generations exist and both are handled:

- legacy AERS (through 2012Q3): rows keyed by ``ISR``;
- modern FAERS (2012Q4 on, the paper's 2014 data): keyed by
  ``primaryid``.

:func:`parse_quarter` joins the three files into
:class:`~repro.faers.schema.CaseReport` objects. Rows that cannot be
joined (a DRUG/REAC row whose key has no DEMO row) or cases missing a
drug or a reaction are counted and skipped rather than raising — real
extracts always contain a few of these — but a *structurally* broken
file (missing key column, malformed header) raises
:class:`~repro.errors.ParseError` immediately, with the file's path and
the offending line.

Each file is read in one pass, and its header is resolved once into the
positions of the columns the join needs: the case key (``primaryid``,
with ``isr`` as each row's fallback), ``drugname``, ``pt``, and the DEMO
fields, whose alternative names (``sex``/``gndr_cod``,
``occr_country``/``reporter_country``) are chosen from the header. A
data row then costs one ``split`` and positional picks; no per-row dict
is built. The join makes every field canonical itself (stripped,
non-empty term sets, an age in [0, 150], an ISO date or ``None``), so it
constructs each report directly instead of re-validating it through
:meth:`CaseReport.build`.
"""

from __future__ import annotations

import datetime
import os
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import TextIO

from repro.errors import ParseError
from repro.faers.schema import CaseReport, ReportType
from repro.obs import get_registry
from repro.runtime import collector_paused

DELIMITER = "$"

# Report-type codes seen across extract generations; 30DAY/5DAY are the
# legacy expedited codes.
_REPORT_TYPE_CODES = {
    "EXP": ReportType.EXPEDITED,
    "30DAY": ReportType.EXPEDITED,
    "5DAY": ReportType.EXPEDITED,
    "PER": ReportType.PERIODIC,
    "DIR": ReportType.DIRECT,
}

_KEY_COLUMNS = ("primaryid", "isr")

# The DEMO fields the join reads, each as its column name and then the
# older name used when the header lacks it.
_DEMO_COLUMNS = (
    ("rept_cod",),
    ("age",),
    ("age_cod",),
    ("sex", "gndr_cod"),
    ("occr_country", "reporter_country"),
    ("event_dt",),
)

# FAERS age units: YR (default), MON, WK, DY, DEC, HR.
_AGE_FACTORS = {"YR": 1.0, "DEC": 10.0, "MON": 1 / 12, "WK": 1 / 52, "DY": 1 / 365, "HR": 1 / 8760}


class _Table:
    """One ``$`` file open for a single pass: its header, then its rows.

    Constructing it reads and checks the header line; :meth:`rows` and
    :meth:`keyed_rows` then check each data row. Every ``$`` file the
    package reads goes through these checks.
    """

    def __init__(self, handle: TextIO, path: str) -> None:
        self.path = path
        self._handle = handle
        header_line = handle.readline()
        if not header_line.strip():
            raise ParseError("empty file or blank header", path=path, line_number=1)
        self.columns = [
            c.strip().lower() for c in header_line.rstrip("\n").split(DELIMITER)
        ]
        if len(set(self.columns)) != len(self.columns):
            raise ParseError(
                f"duplicate column names in header: {self.columns}",
                path=path,
                line_number=1,
            )
        self._key_positions = [
            self.columns.index(column) for column in _KEY_COLUMNS if column in self.columns
        ]

    def position(self, *names: str) -> int | None:
        """Position of the first of ``names`` the header has, else None."""
        for name in names:
            if name in self.columns:
                return self.columns.index(name)
        return None

    def rows(self) -> Iterator[tuple[int, list[str]]]:
        """``(line number, fields)`` per non-blank data row.

        Short rows are padded with empty strings; rows *longer* than the
        header raise :class:`~repro.errors.ParseError` since that always
        means a corrupted record boundary.
        """
        width = len(self.columns)
        for line_number, line in enumerate(self._handle, start=2):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            values = line.split(DELIMITER)
            if len(values) != width:
                if len(values) > width:
                    raise ParseError(
                        f"row has {len(values)} fields but header has {width}",
                        path=self.path,
                        line_number=line_number,
                    )
                values.extend([""] * (width - len(values)))
            yield line_number, values

    def keyed_rows(self) -> Iterator[tuple[str, list[str]]]:
        """``(case key, fields)`` per data row.

        The key is the row's ``primaryid``, or its ``isr`` when that is
        empty. A file with neither column fails on its first data row;
        a row with neither value fails on its own line.
        """
        positions = self._key_positions
        for line_number, values in self.rows():
            for position in positions:
                key = values[position].strip()
                if key:
                    break
            else:
                raise self._key_error(line_number, values)
            yield key, values

    def _key_error(self, line_number: int, values: list[str]) -> ParseError:
        if not self._key_positions:
            return ParseError(
                f"file lacks a case-key column (one of {_KEY_COLUMNS}); "
                f"columns present: {sorted(self.columns)}",
                path=self.path,
                line_number=line_number,
            )
        row = dict(zip(self.columns, values))
        return ParseError(
            f"row has no case key (expected one of {_KEY_COLUMNS}): {row}",
            path=self.path,
            line_number=line_number,
        )


@contextmanager
def _open_table(path: str | os.PathLike[str]) -> Iterator[_Table]:
    path = Path(path)
    with path.open("r", encoding="latin-1") as handle:
        yield _Table(handle, str(path))


def read_delimited(path: str | os.PathLike[str]) -> Iterator[dict[str, str]]:
    """Yield one lower-cased-key dict per data row of a ``$`` file.

    The header and row checks are the parser's own: short rows are
    padded with empty strings, and rows *longer* than the header raise
    :class:`~repro.errors.ParseError`.
    """
    with _open_table(path) as table:
        for _, values in table.rows():
            yield dict(zip(table.columns, values))


@dataclass(slots=True)
class ParseStats:
    """Row accounting for one :func:`parse_quarter` run."""

    demo_rows: int = 0
    drug_rows: int = 0
    reac_rows: int = 0
    orphan_drug_rows: int = 0
    orphan_reac_rows: int = 0
    cases_without_drugs: int = 0
    cases_without_reactions: int = 0
    reports: int = 0


def iter_quarter(
    demo_path: str | os.PathLike[str],
    drug_path: str | os.PathLike[str],
    reac_path: str | os.PathLike[str],
    *,
    quarter: str = "",
    report_types: frozenset[ReportType] | None = None,
    stats: ParseStats | None = None,
) -> Iterator[CaseReport]:
    """Stream one quarter's joined case reports without materializing them.

    The generator behind :func:`parse_quarter`: reports are yielded in
    **first-seen DEMO-row order** (the order a key's first DEMO row
    appears in the file — later versions of a case supersede the row
    content but never move the case's position), one at a time, so the
    caller decides whether a list ever exists. Pass a *fresh*
    :class:`ParseStats` to receive row accounting; it is complete only
    once the generator is exhausted.

    Memory: the three-file join inherently indexes the quarter's DEMO
    rows and per-case item sets by key before emission can start (a
    case's last DRUG row may be the file's last line), so peak memory is
    O(cases in the quarter) — but the emitted ``CaseReport`` stream is
    not retained, and each case's joined state is released as it is
    yielded. Feeding a multi-quarter sequence through this
    keeps peak memory at one quarter's index, not the whole stream.
    """
    stats = stats if stats is not None else ParseStats()

    # Assigning a later version of a case keeps the key's place, so the
    # dict's order is the first-seen DEMO order.
    demographics: dict[str, list[str] | None] = {}
    with _open_table(demo_path) as table:
        # A field the header lacks is read at position -1, the empty
        # string appended to each row as it is emitted.
        positions = [table.position(*names) for names in _DEMO_COLUMNS]
        demo_fields = itemgetter(*(-1 if p is None else p for p in positions))
        for key, values in table.keyed_rows():
            stats.demo_rows += 1
            demographics[key] = values

    drugs, stats.drug_rows, stats.orphan_drug_rows = _collect_terms(
        drug_path, "drugname", demographics
    )
    reactions, stats.reac_rows, stats.orphan_reac_rows = _collect_terms(
        reac_path, "pt", demographics
    )

    for key, values in demographics.items():
        # Joined state is released as each case is emitted, so memory
        # sheds while the stream drains. Re-assigning an existing key is
        # safe while iterating.
        demographics[key] = None
        case_drugs = drugs.pop(key, None)
        case_reactions = reactions.pop(key, None)
        if not case_drugs:
            stats.cases_without_drugs += 1
            continue
        if not case_reactions:
            stats.cases_without_reactions += 1
            continue
        values.append("")
        rept_cod, age, age_cod, sex, country, event_dt = demo_fields(values)
        report_type = _REPORT_TYPE_CODES.get(
            rept_cod.strip().upper(), ReportType.EXPEDITED
        )
        if report_types is not None and report_type not in report_types:
            continue
        stats.reports += 1
        yield CaseReport(
            case_id=key,
            drugs=tuple(sorted(case_drugs)),
            adrs=tuple(sorted(case_reactions)),
            report_type=report_type,
            quarter=quarter,
            age=_parse_age(age, age_cod),
            sex=sex.strip() or None,
            country=country.strip() or None,
            event_date=_parse_event_date(event_dt),
        )
    registry = get_registry()
    if registry.enabled:
        registry.counter("faers.parse.demo_rows").inc(stats.demo_rows)
        registry.counter("faers.parse.drug_rows").inc(stats.drug_rows)
        registry.counter("faers.parse.reac_rows").inc(stats.reac_rows)
        registry.counter("faers.parse.orphan_rows").inc(
            stats.orphan_drug_rows + stats.orphan_reac_rows
        )
        registry.counter("faers.parse.incomplete_cases").inc(
            stats.cases_without_drugs + stats.cases_without_reactions
        )
        registry.counter("faers.parse.reports").inc(stats.reports)


def _collect_terms(
    path: str | os.PathLike[str], column: str, cases: dict[str, list[str] | None]
) -> tuple[dict[str, set[str]], int, int]:
    """Each known case's non-empty ``column`` values in one keyed file.

    Returns the term sets, the file's data-row count, and how many of
    those rows name a case missing from ``cases`` (orphans).
    """
    terms: dict[str, set[str]] = {}
    n_rows = n_orphans = 0
    with _open_table(path) as table:
        position = table.position(column)
        for key, values in table.keyed_rows():
            n_rows += 1
            if key not in cases:
                n_orphans += 1
                continue
            term = values[position].strip() if position is not None else ""
            if term:
                case_terms = terms.get(key)
                if case_terms is None:
                    terms[key] = {term}
                else:
                    case_terms.add(term)
    return terms, n_rows, n_orphans


@collector_paused()
def parse_quarter(
    demo_path: str | os.PathLike[str],
    drug_path: str | os.PathLike[str],
    reac_path: str | os.PathLike[str],
    *,
    quarter: str = "",
    report_types: frozenset[ReportType] | None = None,
) -> tuple[list[CaseReport], ParseStats]:
    """Join one quarter's DEMO/DRUG/REAC files into case reports.

    A ``list()`` wrapper over :func:`iter_quarter`, timed as the
    ``faers.parse`` span — callers that can consume a stream (the
    chunked ingest tier, :func:`repro.faers.ingest.encode_stream`)
    should use the generator directly and skip the materialization.

    Parameters
    ----------
    quarter:
        Label stamped onto every report (e.g. ``"2014Q1"``).
    report_types:
        Keep only these provenance types; ``None`` keeps everything. The
        paper keeps :attr:`ReportType.EXPEDITED` only.

    Returns
    -------
    (reports, stats)
        Reports in first-seen DEMO-row order, plus row accounting.
    """
    stats = ParseStats()
    with get_registry().timer("faers.parse"):
        reports = list(
            iter_quarter(
                demo_path,
                drug_path,
                reac_path,
                quarter=quarter,
                report_types=report_types,
                stats=stats,
            )
        )
    return reports, stats


def _parse_age(raw: str, unit: str) -> float | None:
    raw = raw.strip()
    if not raw:
        return None
    try:
        age = float(raw)
    except ValueError:
        return None
    factor = _AGE_FACTORS.get(unit.strip().upper() or "YR")
    if factor is None:
        return None
    age = age * factor
    if not 0 <= age <= 150:
        return None
    return age


def _parse_event_date(raw: str) -> str | None:
    """FAERS event_dt is YYYYMMDD, sometimes truncated to YYYYMM or YYYY.

    Full dates convert to ISO; partial or malformed dates become None
    (downstream temporal analysis needs day precision).
    """
    raw = raw.strip()
    if len(raw) != 8 or not raw.isdigit():
        return None
    candidate = f"{raw[:4]}-{raw[4:6]}-{raw[6:]}"
    try:
        datetime.date.fromisoformat(candidate)
    except ValueError:
        return None
    return candidate
