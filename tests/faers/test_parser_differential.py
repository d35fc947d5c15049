"""Differential test: the positional parser against the dict-per-row oracle.

Hypothesis writes ragged ``$`` quarters — shuffled and re-cased headers,
``primaryid``/``isr`` key layouts with per-row fallback, the
``sex``/``gndr_cod`` and ``occr_country``/``reporter_country`` variants,
missing optional columns, short rows, blank and whitespace-only lines,
CRLF endings, superseding DEMO versions, orphan DRUG/REAC rows — and,
in some examples, one structural fault. :func:`repro.faers.parser.
parse_quarter` must return reports and :class:`ParseStats` equal to
:mod:`tests.faers.parser_oracle`'s, or raise the same
:class:`~repro.errors.ParseError` (message, path and line number).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParseError
from repro.faers import SyntheticConfig, SyntheticFAERSGenerator, write_quarter_files
from repro.faers.parser import parse_quarter, read_delimited
from repro.faers.schema import CaseReport, ReportType
from tests.faers import parser_oracle

DEMO_KEYS = ["1", "2", "3", "4", "5", " 3 ", "2 "]
# DRUG/REAC keys reach past the DEMO keys, so some rows are orphans.
LINKED_KEYS = DEMO_KEYS + ["8"]

VALUES = {
    "rept_cod": ["EXP", "PER", "DIR", "30DAY", "5day", "", " exp ", "XYZ"],
    "age": ["", "64", "6", "0", "150", "151", "-1", "1.5", "UNK", "nan", " 40 "],
    "age_cod": ["", "YR", "MON", "wk", "DY", "DEC", "HR", "XX"],
    "sex": ["F", "M", "", " UNK "],
    "gndr_cod": ["F", "M", ""],
    "occr_country": ["US", "GB", "", " DE "],
    "reporter_country": ["FR", ""],
    "event_dt": ["", "20140317", "201403", "2014", "20141345", "notadate", " 20140101 "],
    "caseid": ["1", "", "77"],
    "drug_seq": ["1", "2", ""],
    "role_cod": ["PS", "SS", ""],
    "drugname": ["ASPIRIN", " WARFARIN ", "aspirin", "", "  ", "NEXIUM 40MG", "É"],
    "pt": ["PAIN", " ASTHMA ", "", "pain", "HAEMORRHAGE"],
}
OPTIONAL = {
    "demo": [
        "caseid", "rept_cod", "age", "age_cod", "sex", "gndr_cod",
        "occr_country", "reporter_country", "event_dt",
    ],
    "drug": ["drug_seq", "role_cod", "drugname"],
    "reac": ["pt"],
}
FAULTS = ["long_row", "no_key_row", "no_key_column", "duplicate_column", "blank_header"]


@st.composite
def table(draw, kind: str, fault: str | None) -> str:
    """One ``$`` file's text; ``fault`` names a structural error to plant."""
    keys = DEMO_KEYS if kind == "demo" else LINKED_KEYS
    layout = draw(st.sampled_from(["primaryid", "isr", "both"]))
    key_columns = ["primaryid", "isr"] if layout == "both" else [layout]
    if fault == "no_key_column":
        key_columns = ["caseno"]
    optional = [c for c in OPTIONAL[kind] if draw(st.sampled_from([True] * 7 + [False]))]
    columns = draw(st.permutations(key_columns + optional))
    width = len(columns)
    key_at = max(columns.index(c) for c in key_columns)

    rows = []
    # DRUG/REAC carry several rows per case, DEMO about one per version.
    for _ in range(draw(st.sampled_from(range(11 if kind == "demo" else 30)))):
        row = []
        for column in columns:
            if column == "primaryid" and layout == "both":
                # An empty primaryid falls back to the row's isr.
                row.append(draw(st.sampled_from(keys + [""])))
            elif column in ("primaryid", "isr", "caseno"):
                row.append(draw(st.sampled_from(keys)))
            else:
                row.append(draw(st.sampled_from(VALUES[column])))
        # Short rows are padded; never cut into the key columns.
        cut = draw(st.sampled_from([width] * 4 + list(range(key_at + 1, width))))
        rows.append(row[:cut])

    if fault == "long_row":
        extra = draw(st.integers(1, 2))
        rows.insert(
            draw(st.integers(0, len(rows))), [draw(st.sampled_from(keys))] * (width + extra)
        )
    elif fault == "no_key_row":
        rows.insert(draw(st.integers(0, len(rows))), [""] * width)

    header = [draw(st.sampled_from([c, c.upper(), f" {c} "])) for c in columns]
    if fault == "duplicate_column":
        header.append(draw(st.sampled_from(header)).strip().upper())
    lines = ["$".join(header) if fault != "blank_header" else draw(st.sampled_from(["", "  "]))]
    for row in rows:
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
        lines.append("$".join(row))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(lines) + draw(st.sampled_from([ending, ""]))


@st.composite
def quarters(draw):
    """Texts of a DEMO, DRUG and REAC file, plus the parse arguments."""
    fault = draw(st.sampled_from([None] * 10 + FAULTS))
    faulty = draw(st.sampled_from(["demo", "drug", "reac"]))
    texts = tuple(
        draw(table(kind, fault if kind == faulty else None))
        for kind in ("demo", "drug", "reac")
    )
    report_types = draw(
        st.sampled_from(
            [
                None,
                None,
                frozenset({ReportType.EXPEDITED}),
                frozenset({ReportType.PERIODIC, ReportType.DIRECT}),
                frozenset(),
            ]
        )
    )
    quarter = draw(st.sampled_from(["", "2014Q1"]))
    return texts, report_types, quarter


def write_quarter(directory: Path, texts) -> tuple[Path, Path, Path]:
    paths = tuple(directory / name for name in ("DEMO.txt", "DRUG.txt", "REAC.txt"))
    for path, text in zip(paths, texts):
        path.write_bytes(text.encode("latin-1"))
    return paths


def outcome(parse, *args, **kwargs):
    """A call's result, or its ParseError as (message, path, line)."""
    try:
        return parse(*args, **kwargs)
    except ParseError as error:
        return ("ParseError", str(error), error.path, error.line_number)


@settings(max_examples=300, deadline=None)
@given(quarters())
def test_parse_quarter_matches_the_dict_oracle(case):
    texts, report_types, quarter = case
    with tempfile.TemporaryDirectory() as directory:
        paths = write_quarter(Path(directory), texts)
        expected = outcome(
            parser_oracle.parse_quarter, *paths, quarter=quarter, report_types=report_types
        )
        actual = outcome(parse_quarter, *paths, quarter=quarter, report_types=report_types)
        assert actual == expected
        for path in paths:
            assert outcome(lambda p: list(read_delimited(p)), path) == outcome(
                lambda p: list(parser_oracle.read_delimited(p)), path
            )


@st.composite
def single_cases(draw):
    """One case's files: every DEMO field drawn, each column maybe absent."""
    columns = ["primaryid"] + [c for c in OPTIONAL["demo"] if draw(st.booleans())]
    values = ["1"] + [draw(st.sampled_from(VALUES[c])) for c in columns[1:]]
    return (
        "$".join(columns) + "\n" + "$".join(values) + "\n",
        "primaryid$drugname\n1$A\n",
        "primaryid$pt\n1$X\n",
    )


@settings(max_examples=300, deadline=None)
@given(single_cases())
def test_demo_fields_match_the_dict_oracle(texts):
    with tempfile.TemporaryDirectory() as directory:
        paths = write_quarter(Path(directory), texts)
        assert parse_quarter(*paths) == parser_oracle.parse_quarter(*paths)


@settings(max_examples=150, deadline=None)
@given(quarters())
def test_every_parsed_report_equals_its_validated_build(case):
    texts, report_types, quarter = case
    with tempfile.TemporaryDirectory() as directory:
        paths = write_quarter(Path(directory), texts)
        try:
            reports, _ = parse_quarter(*paths, quarter=quarter, report_types=report_types)
        except ParseError:
            return
    for report in reports:
        assert report == CaseReport.build(
            report.case_id,
            report.drugs,
            report.adrs,
            report_type=report.report_type,
            quarter=report.quarter,
            age=report.age,
            sex=report.sex,
            country=report.country,
            event_date=report.event_date,
        )


def test_oracle_and_parser_agree_on_the_written_format(tmp_path):
    """A writer-produced quarter: the common case, not just ragged ones."""
    reports = SyntheticFAERSGenerator(
        SyntheticConfig(n_reports=300, n_drugs=80, n_adrs=40, seed=5, quarter="2014Q1")
    ).generate()
    paths = write_quarter_files(reports, tmp_path).as_tuple()
    expected = parser_oracle.parse_quarter(*paths, quarter="2014Q1")
    assert parse_quarter(*paths, quarter="2014Q1") == expected
    assert expected[1].reports == 300


@pytest.mark.parametrize(
    "demo_lines, line_number",
    [
        (["primaryid$sex", "1$F", "$M"], 3),  # a row with no key
        (["caseid$sex", "", "1$F"], 3),  # no key column: first data row
        (["primaryid$sex", "1$F$X"], 2),  # a row longer than the header
        (["primaryid$sex$PRIMARYID", "1$F$1"], 1),  # duplicate columns
    ],
)
def test_parse_errors_name_their_line(tmp_path, demo_lines, line_number):
    demo = tmp_path / "DEMO.txt"
    demo.write_text("\n".join(demo_lines) + "\n", encoding="latin-1")
    drug = tmp_path / "DRUG.txt"
    drug.write_text("primaryid$drugname\n1$A\n", encoding="latin-1")
    reac = tmp_path / "REAC.txt"
    reac.write_text("primaryid$pt\n1$X\n", encoding="latin-1")
    with pytest.raises(ParseError) as excinfo:
        parse_quarter(demo, drug, reac)
    assert excinfo.value.line_number == line_number
    assert excinfo.value.path == str(demo)
