"""Tests for the FAERS quarter writer (round-trips against the parser)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.faers.parser import parse_quarter
from repro.faers.schema import CaseReport, ReportType
from repro.faers.writer import (
    quarter_file_names,
    quarter_of_demo_file,
    write_quarter_files,
)


def sample_reports():
    return [
        CaseReport.build(
            "1001",
            ["ASPIRIN", "WARFARIN"],
            ["HAEMORRHAGE"],
            quarter="2014Q1",
            age=64.0,
            sex="F",
            country="US",
        ),
        CaseReport.build(
            "1002",
            ["NEXIUM"],
            ["OSTEOPOROSIS", "PAIN"],
            quarter="2014Q1",
            report_type=ReportType.PERIODIC,
        ),
    ]


class TestQuarterFileNames:
    def test_canonical_names(self):
        assert quarter_file_names("2014Q1") == (
            "DEMO14Q1.txt",
            "DRUG14Q1.txt",
            "REAC14Q1.txt",
        )

    def test_invalid_label_rejected(self):
        for label in ("2014", "14Q1", "2014q1", "2014X1"):
            with pytest.raises(ConfigError):
                quarter_file_names(label)


class TestQuarterOfDemoFile:
    @pytest.mark.parametrize("quarter", ["2014Q1", "2012Q4", "2004Q3"])
    def test_inverts_the_canonical_names(self, tmp_path, quarter):
        demo_name = quarter_file_names(quarter)[0]
        assert quarter_of_demo_file(tmp_path / demo_name) == quarter

    def test_legacy_upper_case_names(self):
        assert quarter_of_demo_file("DEMO12Q1.TXT") == "2012Q1"

    @pytest.mark.parametrize(
        "name", ["demo.txt", "DRUG14Q1.txt", "DEMO14Q5.txt", "DEMO2014Q1.txt", "DEMO14Q1.csv"]
    )
    def test_other_names_carry_no_quarter(self, name):
        assert quarter_of_demo_file(name) == ""


class TestWriteQuarterFiles:
    def test_files_created(self, tmp_path):
        files = write_quarter_files(sample_reports(), tmp_path)
        assert files.demo.name == "DEMO14Q1.txt"
        assert all(path.exists() for path in files.as_tuple())

    def test_round_trip_via_parser(self, tmp_path):
        reports = sample_reports()
        files = write_quarter_files(reports, tmp_path)
        parsed, stats = parse_quarter(*files.as_tuple(), quarter="2014Q1")
        assert stats.reports == 2
        by_id = {report.case_id: report for report in parsed}
        assert by_id["1001"].drugs == ("ASPIRIN", "WARFARIN")
        assert by_id["1001"].age == 64.0
        assert by_id["1001"].sex == "F"
        assert by_id["1002"].report_type is ReportType.PERIODIC
        assert by_id["1002"].adrs == ("OSTEOPOROSIS", "PAIN")

    def test_quarter_inferred_from_reports(self, tmp_path):
        files = write_quarter_files(sample_reports(), tmp_path)
        assert "14Q1" in files.demo.name

    def test_explicit_quarter_overrides(self, tmp_path):
        files = write_quarter_files(sample_reports(), tmp_path, quarter="2015Q3")
        assert files.demo.name == "DEMO15Q3.txt"

    def test_mixed_quarters_require_explicit_label(self, tmp_path):
        mixed = [
            CaseReport.build("a", ["D"], ["X"], quarter="2014Q1"),
            CaseReport.build("b", ["D"], ["X", "Y"], quarter="2014Q2"),
        ]
        with pytest.raises(ConfigError, match="quarter"):
            write_quarter_files(mixed, tmp_path)
        write_quarter_files(mixed, tmp_path, quarter="2014Q1")

    def test_empty_reports_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            write_quarter_files([], tmp_path)

    def test_delimiter_in_case_id_rejected(self, tmp_path):
        bad = [CaseReport.build("a$b", ["D"], ["X"], quarter="2014Q1")]
        with pytest.raises(ConfigError, match="delimiter"):
            write_quarter_files(bad, tmp_path)


class TestEventDateRoundTrip:
    def test_event_date_survives_write_parse(self, tmp_path):
        reports = [
            CaseReport.build(
                "42",
                ["ASPIRIN"],
                ["PAIN"],
                quarter="2014Q1",
                event_date="2014-02-17",
            )
        ]
        files = write_quarter_files(reports, tmp_path)
        parsed, _ = parse_quarter(*files.as_tuple())
        assert parsed[0].event_date == "2014-02-17"

    def test_missing_event_date_round_trips_as_none(self, tmp_path):
        files = write_quarter_files(sample_reports(), tmp_path)
        parsed, _ = parse_quarter(*files.as_tuple())
        assert all(report.event_date is None for report in parsed)
