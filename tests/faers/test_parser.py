"""Tests for the FAERS quarterly-file parser (against written fixtures)."""

from __future__ import annotations

import pytest

from repro.errors import ParseError
from repro.faers.parser import parse_quarter, read_delimited
from repro.faers.schema import CaseReport, ReportType
from repro.obs import MetricsRegistry, use_registry


def write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="latin-1")
    return path


@pytest.fixture
def modern_quarter(tmp_path):
    """A tiny modern-layout (primaryid) quarter."""
    demo = write(
        tmp_path / "DEMO14Q1.txt",
        [
            "primaryid$caseid$rept_cod$age$age_cod$sex$occr_country",
            "1001$1$EXP$64$YR$F$US",
            "1002$2$PER$$YR$M$GB",
            "1003$3$EXP$6$MON$F$US",
            "1004$4$EXP$50$YR$M$DE",
        ],
    )
    drug = write(
        tmp_path / "DRUG14Q1.txt",
        [
            "primaryid$drug_seq$role_cod$drugname",
            "1001$1$PS$ASPIRIN",
            "1001$2$SS$WARFARIN",
            "1002$1$PS$NEXIUM",
            "1003$1$PS$IBUPROFEN",
            "1004$1$PS$PREDNISONE",  # case 1004 has a drug but no reaction
            "9999$1$PS$GHOST",  # orphan: no DEMO row
        ],
    )
    reac = write(
        tmp_path / "REAC14Q1.txt",
        [
            "primaryid$pt",
            "1001$HAEMORRHAGE",
            "1002$OSTEOPOROSIS",
            "1003$PAIN",
            "1003$ASTHMA",
            "9998$GHOST PAIN",  # orphan
        ],
    )
    return demo, drug, reac


class TestReadDelimited:
    def test_rows_as_dicts(self, tmp_path):
        path = write(tmp_path / "f.txt", ["a$b$c", "1$2$3", "4$5$6"])
        rows = list(read_delimited(path))
        assert rows == [
            {"a": "1", "b": "2", "c": "3"},
            {"a": "4", "b": "5", "c": "6"},
        ]

    def test_header_lowercased(self, tmp_path):
        path = write(tmp_path / "f.txt", ["PRIMARYID$PT", "1$X"])
        assert list(read_delimited(path)) == [{"primaryid": "1", "pt": "X"}]

    def test_short_rows_padded(self, tmp_path):
        path = write(tmp_path / "f.txt", ["a$b$c", "1$2"])
        assert list(read_delimited(path)) == [{"a": "1", "b": "2", "c": ""}]

    def test_long_rows_raise(self, tmp_path):
        path = write(tmp_path / "f.txt", ["a$b", "1$2$3"])
        with pytest.raises(ParseError, match="fields"):
            list(read_delimited(path))

    def test_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path / "f.txt", ["a$b", "1$2", "", "3$4"])
        assert len(list(read_delimited(path))) == 2

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("")
        with pytest.raises(ParseError, match="empty"):
            list(read_delimited(path))

    def test_duplicate_columns_raise(self, tmp_path):
        path = write(tmp_path / "f.txt", ["a$a", "1$2"])
        with pytest.raises(ParseError, match="duplicate"):
            list(read_delimited(path))

    def test_error_carries_location(self, tmp_path):
        path = write(tmp_path / "f.txt", ["a$b", "1$2$3"])
        with pytest.raises(ParseError) as excinfo:
            list(read_delimited(path))
        assert excinfo.value.line_number == 2
        assert str(path) in str(excinfo.value)


class TestParseQuarter:
    def test_joins_three_files(self, modern_quarter):
        reports, stats = parse_quarter(*modern_quarter, quarter="2014Q1")
        assert stats.reports == len(reports) == 3
        by_id = {r.case_id: r for r in reports}
        assert by_id["1001"].drugs == ("ASPIRIN", "WARFARIN")
        assert by_id["1001"].adrs == ("HAEMORRHAGE",)
        assert by_id["1003"].adrs == ("ASTHMA", "PAIN")

    def test_demographics_parsed(self, modern_quarter):
        reports, _ = parse_quarter(*modern_quarter, quarter="2014Q1")
        by_id = {r.case_id: r for r in reports}
        assert by_id["1001"].age == 64.0
        assert by_id["1001"].sex == "F"
        assert by_id["1001"].country == "US"
        assert by_id["1003"].age == pytest.approx(0.5)  # 6 months

    def test_quarter_stamped(self, modern_quarter):
        reports, _ = parse_quarter(*modern_quarter, quarter="2014Q1")
        assert all(r.quarter == "2014Q1" for r in reports)

    def test_report_type_filter(self, modern_quarter):
        reports, _ = parse_quarter(
            *modern_quarter,
            quarter="2014Q1",
            report_types=frozenset({ReportType.EXPEDITED}),
        )
        assert {r.case_id for r in reports} == {"1001", "1003"}

    def test_orphan_rows_counted(self, modern_quarter):
        _, stats = parse_quarter(*modern_quarter)
        assert stats.orphan_drug_rows == 1
        assert stats.orphan_reac_rows == 1

    def test_case_without_reactions_skipped(self, modern_quarter):
        _, stats = parse_quarter(*modern_quarter)
        assert stats.cases_without_reactions == 1  # case 1004

    def test_legacy_isr_layout(self, tmp_path):
        demo = write(
            tmp_path / "DEMO12Q1.TXT",
            ["ISR$CASE$rept_cod", "77$1$30DAY"],
        )
        drug = write(tmp_path / "DRUG12Q1.TXT", ["ISR$DRUGNAME", "77$ASPIRIN"])
        reac = write(tmp_path / "REAC12Q1.TXT", ["ISR$PT", "77$PAIN"])
        reports, _ = parse_quarter(demo, drug, reac)
        assert len(reports) == 1
        assert reports[0].report_type is ReportType.EXPEDITED  # 30DAY → EXP

    def test_missing_key_column_raises(self, tmp_path):
        demo = write(tmp_path / "DEMO.txt", ["caseid$rept_cod", "1$EXP"])
        drug = write(tmp_path / "DRUG.txt", ["primaryid$drugname", "1$A"])
        reac = write(tmp_path / "REAC.txt", ["primaryid$pt", "1$X"])
        with pytest.raises(ParseError, match="case-key"):
            parse_quarter(demo, drug, reac)

    def test_later_case_version_supersedes(self, tmp_path):
        demo = write(
            tmp_path / "DEMO.txt",
            ["primaryid$rept_cod$sex", "1$EXP$F", "1$EXP$M"],
        )
        drug = write(tmp_path / "DRUG.txt", ["primaryid$drugname", "1$A"])
        reac = write(tmp_path / "REAC.txt", ["primaryid$pt", "1$X"])
        reports, _ = parse_quarter(demo, drug, reac)
        assert len(reports) == 1
        assert reports[0].sex == "M"

    def test_parse_is_timed(self, modern_quarter):
        registry = MetricsRegistry()
        with use_registry(registry):
            parse_quarter(*modern_quarter)
        snapshot = registry.snapshot()
        assert [t.calls for t in snapshot.timers if t.name == "faers.parse"] == [1]
        assert snapshot.counters["faers.parse.reports"] == 3

    def test_missing_optional_columns_read_as_empty(self, tmp_path):
        demo = write(tmp_path / "DEMO.txt", ["primaryid", "1"])
        drug = write(tmp_path / "DRUG.txt", ["primaryid$drugname", "1$A"])
        reac = write(tmp_path / "REAC.txt", ["primaryid$pt", "1$X"])
        (report,), _ = parse_quarter(demo, drug, reac)
        assert report == CaseReport.build("1", ["A"], ["X"])

    def test_older_demo_column_names(self, tmp_path):
        demo = write(
            tmp_path / "DEMO.txt",
            ["primaryid$gndr_cod$reporter_country", "1$F$FR"],
        )
        drug = write(tmp_path / "DRUG.txt", ["primaryid$drugname", "1$A"])
        reac = write(tmp_path / "REAC.txt", ["primaryid$pt", "1$X"])
        (report,), _ = parse_quarter(demo, drug, reac)
        assert (report.sex, report.country) == ("F", "FR")

    def test_primaryid_falls_back_to_isr_per_row(self, tmp_path):
        demo = write(tmp_path / "DEMO.txt", ["primaryid$isr", "$77", "5$78"])
        drug = write(tmp_path / "DRUG.txt", ["isr$drugname", "77$A", "5$B"])
        reac = write(tmp_path / "REAC.txt", ["primaryid$pt", "77$X", "5$Y"])
        reports, _ = parse_quarter(demo, drug, reac)
        assert [r.case_id for r in reports] == ["77", "5"]

    def test_row_without_a_key_names_its_line(self, tmp_path):
        demo = write(tmp_path / "DEMO.txt", ["primaryid$isr", "1$1", "$"])
        drug = write(tmp_path / "DRUG.txt", ["primaryid$drugname", "1$A"])
        reac = write(tmp_path / "REAC.txt", ["primaryid$pt", "1$X"])
        with pytest.raises(ParseError, match="no case key") as excinfo:
            parse_quarter(demo, drug, reac)
        assert excinfo.value.line_number == 3

    def test_unparseable_age_is_none(self, tmp_path):
        demo = write(
            tmp_path / "DEMO.txt",
            ["primaryid$rept_cod$age$age_cod", "1$EXP$UNK$YR"],
        )
        drug = write(tmp_path / "DRUG.txt", ["primaryid$drugname", "1$A"])
        reac = write(tmp_path / "REAC.txt", ["primaryid$pt", "1$X"])
        reports, _ = parse_quarter(demo, drug, reac)
        assert reports[0].age is None


class TestEventDateParsing:
    def test_full_date_parsed(self, tmp_path):
        demo = write(
            tmp_path / "DEMO.txt",
            ["primaryid$rept_cod$event_dt", "1$EXP$20140317"],
        )
        drug = write(tmp_path / "DRUG.txt", ["primaryid$drugname", "1$A"])
        reac = write(tmp_path / "REAC.txt", ["primaryid$pt", "1$X"])
        reports, _ = parse_quarter(demo, drug, reac)
        assert reports[0].event_date == "2014-03-17"

    @pytest.mark.parametrize("raw", ["201403", "2014", "notadate", "20141345"])
    def test_partial_or_malformed_dates_become_none(self, tmp_path, raw):
        demo = write(
            tmp_path / "DEMO.txt",
            ["primaryid$rept_cod$event_dt", f"1$EXP${raw}"],
        )
        drug = write(tmp_path / "DRUG.txt", ["primaryid$drugname", "1$A"])
        reac = write(tmp_path / "REAC.txt", ["primaryid$pt", "1$X"])
        reports, _ = parse_quarter(demo, drug, reac)
        assert reports[0].event_date is None
