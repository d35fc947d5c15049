"""Tests for ReportDataset and its transaction encoding."""

from __future__ import annotations

import time

import pytest

from repro.errors import ConfigError
from repro.faers.dataset import ReportDataset, stats_table
from repro.faers.schema import CaseReport, ReportType


def make_reports():
    return [
        CaseReport.build("c1", ["A", "B"], ["X"], quarter="2014Q1"),
        CaseReport.build("c2", ["A"], ["X", "Y"], quarter="2014Q1"),
        CaseReport.build(
            "c3", ["C"], ["Z"], quarter="2014Q1", report_type=ReportType.PERIODIC
        ),
    ]


class TestReportDataset:
    def test_len_iter_getitem(self):
        dataset = ReportDataset(make_reports())
        assert len(dataset) == 3
        assert dataset[0].case_id == "c1"
        assert [r.case_id for r in dataset] == ["c1", "c2", "c3"]

    def test_duplicate_case_ids_rejected(self):
        reports = [
            CaseReport.build("c1", ["A"], ["X"]),
            CaseReport.build("c1", ["B"], ["Y"]),
        ]
        with pytest.raises(ConfigError, match="duplicate case ids"):
            ReportDataset(reports)

    def test_duplicate_case_id_check_is_linear(self):
        reports = [
            CaseReport.build(f"c{i}", ["A"], ["X"]) for i in range(50_000)
        ]
        reports.append(CaseReport.build("c31337", ["B"], ["Y"]))
        start = time.perf_counter()
        with pytest.raises(ConfigError, match=r"\['c31337'\]"):
            ReportDataset(reports)
        assert time.perf_counter() - start < 2.0

    def test_quarter_inferred_when_uniform(self):
        assert ReportDataset(make_reports()).quarter == "2014Q1"

    def test_quarter_not_inferred_when_mixed(self):
        reports = [
            CaseReport.build("c1", ["A"], ["X"], quarter="2014Q1"),
            CaseReport.build("c2", ["A"], ["X", "Y"], quarter="2014Q2"),
        ]
        assert ReportDataset(reports).quarter == ""

    def test_stats_row(self):
        stats = ReportDataset(make_reports()).stats()
        assert stats.n_reports == 3
        assert stats.n_drugs == 3
        assert stats.n_adrs == 3
        assert stats.quarter == "2014Q1"

    def test_filter_report_type(self):
        dataset = ReportDataset(make_reports())
        expedited = dataset.filter_report_type(ReportType.EXPEDITED)
        assert {r.case_id for r in expedited} == {"c1", "c2"}

    def test_filter_quarter(self):
        reports = [
            CaseReport.build("c1", ["A"], ["X"], quarter="2014Q1"),
            CaseReport.build("c2", ["A"], ["X", "Y"], quarter="2014Q2"),
        ]
        filtered = ReportDataset(reports).filter_quarter("2014Q2")
        assert len(filtered) == 1
        assert filtered.quarter == "2014Q2"

    def test_mentioning_drug(self):
        dataset = ReportDataset(make_reports())
        assert {r.case_id for r in dataset.mentioning_drug("A")} == {"c1", "c2"}
        assert len(dataset.mentioning_drug("GHOST")) == 0

    def test_stats_table_multiquarter(self):
        q1 = ReportDataset([CaseReport.build("a", ["D"], ["X"], quarter="2014Q1")])
        q2 = ReportDataset([CaseReport.build("b", ["D"], ["X"], quarter="2014Q2")])
        rows = stats_table([q1, q2])
        assert [row.quarter for row in rows] == ["2014Q1", "2014Q2"]


class TestEncoding:
    def test_kinds_assigned(self):
        encoded = ReportDataset(make_reports()).encode()
        catalog = encoded.catalog
        assert catalog.kind_of(catalog.id("A")) == "drug"
        assert catalog.kind_of(catalog.id("X")) == "adr"

    def test_transactions_match_reports(self):
        encoded = ReportDataset(make_reports()).encode()
        catalog = encoded.catalog
        assert encoded.database[0] == catalog.encode(["A", "B", "X"])

    def test_case_id_linkage(self):
        encoded = ReportDataset(make_reports()).encode()
        assert encoded.case_id_of(1) == "c2"
        assert encoded.report_of(2).drugs == ("C",)

    def test_supporting_reports(self):
        encoded = ReportDataset(make_reports()).encode()
        catalog = encoded.catalog
        supporting = encoded.supporting_reports(catalog.encode(["A", "X"]))
        assert [r.case_id for r in supporting] == ["c1", "c2"]

    def test_drug_adr_label_collision_disambiguated(self):
        # "PAIN" as both a (bizarre) drug name and an ADR term.
        reports = [
            CaseReport.build("c1", ["PAIN"], ["NAUSEA"]),
            CaseReport.build("c2", ["ASPIRIN"], ["PAIN"]),
        ]
        encoded = ReportDataset(reports).encode()
        catalog = encoded.catalog
        assert catalog.kind_of(catalog.id("PAIN")) == "drug"
        assert catalog.kind_of(catalog.id("PAIN (REACTION)")) == "adr"

    def test_parallel_sequence_mismatch_rejected(self):
        from repro.faers.dataset import EncodedDataset

        encoded = ReportDataset(make_reports()).encode()
        with pytest.raises(ConfigError, match="parallel"):
            EncodedDataset(encoded.database, ("only-one",), encoded._reports)
