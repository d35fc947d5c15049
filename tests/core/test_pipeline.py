"""Tests for the end-to-end Maras pipeline."""

from __future__ import annotations

import pytest

from repro.core import Maras, MarasConfig, RankingMethod
from repro.core.association import SupportType
from repro.errors import ConfigError
from repro.faers.dataset import ReportDataset
from repro.faers.schema import CaseReport
from repro.obs import MetricsRegistry


class TestMarasConfig:
    def test_defaults_valid(self):
        MarasConfig()

    def test_max_drugs_floor(self):
        with pytest.raises(ConfigError):
            MarasConfig(max_drugs=1)

    def test_max_itemset_len_floor(self):
        with pytest.raises(ConfigError):
            MarasConfig(max_itemset_len=2)

    def test_min_confidence_range(self):
        with pytest.raises(ConfigError):
            MarasConfig(min_confidence=1.2)

    def test_zero_min_support_rejected(self):
        with pytest.raises(ConfigError, match="absolute min_support must be >= 1"):
            MarasConfig(min_support=0)

    def test_negative_min_support_rejected(self):
        with pytest.raises(ConfigError, match="absolute min_support must be >= 1"):
            MarasConfig(min_support=-5)

    def test_fractional_min_support_must_be_positive(self):
        with pytest.raises(ConfigError, match=r"fractional min_support must be in \(0, 1\]"):
            MarasConfig(min_support=0.0)

    def test_fractional_min_support_above_one_rejected(self):
        with pytest.raises(ConfigError, match=r"fractional min_support must be in \(0, 1\]"):
            MarasConfig(min_support=1.5)

    def test_fractional_min_support_accepted(self):
        MarasConfig(min_support=0.01)
        MarasConfig(min_support=1.0)

    def test_bool_min_support_rejected(self):
        with pytest.raises(ConfigError, match="int or float"):
            MarasConfig(min_support=True)


class TestPipelineRun:
    def test_clusters_are_multi_drug_closed_rules(self, mined_quarter):
        assert mined_quarter.clusters
        config = mined_quarter.config
        for cluster in mined_quarter.clusters:
            assert 2 <= cluster.n_drugs <= config.max_drugs

    def test_every_association_supported(self, mined_quarter):
        assert all(
            a.support_type is not SupportType.UNSUPPORTED
            for a in mined_quarter.associations
        )

    def test_min_support_respected(self, mined_quarter):
        threshold = mined_quarter.config.min_support
        for cluster in mined_quarter.clusters:
            assert cluster.target.metrics.n_joint >= threshold

    def test_rank_shortcut_uses_config(self, mined_quarter):
        ranked = mined_quarter.rank(RankingMethod.EXCLUSIVENESS_CONFIDENCE, top_k=3)
        assert len(ranked) == 3

    def test_accepts_dataset_directly(self, small_quarter_reports):
        dataset = ReportDataset(small_quarter_reports)
        result = Maras(MarasConfig(min_support=10, clean=False)).run(dataset)
        assert result.dataset is dataset

    def test_cleaning_stage_runs_when_enabled(self):
        reports = [
            CaseReport.build("c1", ["aspirin 81 mg", "warfarin"], ["haemorrhage"]),
            CaseReport.build("c1", ["ASPIRIN"], ["HAEMORRHAGE"]),  # same case
            CaseReport.build("c2", ["ASPIRIN", "WARFARIN"], ["HAEMORRHAGE"]),
            CaseReport.build("c3", ["ASPIRIN", "WARFARIN"], ["HAEMORRHAGE"]),
            CaseReport.build("c4", ["NEXIUM"], ["PAIN"]),
        ]
        result = Maras(MarasConfig(min_support=2, clean=True)).run(reports)
        assert result.cleaning_stats is not None
        assert result.cleaning_stats.cases_merged == 1
        # c1 merged; c2 content-duplicates merged c1 → dropped.
        assert len(result.dataset) < 5

    def test_dataset_input_is_cleaned_when_enabled(self):
        """Regression: wrapping reports in a ReportDataset used to bypass
        the cleaner entirely, silently skipping §5.2's preparation step."""
        reports = [
            CaseReport.build("c1", ["aspirin 81 mg", "warfarin"], ["haemorrhage"]),
            CaseReport.build(
                "c2", ["ASPIRIN", "WARFARIN TAB"], ["HAEMORRHAGE", "NAUSEA"]
            ),
            CaseReport.build(
                "c3", ["ASPIRIN", "WARFARIN"], ["HAEMORRHAGE", "RASH"]
            ),
            CaseReport.build("c4", ["NEXIUM"], ["PAIN"]),
        ]
        dataset = ReportDataset(reports)
        result = Maras(MarasConfig(min_support=3, clean=True)).run(dataset)
        assert result.cleaning_stats is not None
        # All three spellings collapse to the same canonical pair, so
        # the two-drug rule reaches support 3.
        labels = {
            result.catalog.labels(c.target.antecedent)
            for c in result.clusters
        }
        assert ("ASPIRIN", "WARFARIN") in labels

    def test_dataset_input_untouched_when_clean_disabled(self, small_quarter_reports):
        dataset = ReportDataset(small_quarter_reports)
        result = Maras(MarasConfig(min_support=10, clean=False)).run(dataset)
        assert result.dataset is dataset
        assert result.cleaning_stats is None

    def test_rule_space_counts_ordering(self, small_quarter_reports):
        """Fig 5.1's invariant: total ≥ filtered ≥ MCACs."""
        result = Maras(
            MarasConfig(min_support=8, clean=False, count_rule_space=True)
        ).run(small_quarter_reports[:800])
        counts = result.rule_counts
        assert counts is not None
        assert counts.total_rules >= counts.filtered_rules >= counts.mcacs
        assert counts.mcacs == len(result.clusters)

    def test_rule_counts_none_by_default(self, mined_quarter):
        assert mined_quarter.rule_counts is None


class TestBitsetPath:
    """The run's memoized support oracle reports its cache use."""

    def test_oracle_cache_counters_recorded(self, small_quarter_reports):
        registry = MetricsRegistry()
        Maras(
            MarasConfig(min_support=4, clean=False), registry=registry
        ).run(small_quarter_reports[:900])
        counters = registry.snapshot().counters
        # MCAC construction re-asks overlapping subset supports, so a
        # healthy cache serves a substantial share of hits.
        assert counters["oracle.support_misses"] > 0
        assert counters["oracle.support_hits"] > 0

    def test_reports_in_counted_on_dataset_passthrough(
        self, small_quarter_reports
    ):
        """Regression: a pre-built ReportDataset with clean=False used to
        skip the ``pipeline.reports_in`` counter entirely."""
        dataset = ReportDataset(small_quarter_reports)
        registry = MetricsRegistry()
        Maras(
            MarasConfig(min_support=10, clean=False), registry=registry
        ).run(dataset)
        counters = registry.snapshot().counters
        assert counters["pipeline.reports_in"] == len(dataset)


class TestSearchAndDrilldown:
    def test_search_by_drug(self, mined_quarter):
        cluster = mined_quarter.clusters[0]
        drug = mined_quarter.catalog.labels(cluster.target.antecedent)[0]
        matches = mined_quarter.search(drug=drug)
        assert cluster in matches
        assert all(
            drug in mined_quarter.catalog.labels(m.target.antecedent)
            for m in matches
        )

    def test_search_by_adr(self, mined_quarter):
        cluster = mined_quarter.clusters[0]
        adr = mined_quarter.catalog.labels(cluster.target.consequent)[0]
        matches = mined_quarter.search(adr=adr)
        assert cluster in matches

    def test_search_conjunction(self, mined_quarter):
        cluster = mined_quarter.clusters[0]
        drug = mined_quarter.catalog.labels(cluster.target.antecedent)[0]
        adr = mined_quarter.catalog.labels(cluster.target.consequent)[0]
        matches = mined_quarter.search(drug=drug, adr=adr)
        assert cluster in matches

    def test_search_unknown_term_returns_empty(self, mined_quarter):
        assert mined_quarter.search(drug="NO-SUCH-DRUG") == []

    def test_search_case_variant_query(self, mined_quarter):
        cluster = mined_quarter.clusters[0]
        drug = mined_quarter.catalog.labels(cluster.target.antecedent)[0]
        matches = mined_quarter.search(drug=drug.lower())
        assert cluster in matches

    def test_search_verbatim_query_with_dosage_tail(self, mined_quarter):
        cluster = mined_quarter.clusters[0]
        drug = mined_quarter.catalog.labels(cluster.target.antecedent)[0]
        matches = mined_quarter.search(drug=f"{drug.lower()} 81 mg")
        assert cluster in matches

    def test_search_misspelled_query_corrected(self):
        reports = [
            CaseReport.build(f"c{i}", ["ASPIRIN", "WARFARIN"], ["HAEMORRHAGE"])
            for i in range(3)
        ]
        result = Maras(MarasConfig(min_support=2, clean=False)).run(reports)
        assert result.clusters
        # One deletion ("ASPIRN") and one substitution ("ASPIRIM"): both
        # are edit distance 1 from exactly one catalog drug.
        for misspelled in ("ASPIRN", "ASPIRIM", "aspirn"):
            matches = result.search(drug=misspelled)
            assert matches == result.clusters, misspelled

    def test_search_ambiguous_misspelling_not_corrected(self):
        reports = [
            CaseReport.build(f"c{i}", ["DRUGA", "DRUGB"], ["PAIN"])
            for i in range(3)
        ]
        result = Maras(MarasConfig(min_support=2, clean=False)).run(reports)
        # "DRUGC" is distance 1 from both DRUGA and DRUGB — ambiguous,
        # so no correction and no match.
        assert result.search(drug="DRUGC") == []

    def test_search_case_variant_adr(self, mined_quarter):
        cluster = mined_quarter.clusters[0]
        adr = mined_quarter.catalog.labels(cluster.target.consequent)[0]
        matches = mined_quarter.search(adr=adr.lower())
        assert cluster in matches

    def test_search_without_criteria_rejected(self, mined_quarter):
        with pytest.raises(ConfigError):
            mined_quarter.search()

    def test_supporting_reports_contain_the_rule_items(self, mined_quarter):
        cluster = mined_quarter.clusters[0]
        labels = set(mined_quarter.catalog.labels(cluster.target.items))
        reports = mined_quarter.supporting_reports(cluster)
        assert len(reports) == cluster.target.metrics.n_joint
        for report in reports:
            assert labels <= report.items
