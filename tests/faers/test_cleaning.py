"""Tests for the cleaning pass: normalization, spelling, de-duplication."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, ValidationError
from repro.faers.cleaning import (
    IncrementalCleaner,
    ReportCleaner,
    SpellingCorrector,
    _edit_distance_at_most_one,
    normalize_adr_term,
    normalize_drug_name,
)
from repro.faers.schema import CaseReport


class TestNormalizeDrugName:
    def test_uppercases_and_trims(self):
        assert normalize_drug_name("  aspirin ") == "ASPIRIN"

    def test_strips_dosage_tail(self):
        assert normalize_drug_name("ASPIRIN 81 MG") == "ASPIRIN"
        assert normalize_drug_name("NEXIUM 40MG") == "NEXIUM"

    def test_strips_form_suffixes(self):
        assert normalize_drug_name("WARFARIN SODIUM TABLETS") == "WARFARIN"
        assert normalize_drug_name("PROGRAF CAPSULES") == "PROGRAF"

    def test_strips_repeated_tails(self):
        assert normalize_drug_name("IBUPROFEN 200 MG TAB") == "IBUPROFEN"

    def test_drops_parenthetical(self):
        assert normalize_drug_name("TACROLIMUS (PROGRAF)") == "TACROLIMUS"

    def test_removes_punctuation(self):
        assert normalize_drug_name("ST. JOHN'S WORT") == "ST JOHN S WORT"

    def test_collapses_whitespace(self):
        assert normalize_drug_name("A    B") == "A B"

    def test_all_noise_becomes_empty(self):
        assert normalize_drug_name("(unknown)") == ""

    def test_keeps_hyphens(self):
        assert normalize_drug_name("co-trimoxazole") == "CO-TRIMOXAZOLE"


class TestNormalizeAdrTerm:
    def test_basic(self):
        assert normalize_adr_term(" osteonecrosis of jaw ") == "OSTEONECROSIS OF JAW"

    def test_no_dosage_stripping_for_adrs(self):
        # ADR terms may legitimately end in words the drug cleaner strips.
        assert normalize_adr_term("BLOOD SODIUM") == "BLOOD SODIUM"


class TestSpellingCorrector:
    def test_exact_match_untouched(self):
        corrector = SpellingCorrector(["ASPIRIN", "WARFARIN"])
        assert corrector.correct("ASPIRIN") == "ASPIRIN"

    def test_single_deletion_fixed(self):
        corrector = SpellingCorrector(["ASPIRIN"])
        assert corrector.correct("ASPIRN") == "ASPIRIN"

    def test_single_insertion_fixed(self):
        corrector = SpellingCorrector(["ASPIRIN"])
        assert corrector.correct("ASPIIRIN") == "ASPIRIN"

    def test_single_substitution_fixed(self):
        corrector = SpellingCorrector(["ASPIRIN"])
        assert corrector.correct("ASPIRON") == "ASPIRIN"

    def test_distance_two_untouched(self):
        corrector = SpellingCorrector(["ASPIRIN"])
        assert corrector.correct("ASPRN") == "ASPRN"

    def test_ambiguous_untouched(self):
        corrector = SpellingCorrector(["PRILOSEC", "PRILOSEG"])
        # One substitution away from both → leave as-is.
        assert corrector.correct("PRILOSEK") == "PRILOSEK"

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(ConfigError):
            SpellingCorrector([])


class TestEditDistanceAtMostOne:
    @pytest.mark.parametrize(
        ("left", "right", "expected"),
        [
            ("ABC", "ABC", True),
            ("ABC", "ABD", True),
            ("ABC", "AB", True),
            ("ABC", "ABCD", True),
            ("ABC", "AXD", False),
            ("ABC", "A", False),
            ("", "A", True),
            ("", "", True),
        ],
    )
    def test_cases(self, left, right, expected):
        assert _edit_distance_at_most_one(left, right) is expected


class TestReportCleaner:
    def test_normalization_applied(self):
        reports = [CaseReport.build("c1", ["aspirin 81 mg"], ["pain"])]
        cleaned, stats = ReportCleaner().clean(reports)
        assert cleaned[0].drugs == ("ASPIRIN",)
        assert cleaned[0].adrs == ("PAIN",)
        assert stats.reports_out == 1

    def test_case_versions_merged(self):
        reports = [
            CaseReport.build("c1", ["A"], ["X"]),
            CaseReport.build("c1", ["B"], ["Y"]),
        ]
        cleaned, stats = ReportCleaner().clean(reports)
        assert len(cleaned) == 1
        assert cleaned[0].drugs == ("A", "B")
        assert cleaned[0].adrs == ("X", "Y")
        assert stats.cases_merged == 1

    def test_exact_content_duplicates_dropped(self):
        reports = [
            CaseReport.build("c1", ["A"], ["X"]),
            CaseReport.build("c2", ["A"], ["X"]),
            CaseReport.build("c3", ["A"], ["Y"]),
        ]
        cleaned, stats = ReportCleaner().clean(reports)
        assert [r.case_id for r in cleaned] == ["c1", "c3"]
        assert stats.exact_duplicates_dropped == 1

    def test_report_emptied_by_normalization_dropped(self):
        reports = [
            CaseReport.build("c1", ["(unknown)"], ["PAIN"]),
            CaseReport.build("c2", ["ASPIRIN"], ["PAIN"]),
        ]
        cleaned, stats = ReportCleaner().clean(reports)
        assert len(cleaned) == 1
        assert stats.empty_reports_dropped == 1

    def test_misspelling_corrected_against_vocabulary(self):
        cleaner = ReportCleaner(drug_vocabulary=["ASPIRIN", "WARFARIN"])
        reports = [CaseReport.build("c1", ["ASPIRN"], ["PAIN"])]
        cleaned, stats = cleaner.clean(reports)
        assert cleaned[0].drugs == ("ASPIRIN",)
        assert stats.drug_names_corrected == 1

    def test_adr_correction_counted_separately(self):
        cleaner = ReportCleaner(adr_vocabulary=["OSTEOPOROSIS"])
        reports = [CaseReport.build("c1", ["A"], ["OSTEOPOROSI"])]
        cleaned, stats = cleaner.clean(reports)
        assert cleaned[0].adrs == ("OSTEOPOROSIS",)
        assert stats.adr_terms_corrected == 1
        assert stats.drug_names_corrected == 0

    def test_order_of_first_appearance_preserved(self):
        reports = [
            CaseReport.build("c2", ["B"], ["Y"]),
            CaseReport.build("c1", ["A"], ["X"]),
        ]
        cleaned, _ = ReportCleaner().clean(reports)
        assert [r.case_id for r in cleaned] == ["c2", "c1"]

    def test_stats_row_accounting(self):
        reports = [
            CaseReport.build("c1", ["A"], ["X"]),
            CaseReport.build("c1", ["A"], ["X"]),
            CaseReport.build("c2", ["A"], ["X"]),
        ]
        cleaned, stats = ReportCleaner().clean(reports)
        assert stats.rows_in == 3
        assert stats.reports_out == len(cleaned) == 1
        assert stats.cases_merged == 1
        assert stats.exact_duplicates_dropped == 1


class TestFirstSeenConstruction:
    """A first-seen row becomes a report built directly from its cleaned
    terms, with the checks :meth:`CaseReport.build` would apply."""

    @pytest.mark.parametrize(
        "drugs, adrs",
        [
            (("ASPIRIN", "WARFARIN"), ("PAIN",)),  # already canonical
            (("aspirin 81 mg",), ("pain",)),  # cleaning changes terms
            (("WARFARIN", "ASPIRIN"), ("PAIN",)),  # not sorted
            (("ASPIRIN", "ASPIRIN"), ("PAIN",)),  # not unique
        ],
    )
    def test_kept_report_equals_build_of_the_cleaned_terms(self, drugs, adrs):
        report = CaseReport("c1", drugs, adrs, age=40.0, event_date="2014-01-02")
        (kept,) = ReportCleaner().clean([report])[0]
        assert type(kept) is CaseReport
        assert kept == CaseReport.build(
            "c1",
            {normalize_drug_name(d) for d in drugs},
            {a.upper() for a in adrs},
            age=40.0,
            event_date="2014-01-02",
        )

    def test_kept_terms_are_the_memo_strings(self):
        # Equal strings, distinct objects, as a parser produces them.
        first = CaseReport("c1", ("".join(["ASP", "IRIN"]),), ("".join(["PA", "IN"]),))
        second = CaseReport("c2", ("".join(["ASPI", "RIN"]),), ("".join(["P", "AIN"]), "RASH"))
        assert first.drugs[0] is not second.drugs[0]
        fold = IncrementalCleaner()
        fold.ingest([first, second])
        one, two = fold.kept_reports()
        assert one.drugs[0] is two.drugs[0]
        assert one.adrs[0] is two.adrs[0]

    def test_padded_vocabulary_term_is_stripped(self):
        cleaner = ReportCleaner(drug_vocabulary=[" ASPIRIN"])
        (kept,), stats = cleaner.clean([CaseReport("c1", ("ASPIRIN",), ("PAIN",))])
        assert kept.drugs == ("ASPIRIN",)
        assert stats.drug_names_corrected == 1

    def test_blank_vocabulary_term_is_rejected(self):
        cleaner = ReportCleaner(drug_vocabulary=[" "])
        with pytest.raises(ValidationError, match="vocabulary term"):
            cleaner.clean([CaseReport("c1", ("A",), ("PAIN",))])

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"case_id": ""}, "case_id"),
            ({"age": 200.0}, "implausible age"),
            ({"event_date": "2014-13-01"}, "ISO"),
        ],
    )
    def test_scalar_checks_still_apply(self, fields, message):
        report = CaseReport(
            **{"case_id": "c1", "drugs": ("ASPIRIN",), "adrs": ("PAIN",), **fields}
        )
        with pytest.raises(ValidationError, match=message):
            IncrementalCleaner().ingest([report])
