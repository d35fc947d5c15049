"""Inverted and prefix indexes over run records."""

from __future__ import annotations

from itertools import combinations

import pytest

from repro.serve import PrefixTokenIndex, RunIndexes
from repro.serve.indexes import intersect_sorted, rank_positions, sort_value


def _records():
    return [
        {
            "id": "mcac-000000000001",
            "drugs": ["ASPIRIN", "WARFARIN"],
            "adrs": ["HAEMORRHAGE"],
            "support": 9,
            "confidence": 0.9,
            "lift": 5.0,
            "scores": {"exclusiveness_confidence": 0.8},
        },
        {
            "id": "mcac-000000000002",
            "drugs": ["ASPIRIN", "IBUPROFEN"],
            "adrs": ["GASTRIC ULCER", "HAEMORRHAGE"],
            "support": 4,
            "confidence": 0.5,
            "lift": 9.0,
            "scores": {"exclusiveness_confidence": 0.3},
        },
        {
            "id": "mcac-000000000003",
            "drugs": ["NEXIUM", "PREVACID", "ASPIRIN"],
            "adrs": ["BONE FRACTURE"],
            "support": 7,
            "confidence": 0.7,
            "lift": 2.0,
            "scores": {"exclusiveness_confidence": 0.5},
        },
    ]


class TestRunIndexes:
    def test_by_id_maps_every_record(self):
        records = _records()
        indexes = RunIndexes(records)
        for position, record in enumerate(records):
            assert indexes.by_id[record["id"]] == position

    def test_by_drug_and_adr_match_brute_force(self):
        records = _records()
        indexes = RunIndexes(records)
        for drug in {d for r in records for d in r["drugs"]}:
            expected = tuple(
                p for p, r in enumerate(records) if drug in r["drugs"]
            )
            assert indexes.by_drug[drug] == expected
        for adr in {a for r in records for a in r["adrs"]}:
            expected = tuple(p for p, r in enumerate(records) if adr in r["adrs"])
            assert indexes.by_adr[adr] == expected

    def test_by_pair_covers_all_antecedent_pairs(self):
        records = _records()
        indexes = RunIndexes(records)
        assert indexes.by_pair[("ASPIRIN", "WARFARIN")] == (0,)
        assert indexes.by_pair[("ASPIRIN", "NEXIUM")] == (2,)
        # every pair of every record's drugs is reachable
        for position, record in enumerate(records):
            for pair in combinations(sorted(record["drugs"]), 2):
                assert position in indexes.by_pair[pair]

    def test_order_by_is_best_first(self):
        records = _records()
        indexes = RunIndexes(records)
        assert indexes.order_by["support"] == (0, 2, 1)
        assert indexes.order_by["lift"] == (1, 0, 2)
        assert indexes.order_by["exclusiveness_confidence"] == (0, 2, 1)
        assert set(indexes.sort_keys) == {
            "support",
            "confidence",
            "lift",
            "exclusiveness_confidence",
        }

    def test_order_by_matches_rank_positions(self):
        records = _records()
        indexes = RunIndexes(records)
        for key in indexes.sort_keys:
            assert indexes.order_by[key] == tuple(
                rank_positions(records, range(len(records)), key)
            )

    def test_order_by_sorts_only_the_keys_looked_up(self):
        indexes = RunIndexes(_records())
        assert "lift" in indexes.order_by and "nope" not in indexes.order_by
        assert list(indexes.order_by) == [
            "support",
            "confidence",
            "lift",
            "exclusiveness_confidence",
        ]
        assert indexes.order_by._orders == {}
        with pytest.raises(KeyError):
            indexes.order_by["nope"]
        assert indexes.order_by["lift"] is indexes.order_by["lift"]
        assert set(indexes.order_by._orders) == {"lift"}

    def test_sort_value_falls_back_to_zero_for_unknown_score(self):
        assert sort_value(_records()[0], "not_a_score") == 0.0


class TestIntersect:
    def test_intersect_sorted(self):
        assert intersect_sorted([(0, 1, 2), (1, 2, 3)]) == [1, 2]
        assert intersect_sorted([(0, 1), (2, 3)]) == []
        assert intersect_sorted([]) == []
        assert intersect_sorted([(4, 5)]) == [4, 5]


class TestPrefixTokenIndex:
    def test_prefix_lookup_matches_any_token(self):
        index = PrefixTokenIndex(
            {
                "drug": ["ASPIRIN", "TRAGAL CITRATE"],
                "adr": ["GASTRIC ULCER", "ASTHMA"],
            }
        )
        assert index.lookup("asp") == [("drug", "ASPIRIN")]
        # second token of a multi-token label is reachable
        assert index.lookup("citr") == [("drug", "TRAGAL CITRATE")]
        assert index.lookup("ulc") == [("adr", "GASTRIC ULCER")]

    def test_kind_filter_and_cross_kind_matches(self):
        index = PrefixTokenIndex({"drug": ["ASPIRIN"], "adr": ["ASTHMA"]})
        both = index.lookup("as")
        assert ("drug", "ASPIRIN") in both and ("adr", "ASTHMA") in both
        assert index.lookup("as", kind="adr") == [("adr", "ASTHMA")]

    def test_empty_prefix_matches_nothing(self):
        index = PrefixTokenIndex({"drug": ["ASPIRIN"]})
        assert index.lookup("") == []
        assert index.lookup("   ") == []

    def test_case_insensitive(self):
        index = PrefixTokenIndex({"drug": ["AsPiRiN"]})
        assert index.lookup("ASPIR") == [("drug", "AsPiRiN")]
