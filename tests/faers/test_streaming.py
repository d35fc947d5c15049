"""Streaming tier equivalence: lazy APIs are byte-identical to one-shot.

The capacity testbed's whole value rests on one promise: consuming the
pipeline lazily — :meth:`iter_reports`, :func:`iter_quarter`, an
``Iterable`` into :meth:`ReportCleaner.clean`, chunked
:func:`encode_stream` — produces *exactly* what the materialized path
produces, for any seed and any chunk size. These tests pin that promise:
reports, :class:`CleaningStats`, catalogs, transactions, case-id
linkage, and the exported result bytes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, MiningError
from repro.faers import (
    CaseReport,
    ReportCleaner,
    ReportDataset,
    SyntheticConfig,
    SyntheticFAERSGenerator,
    encode_stream,
    iter_chunks,
    iter_quarter,
    iter_year,
    parse_quarter,
    quarter_sequence,
    write_quarter_files,
)
from repro.faers.ingest import StreamEncoder
from repro.faers.synthetic import generate_year
from repro.mining.transactions import ItemCatalog

SEED_GRID = (1, 7, 42, 2014, 99991)


def small_config(seed: int, n_reports: int = 1200) -> SyntheticConfig:
    return SyntheticConfig(
        n_reports=n_reports, n_drugs=80, n_adrs=30, seed=seed, quarter="2014Q1"
    )


# --- generator restartability & lazy identity --------------------------


@pytest.mark.parametrize("seed", SEED_GRID)
def test_iter_reports_matches_generate(seed):
    generator = SyntheticFAERSGenerator(small_config(seed))
    assert list(generator.iter_reports()) == generator.generate()


@pytest.mark.parametrize("seed", SEED_GRID)
def test_generate_is_restartable(seed):
    """Every consumption replays the same stream — no hidden RNG drift."""
    generator = SyntheticFAERSGenerator(small_config(seed, n_reports=300))
    first = generator.generate()
    assert generator.generate() == first
    assert list(generator.iter_reports()) == first


def test_interleaved_iterators_are_independent():
    generator = SyntheticFAERSGenerator(small_config(5, n_reports=100))
    a, b = generator.iter_reports(), generator.iter_reports()
    merged_a = [next(a) for _ in range(50)]
    merged_b = list(b)
    merged_a.extend(a)
    assert merged_a == merged_b


def test_iter_year_matches_generate_year():
    streamed = list(iter_year(scale=0.01))
    chained = [r for q in sorted(generate_year(scale=0.01)) for r in generate_year(scale=0.01)[q]]
    assert streamed == chained


def test_quarter_sequence_labels_roll_over_years():
    labels = [q for q, _ in quarter_sequence(6, reports_per_quarter=10)]
    assert labels == ["2014Q1", "2014Q2", "2014Q3", "2014Q4", "2015Q1", "2015Q2"]


def test_quarter_sequence_rejects_zero_quarters():
    with pytest.raises(ConfigError):
        list(quarter_sequence(0))


# --- cleaning accepts generators, preserves first-seen order -----------


@pytest.mark.parametrize("seed", SEED_GRID)
def test_clean_generator_matches_list(seed):
    generator = SyntheticFAERSGenerator(small_config(seed))
    from_list, stats_list = ReportCleaner().clean(generator.generate())
    from_stream, stats_stream = ReportCleaner().clean(generator.iter_reports())
    assert from_stream == from_list
    assert stats_stream == stats_list


def test_clean_first_seen_order_contract():
    """A case claims its slot at its first usable row, merges in place."""
    rows = [
        CaseReport.build("B", {"DRUG1"}, {"ADR1"}),
        CaseReport.build("A", {"DRUG2"}, {"ADR2"}),
        CaseReport.build("B", {"DRUG3"}, {"ADR3"}),  # follow-up: merges, no move
        CaseReport.build("C", {"DRUG4"}, {"ADR4"}),
    ]
    cleaned, stats = ReportCleaner().clean(iter(rows))
    assert [r.case_id for r in cleaned] == ["B", "A", "C"]
    assert cleaned[0].drugs == ("DRUG1", "DRUG3")
    assert stats.cases_merged == 1


def test_parse_quarter_first_seen_order_under_generator(tmp_path):
    generator = SyntheticFAERSGenerator(small_config(3, n_reports=200))
    files = write_quarter_files(generator.generate(), tmp_path)
    streamed = list(
        iter_quarter(files.demo, files.drug, files.reac, quarter="2014Q1")
    )
    materialized, stats = parse_quarter(
        files.demo, files.drug, files.reac, quarter="2014Q1"
    )
    assert streamed == materialized
    assert stats.reports == len(materialized)
    # First-seen DEMO-row order: case ids come out in file order.
    demo_order = []
    seen = set()
    with open(files.demo, encoding="latin-1") as handle:
        header = handle.readline().rstrip("\n").split("$")
        key_col = header.index("primaryid")
        for line in handle:
            key = line.split("$")[key_col].strip()
            if key and key not in seen:
                seen.add(key)
                demo_order.append(key)
    parsed_ids = [r.case_id for r in materialized]
    assert parsed_ids == [k for k in demo_order if k in set(parsed_ids)]


# --- streaming encode equivalence --------------------------------------


def one_shot(reports):
    cleaned, stats = ReportCleaner().clean(list(reports))
    return ReportDataset(cleaned, quarter="2014Q1").encode(), stats


def assert_equivalent(result, encoded, stats):
    assert list(result.database) == list(encoded.database)
    assert list(result.catalog) == list(encoded.catalog)
    assert [result.catalog.kind_of(i) for i in range(len(result.catalog))] == [
        encoded.catalog.kind_of(i) for i in range(len(encoded.catalog))
    ]
    assert result.case_ids == [
        encoded.case_id_of(t) for t in range(len(encoded.database))
    ]
    assert result.cleaning_stats == stats
    assert result.database.item_masks() == encoded.database.item_masks()


@pytest.mark.parametrize("seed", SEED_GRID)
@pytest.mark.parametrize("chunk_size", (1, 97, 4096))
def test_encode_stream_matches_one_shot(seed, chunk_size):
    generator = SyntheticFAERSGenerator(small_config(seed))
    encoded, stats = one_shot(generator.generate())
    result = encode_stream(generator.iter_reports(), chunk_size=chunk_size)
    assert_equivalent(result, encoded, stats)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    chunk_size=st.integers(min_value=1, max_value=700),
)
def test_encode_stream_chunk_size_is_invisible(seed, chunk_size):
    """Property: any chunking of any stream gives the one-shot result."""
    generator = SyntheticFAERSGenerator(small_config(seed, n_reports=400))
    encoded, stats = one_shot(generator.generate())
    result = encode_stream(generator.iter_reports(), chunk_size=chunk_size)
    assert_equivalent(result, encoded, stats)


def test_encode_stream_list_input_unchanged():
    generator = SyntheticFAERSGenerator(small_config(11))
    reports = generator.generate()
    encoded, stats = one_shot(reports)
    result = encode_stream(reports, chunk_size=256)
    assert_equivalent(result, encoded, stats)
    assert reports == generator.generate()  # input not consumed/mutated


def test_encode_stream_collision_repair():
    """A drug arriving after its colliding ADR repairs the catalog in place."""
    rows = [
        CaseReport.build("c1", {"ASPIRIN"}, {"NAUSEA", "WARFARIN"}),
        CaseReport.build("c2", {"WARFARIN"}, {"HEADACHE"}),
        CaseReport.build("c3", {"ASPIRIN", "WARFARIN"}, {"WARFARIN", "RASH"}),
    ]
    encoded, stats = one_shot(rows)
    for chunk_size in (1, 2, 10):
        result = encode_stream(iter(rows), chunk_size=chunk_size)
        assert_equivalent(result, encoded, stats)
    assert "WARFARIN (REACTION)" in encode_stream(iter(rows)).catalog


def test_encode_stream_follow_up_merges_in_place():
    rows = [
        CaseReport.build("c1", {"DRUG1"}, {"ADR1"}),
        CaseReport.build("c2", {"DRUG2"}, {"ADR2"}),
        CaseReport.build("c1", {"DRUG3"}, {"ADR3"}),  # follow-up for c1
    ]
    result = encode_stream(iter(rows), chunk_size=1)
    assert result.case_ids == ["c1", "c2"]
    labels = {result.catalog.label(i) for i in result.database[0]}
    assert labels == {"DRUG1", "DRUG3", "ADR1", "ADR3"}
    assert result.cleaning_stats.cases_merged == 1


def test_encode_stream_reports_match_cleaner():
    generator = SyntheticFAERSGenerator(small_config(13, n_reports=300))
    cleaned, _ = ReportCleaner().clean(generator.generate())
    result = encode_stream(generator.iter_reports(), chunk_size=64)
    assert result.reports == cleaned


def _row(case_id, drugs, adrs):
    return CaseReport.build(case_id, drugs, adrs, quarter="2014Q1")


FOLLOW_UP_STREAMS = {
    # (i) a follow-up makes a case an exact duplicate of an earlier case
    "merge-into-duplicate": [
        _row("a", ["D1"], ["R1", "R2"]),
        _row("b", ["D1"], ["R1"]),
        _row("c", ["D2"], ["R3"]),
        _row("b", ["D1"], ["R2"]),
    ],
    # (i) ...and the converse: a first-sight duplicate made distinct
    "merge-out-of-duplicate": [
        _row("a", ["D1"], ["R1"]),
        _row("b", ["D1"], ["R1"]),
        _row("c", ["D3"], ["R3"]),
        _row("b", ["D2"], ["R1"]),
    ],
    # (ii) a follow-up adds to an early row an item first seen later
    "back-fill-later-item": [
        _row("a", ["D1"], ["R1"]),
        _row("b", ["D2"], ["R2"]),
        _row("a", ["D2"], ["R1"]),
    ],
    # (ii) ...or an item no row has carried yet
    "back-fill-new-item": [
        _row("a", ["D1"], ["R1"]),
        _row("b", ["D2"], ["R2"]),
        _row("a", ["D3"], ["R4"]),
        _row("c", ["D3"], ["R1"]),
    ],
}


@pytest.mark.parametrize("name", sorted(FOLLOW_UP_STREAMS))
def test_encode_stream_follow_ups_match_one_shot(name):
    """Follow-up versions the in-place encoding cannot absorb still give
    exactly the one-shot clean → encode result, at any chunking."""
    rows = FOLLOW_UP_STREAMS[name]
    encoded, stats = one_shot(rows)
    cleaned, _ = ReportCleaner().clean(rows)
    for chunk_size in (1, 2, len(rows)):
        result = encode_stream(iter(rows), chunk_size=chunk_size)
        assert_equivalent(result, encoded, stats)
        assert result.reports == cleaned


def test_iter_chunks_shapes():
    chunks = list(iter_chunks(iter(range(10)), 4))
    assert chunks == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
    assert list(iter_chunks(iter(()), 4)) == []
    with pytest.raises(ConfigError):
        list(iter_chunks(iter(range(3)), 0))


def test_stream_encoder_incremental_chunks_accumulate():
    generator = SyntheticFAERSGenerator(small_config(17, n_reports=500))
    encoded, stats = one_shot(generator.generate())
    encoder = StreamEncoder()
    for chunk in iter_chunks(generator.iter_reports(), 128):
        encoder.ingest_chunk(chunk)
    result = encoder.finish()
    assert result.n_chunks == 4
    assert_equivalent(result, encoded, stats)


# --- near-dedup accepts generators, keeps input order -------------------


def test_near_duplicates_generator_matches_list():
    from repro.faers import find_near_duplicates, resolve_near_duplicates

    generator = SyntheticFAERSGenerator(small_config(23, n_reports=400))
    reports = generator.generate()
    assert find_near_duplicates(generator.iter_reports(), min_items=3) == (
        find_near_duplicates(reports, min_items=3)
    )
    kept_stream, pairs_stream = resolve_near_duplicates(
        generator.iter_reports(), min_items=3
    )
    kept_list, pairs_list = resolve_near_duplicates(reports, min_items=3)
    assert kept_stream == kept_list
    assert pairs_stream == pairs_list
    # Survivors keep input order: the dropped index of a pair is always
    # the later stream position.
    positions = {id(r): i for i, r in enumerate(reports)}
    kept_positions = [positions[id(r)] for r in kept_list if id(r) in positions]
    assert kept_positions == sorted(kept_positions)


# --- catalog rename (the collision-repair primitive) --------------------


def test_rename_label_keeps_id_and_kind():
    catalog = ItemCatalog()
    item = catalog.add("NAUSEA", "adr")
    catalog.add("ASPIRIN", "drug")
    catalog.rename_label(item, "NAUSEA (REACTION)")
    assert catalog.label(item) == "NAUSEA (REACTION)"
    assert catalog.kind_of(item) == "adr"
    assert catalog.id("NAUSEA (REACTION)") == item
    assert "NAUSEA" not in catalog


def test_rename_label_rejects_existing_label_and_bad_id():
    catalog = ItemCatalog()
    a = catalog.add("A")
    catalog.add("B")
    with pytest.raises(MiningError):
        catalog.rename_label(a, "B")
    with pytest.raises(Exception):
        catalog.rename_label(99, "C")
    catalog.rename_label(a, "A")  # no-op rename is fine
    assert catalog.label(a) == "A"
