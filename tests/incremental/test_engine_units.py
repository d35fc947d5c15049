"""Unit tests of the incremental building blocks.

Each layer's in-place maintenance is checked against its from-scratch
counterpart: the growable database against a fresh encode, the
incremental cleaner against ``ReportCleaner``, the delta-restricted
miner against a filtered full mine, the encoder's rebuild triggers
against hand-built deltas that violate each in-place invariant, and
each cluster-record carry path against a one-shot run.
"""

from __future__ import annotations

import random

import pytest

from repro.core.ids import cluster_id
from repro.core.incremental import cluster_key
from repro.core.pipeline import Maras, MarasConfig
from repro.errors import ConfigError, MiningError
from repro.faers.cleaning import ReportCleaner
from repro.faers.schema import CaseReport
from repro.incremental import (
    CleaningDelta,
    IncrementalCleaner,
    IncrementalEncoder,
    IncrementalEngine,
    carry_closed_itemsets,
)
from repro.mining.bitsets import BitsetIndex, SupportOracle
from repro.mining.fpclose import fpclose
from repro.mining.transactions import (
    GrowableTransactionDatabase,
    ItemCatalog,
    TransactionDatabase,
    canonical_itemset_order,
)

from tests.incremental.streams import export_bytes, make_stream, split_schedule


def random_rows(rng, n_rows, n_items=9):
    return [
        set(rng.sample(range(n_items), rng.randint(1, 5))) for _ in range(n_rows)
    ]


def catalog_of(n_items=9):
    catalog = ItemCatalog()
    for k in range(n_items):
        catalog.add(f"i{k}", "drug" if k % 2 else "adr")
    return catalog


class TestGrowableDatabase:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_mutations_equal_fresh_encode(self, seed):
        rng = random.Random(seed)
        catalog = catalog_of()
        rows = random_rows(rng, 12)
        growable = GrowableTransactionDatabase([set(r) for r in rows[:6]], catalog)
        for row in rows[6:]:
            growable.append_row(set(row))
        # Rewrite three rows: grow one, shrink one, replace one.
        targets = rng.sample(range(len(rows)), 3)
        rows[targets[0]] = rows[targets[0]] | {rng.randrange(9)}
        shrunken = sorted(rows[targets[1]])[:-1] or [rng.randrange(9)]
        rows[targets[1]] = set(shrunken)
        rows[targets[2]] = set(rng.sample(range(9), 3))
        for tid in targets:
            growable.update_row(tid, set(rows[tid]))

        fresh = TransactionDatabase([set(r) for r in rows], catalog)
        assert list(growable) == list(fresh)
        assert growable.item_masks() == fresh.item_masks()
        for item in range(9):
            assert growable.tidset_of(frozenset([item])) == fresh.tidset_of(
                frozenset([item])
            )

    def test_update_row_reports_added_and_removed(self):
        growable = GrowableTransactionDatabase([{0, 1, 2}], catalog_of())
        added, removed = growable.update_row(0, {1, 2, 3})
        assert added == frozenset({3})
        assert removed == frozenset({0})
        # The removed item's bit is gone from its mask.
        assert 0 not in growable.item_masks()
        assert growable.tidset_of(frozenset([0])) == frozenset()

    def test_append_rejects_unknown_items(self):
        growable = GrowableTransactionDatabase([{0}], catalog_of(3))
        with pytest.raises(MiningError):
            growable.append_row({99})


class TestDeltaRestrictedMining:
    @pytest.mark.parametrize("seed", [5, 6, 7, 8, 9])
    def test_touched_mask_selects_exactly_intersecting_itemsets(self, seed):
        rng = random.Random(seed)
        database = TransactionDatabase(random_rows(rng, 14), catalog_of())
        masks = database.item_masks()
        full = fpclose(database, 2)
        touched_mask = 0
        for tid in rng.sample(range(14), 4):
            touched_mask |= 1 << tid

        def mask_of(items):
            mask = -1
            for item in items:
                mask &= masks.get(item, 0)
            return mask

        expected = {
            (fi.items, fi.support)
            for fi in full
            if mask_of(fi.items) & touched_mask
        }
        restricted = fpclose(database, 2, touched_mask=touched_mask)
        assert {(fi.items, fi.support) for fi in restricted} == expected

    def test_zero_mask_mines_nothing(self):
        database = TransactionDatabase([{0, 1}, {0, 2}], catalog_of())
        assert fpclose(database, 1, touched_mask=0) == []

    def test_negative_mask_rejected(self):
        database = TransactionDatabase([{0, 1}], catalog_of())
        with pytest.raises(ConfigError):
            fpclose(database, 1, touched_mask=-1)

    @pytest.mark.parametrize("seed", [10, 11, 12, 13])
    def test_carry_plus_restricted_partition_the_closed_family(self, seed):
        """carried ∪ re-mined == full mine, disjointly (grow-only delta)."""
        rng = random.Random(seed)
        catalog = catalog_of()
        rows = random_rows(rng, 16)
        old = TransactionDatabase([set(r) for r in rows[:12]], catalog)
        prev_closed = fpclose(old, 2)

        growable = GrowableTransactionDatabase(
            [set(r) for r in rows[:12]], catalog
        )
        touched = []
        touched_mask = 0
        grown_tid = rng.randrange(12)
        grown = rows[grown_tid] | {rng.randrange(9)}
        if grown != rows[grown_tid]:
            growable.update_row(grown_tid, set(grown))
            rows[grown_tid] = grown
            touched.append(grown_tid)
            touched_mask |= 1 << grown_tid
        for row in rows[12:]:
            tid = growable.append_row(set(row))
            touched.append(tid)
            touched_mask |= 1 << tid

        carried, _ = carry_closed_itemsets(prev_closed, growable, touched, 2)
        mined = fpclose(growable, 2, touched_mask=touched_mask)
        merged = canonical_itemset_order(carried + mined)
        full = canonical_itemset_order(
            fpclose(TransactionDatabase([set(r) for r in rows], catalog), 2)
        )
        assert merged == full
        assert len({fi.items for fi in merged}) == len(merged)

    def test_carry_filters_by_risen_threshold(self):
        catalog = catalog_of(4)
        database = GrowableTransactionDatabase(
            [{0, 1}, {0, 1}, {2}, {2}, {2}], catalog
        )
        prev_closed = fpclose(database, 2)
        carried, _ = carry_closed_itemsets(prev_closed, database, [], 3)
        assert {fi.items for fi in carried} == {frozenset({2})}


class TestIncrementalCleaner:
    @pytest.mark.parametrize("seed", [21, 22, 23])
    @pytest.mark.parametrize("n_batches", [1, 3, 5])
    def test_fold_equals_one_shot_cleaner(self, seed, n_batches):
        rows = make_stream(seed, n_cases=80)
        fractions = tuple((k + 1) / n_batches for k in range(n_batches))
        incremental = IncrementalCleaner()
        for batch in split_schedule(rows, fractions):
            incremental.ingest(batch)
        one_shot_rows, one_shot_stats = ReportCleaner().clean(rows)
        assert incremental.kept_reports() == one_shot_rows
        assert incremental.stats() == one_shot_stats

    def test_signature_flip_requests_rebuild(self):
        cleaner = IncrementalCleaner()
        cleaner.ingest(
            [
                CaseReport.build("c1", ["ASPIRIN"], ["NAUSEA"]),
                CaseReport.build("c2", ["ASPIRIN"], ["RASH"]),
            ]
        )
        delta = cleaner.ingest(
            [CaseReport.build("c2", ["ASPIRIN"], ["NAUSEA"])]
        )
        # c2 now reads ASPIRIN → {NAUSEA, RASH}; signature moved but no
        # pre-batch keeper flipped, so no rebuild is needed...
        assert delta.needs_rebuild is False
        # ...whereas a follow-up that makes a *previously distinct* case
        # collide exactly does flip the duplicate drop.
        cleaner = IncrementalCleaner()
        cleaner.ingest(
            [
                CaseReport.build("a", ["ASPIRIN"], ["NAUSEA", "RASH"]),
                CaseReport.build("b", ["ASPIRIN"], ["NAUSEA"]),
            ]
        )
        delta = cleaner.ingest([CaseReport.build("b", ["ASPIRIN"], ["RASH"])])
        assert delta.needs_rebuild is True


class TestEncoderRebuildTriggers:
    @staticmethod
    def _seeded_encoder():
        encoder = IncrementalEncoder()
        encoder.rebuild(
            [
                CaseReport.build("c1", ["ASPIRIN"], ["NAUSEA"]),
                CaseReport.build("c2", ["WARFARIN"], ["HAEMORRHAGE"]),
            ]
        )
        return encoder

    def test_drug_label_colliding_with_encoded_adr_applies_in_place(self):
        """A new drug equal to an encoded ADR renames the ADR item in place.

        The in-place result must be the encoding a rebuild over the kept
        reports produces: same catalog (labels, kinds, ids), rows and
        masks.
        """
        encoder = self._seeded_encoder()
        appended = [
            CaseReport.build("c3", ["NAUSEA"], ["RASH"]),
            CaseReport.build("c4", ["ASPIRIN"], ["NAUSEA"]),
        ]
        delta = CleaningDelta(appended=appended)
        assert encoder.rebuild_reason(delta) is None
        effect = encoder.apply(delta)
        assert effect.appended_tids == [2, 3]

        rebuilt = IncrementalEncoder()
        rebuilt.rebuild(encoder.row_reports)
        assert list(encoder.catalog) == list(rebuilt.catalog)
        assert [encoder.catalog.kind_of(i) for i in range(len(encoder.catalog))] == [
            rebuilt.catalog.kind_of(i) for i in range(len(rebuilt.catalog))
        ]
        assert list(encoder.database) == list(rebuilt.database)
        assert encoder.database.item_masks() == rebuilt.database.item_masks()
        assert "NAUSEA (REACTION)" in encoder.catalog
        assert encoder.catalog.kind_of(encoder.catalog.id("NAUSEA")) == "drug"

    def test_follow_up_adding_new_catalog_item(self):
        encoder = self._seeded_encoder()
        delta = CleaningDelta(
            updated=[
                CaseReport.build("c1", ["ASPIRIN", "IBUPROFEN"], ["NAUSEA"])
            ]
        )
        assert "new to the catalog" in encoder.rebuild_reason(delta)

    def test_follow_up_backfilling_later_item(self):
        encoder = self._seeded_encoder()
        # WARFARIN first appears in row 1; adding it to row 0 would
        # violate first-seen id order.
        delta = CleaningDelta(
            updated=[
                CaseReport.build("c1", ["ASPIRIN", "WARFARIN"], ["NAUSEA"])
            ]
        )
        assert "first seen later" in encoder.rebuild_reason(delta)

    def test_follow_up_removing_items(self):
        encoder = self._seeded_encoder()
        encoder.rebuild(
            [
                CaseReport.build("c1", ["ASPIRIN", "WARFARIN"], ["NAUSEA"]),
                CaseReport.build("c2", ["WARFARIN"], ["HAEMORRHAGE"]),
            ]
        )
        delta = CleaningDelta(
            updated=[CaseReport.build("c1", ["ASPIRIN"], ["NAUSEA"])]
        )
        assert "removes items" in encoder.rebuild_reason(delta)

    def test_in_place_growth_needs_no_rebuild(self):
        encoder = self._seeded_encoder()
        delta = CleaningDelta(
            appended=[CaseReport.build("c3", ["ASPIRIN"], ["RASH"])],
            updated=[
                CaseReport.build(
                    "c2", ["WARFARIN"], ["HAEMORRHAGE", "NAUSEA"]
                )
            ],
        )
        assert encoder.rebuild_reason(delta) is None
        effect = encoder.apply(delta)
        assert effect.touched_mask == (1 << 1) | (1 << 2)
        assert effect.appended_tids == [2]
        assert effect.updated_tids == [1]


class TestSupportOracleWarmStart:
    def test_warm_from_carries_only_delta_disjoint_entries(self):
        catalog = catalog_of()
        database = GrowableTransactionDatabase(
            [{0, 1}, {0, 1, 2}, {2, 3}], catalog
        )
        previous = SupportOracle.for_database(database)
        for items in ({0}, {0, 1}, {2}, {2, 3}, {3}):
            previous.support(frozenset(items))

        database.append_row({2, 4})
        fresh = SupportOracle(BitsetIndex(database))
        carried = fresh.warm_from(previous, invalidated=frozenset({2, 4}))
        assert carried == 3  # {0}, {0,1}, {3}; the {2}-touching keys stay cold
        # Every answer — carried or recomputed — matches ground truth.
        for items in ({0}, {0, 1}, {2}, {2, 3}, {3}, {2, 4}):
            key = frozenset(items)
            expected = sum(1 for row in database if key <= row)
            assert fresh.support(key) == expected

    def test_warm_from_never_carries_the_empty_itemset(self):
        catalog = catalog_of(2)
        database = GrowableTransactionDatabase([{0}], catalog)
        previous = SupportOracle.for_database(database)
        previous.support(frozenset())  # caches support(∅) == 1
        database.append_row({1})
        fresh = SupportOracle(BitsetIndex(database))
        fresh.warm_from(previous, invalidated=frozenset({1}))
        assert fresh.support(frozenset()) == 2


class TestConfigValidation:
    def test_incremental_requires_bitsets(self):
        with pytest.raises(ConfigError, match="use_bitsets"):
            MarasConfig(incremental=True, use_bitsets=False)

    def test_incremental_rejects_rule_space_census(self):
        with pytest.raises(ConfigError, match="count_rule_space"):
            MarasConfig(incremental=True, count_rule_space=True)

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5])
    def test_rebuild_fraction_bounds(self, fraction):
        with pytest.raises(ConfigError, match="rebuild_fraction"):
            MarasConfig(incremental_rebuild_fraction=fraction)


class TestRecordCarry:
    """Each way a cluster record crosses a batch, against a one-shot run."""

    @staticmethod
    def _rows(drugs, adrs, n, prefix):
        # Distinct filler drugs keep the rows out of one duplicate
        # signature group, so the cleaner keeps every one of them.
        return [
            CaseReport.build(
                f"{prefix}{k}", [*drugs, f"{prefix}F{k}"], adrs, quarter="2014Q1"
            )
            for k in range(n)
        ]

    @staticmethod
    def _engine(clean=False):
        return IncrementalEngine(
            MarasConfig(min_support=2, clean=clean, incremental=True)
        )

    @staticmethod
    def _record(result, drugs, adrs):
        (record,) = [
            r for r in result.records() if (r.drugs, r.adrs) == (drugs, adrs)
        ]
        return record

    def test_cluster_touched_only_at_its_adr_rebuilds_the_lift_side(self):
        base = self._rows(["D1", "D2"], ["A1"], 6, "c") + self._rows(
            ["D3"], ["B1"], 3, "e"
        )
        batch = self._rows(["D3"], ["A1"], 1, "n")
        engine = self._engine()
        before = self._record(engine.ingest(base), ("D1", "D2"), ("A1",))
        result = engine.ingest(batch)
        assert engine.last_batch_stats["rebuild_reason"] is None
        assert engine.last_batch_stats["consequents_requeried"] >= 1
        after = self._record(result, ("D1", "D2"), ("A1",))
        # Counts, labels, id and case ids carry; supp(A1) and n_total
        # moved, so the lift side was rebuilt.
        assert after.case_ids is before.case_ids
        assert after.id == before.id
        target, old = after.cluster.target.metrics, before.cluster.target.metrics
        assert (target.n_joint, target.n_antecedent) == (old.n_joint, old.n_antecedent)
        assert (old.n_consequent, old.n_total) == (6, 9)
        assert (target.n_consequent, target.n_total) == (7, 10)
        assert after.scores["confidence"] == before.scores["confidence"]
        assert after.scores["lift"] != before.scores["lift"]
        one_shot = Maras(MarasConfig(min_support=2, clean=False)).run(base + batch)
        assert export_bytes(result) == export_bytes(one_shot)

    def test_renamed_adr_label_rebuilds_the_carried_record(self):
        base = self._rows(["D1", "D2"], ["NAUSEA"], 6, "c")
        batch = self._rows(["NAUSEA"], ["RASH"], 1, "n")
        engine = self._engine()
        before = self._record(engine.ingest(base), ("D1", "D2"), ("NAUSEA",))
        result = engine.ingest(batch)
        assert engine.last_batch_stats["rebuild_reason"] is None
        adrs = ("NAUSEA (REACTION)",)
        after = self._record(result, ("D1", "D2"), adrs)
        assert after.id == cluster_id(("D1", "D2"), adrs) != before.id
        assert cluster_key(result, after.cluster) == (("D1", "D2"), adrs)
        one_shot = Maras(MarasConfig(min_support=2, clean=False)).run(base + batch)
        assert export_bytes(result) == export_bytes(one_shot)

    def test_metadata_only_follow_up_carries_every_record(self):
        base = self._rows(["D1", "D2"], ["A1"], 6, "c")
        follow_up = CaseReport.build(
            "c1", base[1].drugs, base[1].adrs, quarter="2014Q1",
            event_date="2014-02-05",
        )
        engine = self._engine(clean=True)
        (before,) = engine.ingest(base).records()
        result = engine.ingest([follow_up])
        stats = engine.last_batch_stats
        assert stats["rebuild_reason"] is None
        assert stats["n_mined"] == 0
        assert stats["artifacts_carried"] == stats["n_closed"]
        (after,) = result.records()
        assert after is before
        one_shot = Maras(MarasConfig(min_support=2, clean=True)).run(
            base + [follow_up]
        )
        assert export_bytes(result) == export_bytes(one_shot)
