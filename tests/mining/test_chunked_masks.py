"""Unit tests for the chunked (and diffset) tidset representation.

Every chunked operation in :mod:`repro.mining.bitsets` has a trivially
correct monolithic-int counterpart (``&``, ``bit_count``, subset via
``v & m == v``); these tests assert agreement on randomized masks that
straddle multiple 4096-bit blocks, plus the structural invariants the
merge relies on: no zero blocks are ever stored, and dense items are
held in diffset form.
"""

from __future__ import annotations

import random

import pytest

from repro.mining.bitsets import (
    BLOCK_BITS,
    ChunkedItemMasks,
    chunk_and,
    chunk_mask,
    chunk_popcount,
    chunk_tids,
    chunk_unmask,
)

N_BITS = 3 * BLOCK_BITS + 137  # force multi-block masks with a ragged top


def random_mask(rng: random.Random, density: float) -> int:
    mask = 0
    for bit in range(0, N_BITS, 97):  # sparse scaffold across all blocks
        if rng.random() < density:
            mask |= 1 << bit
    # a dense clump inside one block
    clump = rng.randrange(N_BITS - 64)
    mask |= rng.getrandbits(64) << clump
    return mask


@pytest.fixture(params=[7, 21, 1999])
def rng(request):
    return random.Random(request.param)


class TestChunkOps:
    def test_round_trip(self, rng):
        for density in (0.0, 0.3, 0.9):
            mask = random_mask(rng, density)
            blocks = chunk_mask(mask)
            assert chunk_unmask(blocks) == mask
            assert all(block for block in blocks.values())

    def test_and_matches_int_and(self, rng):
        for _ in range(20):
            a, b = random_mask(rng, 0.4), random_mask(rng, 0.4)
            expected = a & b
            out = chunk_and(chunk_mask(a), chunk_mask(b))
            assert chunk_unmask(out) == expected
            assert all(block for block in out.values())

    def test_popcount_matches_bit_count(self, rng):
        for _ in range(10):
            mask = random_mask(rng, 0.5)
            assert chunk_popcount(chunk_mask(mask)) == mask.bit_count()

    def test_tids_match_set_bits(self, rng):
        mask = random_mask(rng, 0.6)
        expected = [t for t in range(N_BITS + 64) if mask >> t & 1]
        assert list(chunk_tids(chunk_mask(mask))) == expected


def build_table(rng: random.Random):
    """A small item-mask table with sparse, dense, and absent items."""
    n = N_BITS
    universe = (1 << n) - 1
    masks = {
        0: random_mask(rng, 0.3),
        1: universe ^ random_mask(rng, 0.1),  # dense -> diffset form
        2: 0,
        3: 1 << (n - 1),
    }
    supports = {item: mask.bit_count() for item, mask in masks.items()}
    return ChunkedItemMasks(masks, supports, n), masks


class TestChunkedItemMasks:
    def test_dense_items_use_diffsets(self, rng):
        table, masks = build_table(rng)
        assert table.entry(1)[0] is True
        assert table.entry(0)[0] is False
        # positive() always reassembles the true tidset either way
        for item, mask in masks.items():
            assert chunk_unmask(table.positive(item)) == mask

    def test_and_item_matches_int_and(self, rng):
        table, masks = build_table(rng)
        for _ in range(10):
            v = random_mask(rng, 0.5)
            for item, mask in masks.items():
                out = table.and_item(chunk_mask(v), item)
                assert chunk_unmask(out) == v & mask
                assert all(block for block in out.values())

    def test_covers_matches_subset_test(self, rng):
        table, masks = build_table(rng)
        for item, mask in masks.items():
            # a genuine subset of the item's tidset...
            sub = mask & random_mask(rng, 0.7)
            assert table.covers(item, chunk_mask(sub))
            # ...and one poisoned with a bit outside it (when possible)
            outside = ~mask & ((1 << N_BITS) - 1)
            if outside:
                low = outside & -outside
                assert not table.covers(item, chunk_mask(sub | low))

    def test_items_by_support_is_descending_prefix_order(self, rng):
        table, _masks = build_table(rng)
        items, neg_supports = table.items_by_support()
        assert sorted(items) == [0, 1, 2, 3]
        assert neg_supports == sorted(neg_supports)
        assert [-table.support(i) for i in items] == neg_supports

    def test_unknown_item_is_empty(self, rng):
        table, _masks = build_table(rng)
        assert table.support(99) == 0
        assert table.positive(99) == {}
        assert table.and_item(chunk_mask(random_mask(rng, 0.5)), 99) == {}
