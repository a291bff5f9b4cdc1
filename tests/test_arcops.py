"""Tests for the vectorized uint64 arc primitives."""

import numpy as np
import pytest

from repro.errors import IdSpaceError, RingError
from repro.sim.arcops import (
    arc_length,
    arc_lengths,
    arc_mask,
    bucket_responsible_slots,
    in_arc_mask,
    responsible_slots,
    slot_arc_starts,
    slot_grouping,
)


class TestInArcMask:
    def test_plain(self):
        keys = np.array([5, 10, 15, 20, 25], dtype=np.uint64)
        mask = in_arc_mask(keys, 10, 20)
        assert mask.tolist() == [False, False, True, True, False]

    def test_wrapping(self):
        keys = np.array([0, 3, 100, 250, 255], dtype=np.uint64)
        mask = in_arc_mask(keys, 250, 5)
        assert mask.tolist() == [True, True, False, False, True]

    def test_full_circle(self):
        keys = np.array([1, 2, 3], dtype=np.uint64)
        assert in_arc_mask(keys, 7, 7).all()

    def test_empty_input(self):
        assert in_arc_mask(np.array([], dtype=np.uint64), 1, 2).shape == (0,)

    def test_max_uint64_boundary(self):
        hi = 2**64 - 1
        keys = np.array([0, hi, hi - 1], dtype=np.uint64)
        mask = in_arc_mask(keys, hi - 1, 0)
        assert mask.tolist() == [True, True, False]


class TestArcMask:
    @pytest.mark.parametrize("bits", [8, 16, 64])
    def test_matches_mask(self, bits):
        rng = np.random.default_rng(bits)
        size = 1 << bits
        keys = rng.integers(0, size, size=200, dtype=np.uint64)
        ends = rng.integers(0, size, size=(100, 2), dtype=np.uint64).tolist()
        for start, end in ends + [[0, size - 1], [size - 1, 0], [5, 5]]:
            assert np.array_equal(
                arc_mask(keys, start, end, size),
                in_arc_mask(keys, start, end),
            )

    def test_boundaries(self):
        hi = 2**64 - 1
        keys = np.array([0, hi, hi - 1], dtype=np.uint64)
        assert arc_mask(keys, hi - 1, 0, 1 << 64).tolist() == [
            True, True, False,
        ]
        assert arc_mask(keys, hi, hi - 1, 1 << 64).tolist() == [
            True, False, True,
        ]
        assert arc_mask(keys[:0], 1, 2, 1 << 64).size == 0


class TestArcLength:
    def test_simple(self):
        assert arc_length(10, 20, 256) == 10

    def test_wrap(self):
        assert arc_length(250, 5, 256) == 11

    def test_full(self):
        assert arc_length(9, 9, 256) == 256


class TestArcLengths:
    def test_partition_sums_to_space(self):
        ids = np.array([10, 100, 200], dtype=np.uint64)
        gaps = arc_lengths(ids, 256)
        assert int(gaps.sum()) == 256

    def test_values(self):
        ids = np.array([10, 100, 200], dtype=np.uint64)
        gaps = arc_lengths(ids, 256)
        # slot 0 covers (200, 10]: 66 ids
        assert gaps.tolist() == [66, 90, 100]

    def test_single_slot_saturates(self):
        gaps = arc_lengths(np.array([7], dtype=np.uint64), 2**64)
        assert int(gaps[0]) == 2**64 - 1

    def test_empty(self):
        assert arc_lengths(np.array([], dtype=np.uint64), 256).size == 0


class TestResponsibleSlots:
    def test_matches_bruteforce(self, rng):
        ids = np.sort(
            rng.choice(2**16, size=20, replace=False).astype(np.uint64)
        )
        keys = rng.integers(0, 2**16, size=500, dtype=np.uint64)
        got = responsible_slots(ids, keys)
        for key, slot in zip(keys.tolist(), got.tolist()):
            # brute force: first id >= key, else wrap to slot 0
            expect = next(
                (i for i, nid in enumerate(ids.tolist()) if nid >= key), 0
            )
            assert slot == expect

    def test_key_equal_to_id(self):
        ids = np.array([10, 20, 30], dtype=np.uint64)
        keys = np.array([10, 20, 30], dtype=np.uint64)
        assert responsible_slots(ids, keys).tolist() == [0, 1, 2]

    def test_wrap_to_first(self):
        ids = np.array([10, 20], dtype=np.uint64)
        keys = np.array([25, 5], dtype=np.uint64)
        assert responsible_slots(ids, keys).tolist() == [0, 0]

    def test_empty_ring_raises(self):
        with pytest.raises(IdSpaceError):
            responsible_slots(
                np.array([], dtype=np.uint64), np.array([1], dtype=np.uint64)
            )


def _edge_keys(ids, bits, rng, n_random=40_000):
    """Random keys plus the edge cases: every id, every id +- 1, keys
    above the last id, 0 and the top of the space, and duplicates."""
    top = (1 << bits) - 1
    ids_int = ids.astype(object)
    edges = [0, top, *ids_int, *(i + 1 for i in ids_int),
             *(i - 1 for i in ids_int)]
    edges = np.array([e for e in edges if 0 <= e <= top], dtype=np.uint64)
    fresh = rng.integers(0, top, size=n_random, dtype=np.uint64,
                         endpoint=True)
    keys = np.concatenate((fresh, edges, edges, fresh[:100]))
    rng.shuffle(keys)
    return keys


class TestBucketResponsibleSlots:
    """The bucketed lookup equals the plain binary search, wrap rule and
    all; enough keys are used that the bucket table is built."""

    @pytest.mark.parametrize("bits", [8, 16, 32, 48, 64])
    @pytest.mark.parametrize("n_ids", [1, 2, 37, 200])
    def test_equals_searchsorted(self, bits, n_ids):
        rng = np.random.default_rng(bits * 1000 + n_ids)
        n_ids = min(n_ids, 1 << bits)
        ids = np.sort(rng.choice(
            np.uint64((1 << bits) - 1), size=n_ids, replace=False
        ).astype(np.uint64)) if bits < 64 else np.unique(
            rng.integers(0, 2**64, size=n_ids, dtype=np.uint64)
        )
        keys = _edge_keys(ids, bits, rng)
        got = bucket_responsible_slots(ids, keys, bits)
        np.testing.assert_array_equal(got, responsible_slots(ids, keys))
        assert got.dtype == np.int32

    @pytest.mark.parametrize("bits", [8, 64])
    def test_ids_at_the_edges_of_the_space(self, bits):
        top = (1 << bits) - 1
        ids = np.array([0, 1, top - 1, top], dtype=np.uint64)
        keys = np.tile(np.array([0, 1, 2, top - 1, top], dtype=np.uint64),
                       5000)
        got = bucket_responsible_slots(ids, keys, bits)
        np.testing.assert_array_equal(got, responsible_slots(ids, keys))
        assert got[:5].tolist() == [0, 1, 2, 2, 3]

    def test_clustered_ids_refine_past_many_per_bucket(self):
        """Ids packed into one bucket take many refinement passes."""
        bits = 32
        ids = np.arange(1000, 1300, dtype=np.uint64)
        rng = np.random.default_rng(5)
        keys = np.concatenate((
            rng.integers(900, 1400, size=30_000, dtype=np.uint64),
            rng.integers(0, 2**32, size=30_000, dtype=np.uint64),
        ))
        np.testing.assert_array_equal(
            bucket_responsible_slots(ids, keys, bits),
            responsible_slots(ids, keys),
        )

    def test_few_keys_take_the_binary_search(self):
        ids = np.array([10, 20, 30], dtype=np.uint64)
        keys = np.array([25, 5, 30, 31], dtype=np.uint64)
        assert bucket_responsible_slots(ids, keys, 8).tolist() == [2, 0, 2, 0]

    def test_empty_ring_raises(self):
        with pytest.raises(IdSpaceError):
            bucket_responsible_slots(
                np.array([], dtype=np.uint64),
                np.array([1], dtype=np.uint64), 8,
            )


class TestGroupBySlot:
    """:func:`slot_grouping` equals the stable argsort, and its bounds
    count each slot's entries, on both sides of the 32-bit word."""

    @staticmethod
    def check(slot_idx, n_slots):
        order, bounds = slot_grouping(slot_idx, n_slots)
        np.testing.assert_array_equal(
            order, np.argsort(slot_idx, kind="stable")
        )
        np.testing.assert_array_equal(
            np.diff(bounds), np.bincount(slot_idx, minlength=n_slots)
        )
        return order

    @pytest.mark.parametrize("n_slots", [1, 3, 1000, 65_536, 70_000])
    def test_equals_stable_argsort(self, n_slots):
        rng = np.random.default_rng(n_slots)
        slot_idx = rng.integers(0, n_slots, size=50_000)
        # pin the extremes: the top slot's words reach the top bits
        slot_idx[:2] = (0, n_slots - 1)
        self.check(slot_idx, n_slots)

    @pytest.mark.parametrize(
        "n_slots, size, word",
        [
            (1000, 1 << 22, np.uint32),  # 10 + 22 bits: exactly 32
            (1024, (1 << 21) + 1, np.uint32),  # slot 1023 fills the top
            (1025, (1 << 21) + 1, np.uint64),  # 11 + 22 bits
            (70_000, 70_000, np.uint64),  # 17 + 17 bits
        ],
    )
    def test_word_width(self, n_slots, size, word):
        rng = np.random.default_rng(size)
        slot_idx = rng.integers(0, n_slots, size=size).astype(np.int32)
        slot_idx[-2:] = (n_slots - 1, 0)
        assert self.check(slot_idx, n_slots).dtype == word

    def test_ties_keep_input_order_in_64_bit_words(self):
        slot_idx = np.tile([70_000, 5, 70_000, 65_536, 5, 65_536], 11_000)
        order = self.check(slot_idx, 70_001)  # 17 + 17 bits
        assert order.dtype == np.uint64
        assert order[:3].tolist() == [1, 4, 7]

    def test_no_entries(self):
        order, bounds = slot_grouping(np.empty(0, dtype=np.int32), 4)
        assert order.size == 0 and bounds.tolist() == [0] * 5

    def test_words_past_64_bits_raise(self):
        with pytest.raises(RingError):
            slot_grouping(np.zeros(2, dtype=np.int32), 1 << 64)


class TestSlotArcStarts:
    def test_roll(self):
        ids = np.array([10, 20, 30], dtype=np.uint64)
        assert slot_arc_starts(ids).tolist() == [30, 10, 20]
