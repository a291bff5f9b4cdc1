"""Tests for the vectorized uint64 arc primitives."""

import numpy as np
import pytest

from repro.errors import IdSpaceError
from repro.sim.arcops import (
    arc_length,
    arc_lengths,
    count_in_arc,
    in_arc_mask,
    responsible_slots,
    slot_arc_starts,
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


class TestCountInArc:
    @pytest.mark.parametrize("bits", [8, 16, 64])
    def test_matches_mask(self, bits):
        rng = np.random.default_rng(bits)
        size = 1 << bits
        keys = rng.integers(0, size, size=200, dtype=np.uint64)
        ends = rng.integers(0, size, size=(100, 2), dtype=np.uint64).tolist()
        for start, end in ends + [[0, size - 1], [size - 1, 0], [5, 5]]:
            assert count_in_arc(keys, start, end, size) == int(
                in_arc_mask(keys, start, end).sum()
            )

    def test_boundaries(self):
        hi = 2**64 - 1
        keys = np.array([0, hi, hi - 1], dtype=np.uint64)
        assert count_in_arc(keys, hi - 1, 0, 1 << 64) == 2
        assert count_in_arc(keys, hi, hi - 1, 1 << 64) == 2
        assert count_in_arc(keys[:0], 1, 2, 1 << 64) == 0


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


class TestSlotArcStarts:
    def test_roll(self):
        ids = np.array([10, 20, 30], dtype=np.uint64)
        assert slot_arc_starts(ids).tolist() == [30, 10, 20]
