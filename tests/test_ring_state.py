"""Unit tests for RingState: splits, merges, exact key accounting."""

import numpy as np
import pytest

from repro.errors import IdSpaceError, RingError
from repro.hashspace.idspace import IdSpace
from repro.sim.arcops import arc_lengths, responsible_slots
from repro.sim.state import RingState


def make_state(rng, ids=(50, 100, 200), counts_space_bits=8, n_keys=60):
    space = IdSpace(counts_space_bits)
    node_ids = np.array(ids, dtype=np.uint64)
    owners = np.arange(len(ids), dtype=np.int64)
    keys = rng.integers(0, space.size, size=n_keys, dtype=np.uint64)
    return RingState.build(space, node_ids, owners, keys, rng), keys


class TestBuild:
    def test_assignment_respects_arcs(self, rng):
        state, keys = make_state(rng)
        state.verify_invariants()
        assert state.total_remaining() == keys.size

    def test_key_in_correct_slot(self, rng):
        state, _ = make_state(rng)
        for slot in range(state.n_slots):
            pred, own = state.slot_arc(slot)
            for key in state.remaining_keys(slot).tolist():
                assert state.space.in_interval(key, pred, own)

    def test_sorted_ids(self, rng):
        state, _ = make_state(rng, ids=(200, 50, 100))
        assert state.ids.tolist() == [50, 100, 200]

    def test_duplicate_ids_rejected(self, rng):
        space = IdSpace(8)
        with pytest.raises(RingError):
            RingState.build(
                space,
                np.array([5, 5], dtype=np.uint64),
                np.array([0, 1], dtype=np.int64),
                np.array([], dtype=np.uint64),
                rng,
            )

    def test_empty_ring_rejected(self, rng):
        with pytest.raises(RingError):
            RingState.build(
                IdSpace(8),
                np.array([], dtype=np.uint64),
                np.array([], dtype=np.int64),
                np.array([], dtype=np.uint64),
                rng,
            )


class TestQueries:
    def test_slot_arc_and_gap(self, rng):
        state, _ = make_state(rng)
        assert state.slot_arc(1) == (50, 100)
        gaps = arc_lengths(state.ids, state.space.size)
        assert int(gaps[1]) == 50
        assert int(gaps[0]) == (50 - 200) % 256

    def test_owner_helpers(self, rng):
        state, _ = make_state(rng)
        assert state.slots_of_owner(1).tolist() == [1]
        assert state.main_slot_of(2) == 2


class TestInsert:
    def test_insert_acquires_exact_keys(self, rng):
        state, _ = make_state(rng)
        before = state.total_remaining()
        succ = int(responsible_slots(state.ids, [75])[0])
        expected = int(
            sum(
                1
                for k in state.remaining_keys(succ).tolist()
                if 50 < k <= 75
            )
        )
        pos, acquired = state.insert_slot(75, owner=3, is_main=True)
        assert acquired == expected
        assert state.total_remaining() == before
        assert state.counts[pos] == acquired
        state.verify_invariants()

    def test_insert_wrapping_arc(self, rng):
        state, _ = make_state(rng)
        before = state.total_remaining()
        state.insert_slot(250, owner=3, is_main=True)
        state.verify_invariants()
        assert state.total_remaining() == before

    def test_insert_collision_raises(self, rng):
        state, _ = make_state(rng)
        with pytest.raises(IdSpaceError):
            state.insert_slot(100, owner=3, is_main=True)

    def test_insert_sybil_counter(self, rng):
        state, _ = make_state(rng)
        state.insert_slot(75, owner=0, is_main=False)
        assert state.n_sybil_slots == 1


class TestRemove:
    def test_remove_merges_into_successor(self, rng):
        state, _ = make_state(rng)
        before = state.total_remaining()
        count_1 = int(state.counts[1])
        count_2 = int(state.counts[2])
        state.remove_slot(1)
        state.verify_invariants()
        assert state.total_remaining() == before
        # slot formerly at 2 is now at index 1 and holds both loads
        assert int(state.counts[1]) == count_1 + count_2

    def test_remove_last_index_wraps_to_first(self, rng):
        state, _ = make_state(rng)
        before = state.total_remaining()
        count_0 = int(state.counts[0])
        count_2 = int(state.counts[2])
        state.remove_slot(2)
        state.verify_invariants()
        assert state.total_remaining() == before
        assert int(state.counts[0]) == count_0 + count_2

    def test_cannot_remove_last_slot(self, rng):
        state, _ = make_state(rng, ids=(50,))
        with pytest.raises(RingError):
            state.remove_slot(0)

    def test_remove_owner_removes_all_slots(self, rng):
        state, _ = make_state(rng)
        state.insert_slot(75, owner=0, is_main=False)
        state.insert_slot(220, owner=0, is_main=False)
        before = state.total_remaining()
        batch = state.begin_batch_removal([0])
        assert batch.remove_owner_guarded(0) is not None
        batch.commit()
        assert state.slots_of_owner(0).size == 0
        assert state.total_remaining() == before
        state.verify_invariants()

    def test_remove_owner_of_every_slot_changes_nothing(self, rng):
        """An owner holding every slot cannot leave: the guard refuses
        before any of its slots go or any merge draws from the RNG."""
        state, _ = make_state(rng, ids=(100,), counts_space_bits=16)
        state.insert_slot(20000, owner=0, is_main=False)
        state.insert_slot(60000, owner=0, is_main=False)
        ids = state.ids.tolist()
        counts = state.counts.tolist()
        keys = [state.remaining_keys(i).tolist() for i in range(3)]
        rng_state = state.rng.bit_generator.state
        batch = state.begin_batch_removal([0])
        assert batch.remove_owner_guarded(0) is None
        batch.commit()
        assert state.ids.tolist() == ids == [100, 20000, 60000]
        assert state.counts.tolist() == counts
        assert [state.remaining_keys(i).tolist() for i in range(3)] == keys
        assert state.rng.bit_generator.state == rng_state
        state.verify_invariants()

    def test_retire_sybils_keeps_main(self, rng):
        state, _ = make_state(rng)
        state.insert_slot(75, owner=0, is_main=False)
        removed = state.retire_sybils(0)
        assert removed == 1
        assert state.slots_of_owner(0).size == 1
        assert state.is_main[state.main_slot_of(0)]
        assert state.n_sybil_slots == 0


class TestConsumption:
    def test_consume_at(self, rng):
        state, _ = make_state(rng)
        slots = np.array([0, 1], dtype=np.int64)
        amounts = np.minimum(state.counts[slots], 2)
        before = state.total_remaining()
        state.consume_at(slots, amounts)
        assert state.total_remaining() == before - int(amounts.sum())

    def test_overconsume_raises(self, rng):
        state, _ = make_state(rng)
        slots = np.array([0], dtype=np.int64)
        with pytest.raises(RingError):
            state.consume_at(slots, state.counts[slots] + 1)

    def test_split_after_consumption_uses_remaining_only(self, rng):
        state, _ = make_state(rng)
        slot = int(np.argmax(state.counts))
        consumed = int(state.counts[slot]) // 2
        state.consume_at(
            np.array([slot]), np.array([consumed], dtype=np.int64)
        )
        remaining_before = state.total_remaining()
        mid = state.space.midpoint(*state.slot_arc(slot))
        if mid != state.slot_arc(slot)[0] and not state.id_exists(mid):
            state.insert_slot(mid, owner=5, is_main=True)
        assert state.total_remaining() == remaining_before
        state.verify_invariants()


class TestMedianKey:
    def test_median_splits_remaining_in_half(self, rng):
        state, _ = make_state(rng, n_keys=200)
        slot = int(np.argmax(state.counts))
        median = state.median_key(slot)
        assert median is not None
        remaining = state.remaining_keys(slot)
        pred, _ = state.slot_arc(slot)
        below = sum(
            1
            for k in remaining.tolist()
            if state.space.in_interval(k, pred, median)
        )
        assert abs(below - remaining.size / 2) <= 1

    def test_median_none_when_too_few(self, rng):
        state, _ = make_state(rng, n_keys=0)
        assert state.median_key(0) is None
