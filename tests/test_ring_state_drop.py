"""RingState.drop_keyless_slots: one-pass removal of slots with no keys.

A strategy round commits its retired Sybils through this primitive, so
it must equal the sequential ``remove_slot`` calls it replaces and must
refuse any drop that would move keys or empty the ring.
"""

import numpy as np
import pytest

from repro.errors import RingError
from repro.hashspace.idspace import IdSpace
from repro.sim.state import RingState
from repro.sim.view import _RoundOverlay


def ring_with_idle_sybils(seed: int = 5) -> RingState:
    """Three mains (owners 0-2) plus four Sybils; the Sybils at 75, 150
    and 240 have had all their keys consumed, the one at 30 has not."""
    rng = np.random.default_rng(seed)
    space = IdSpace(8)
    keys = rng.integers(0, space.size, size=120, dtype=np.uint64)
    state = RingState.build(
        space,
        np.array([50, 100, 200], dtype=np.uint64),
        np.arange(3, dtype=np.int64),
        keys,
        rng,
    )
    for ident, owner in ((30, 1), (75, 0), (150, 0), (240, 2)):
        state.insert_slot(ident, owner, is_main=False)
    for ident in (75, 150, 240):
        slot = int(np.searchsorted(state.ids, np.uint64(ident)))
        state.consume_at(np.array([slot]), state.counts[[slot]].copy())
    assert int(state.counts[state.ids.tolist().index(30)]) > 0
    return state


def positions(state: RingState, idents) -> list[int]:
    ids = state.ids.tolist()
    return [ids.index(i) for i in idents]


def snapshot(state: RingState) -> tuple:
    return (
        state.ids.tolist(),
        state.owner.tolist(),
        state.is_main.tolist(),
        state.counts.tolist(),
        [state.remaining_keys(i).tolist() for i in range(state.n_slots)],
        state.n_sybil_slots,
        state.rng.bit_generator.state,
    )


class TestDropKeylessSlots:
    def test_equals_sequential_removal(self):
        dropped, sequential = ring_with_idle_sybils(), ring_with_idle_sybils()
        # warm the owner index and loads cache so the drop must invalidate
        dropped.slots_of_owner(0)
        dropped.owner_loads(3)
        dropped.drop_keyless_slots(positions(dropped, (240, 75, 150)))
        for slot in sorted(positions(sequential, (75, 150, 240)),
                           reverse=True):
            assert sequential.remove_slot(slot) == 0
        assert snapshot(dropped) == snapshot(sequential)
        assert dropped.n_sybil_slots == 1
        assert dropped.slots_of_owner(0).tolist() == positions(dropped, (50,))
        assert dropped.main_slot_of(0) == positions(dropped, (50,))[0]
        assert dropped.owner_loads(3).tolist() == (
            sequential.owner_loads(3).tolist()
        )
        dropped.verify_invariants()

    def test_empty_list_is_a_no_op(self):
        state = ring_with_idle_sybils()
        before = snapshot(state)
        state.drop_keyless_slots([])
        assert snapshot(state) == before

    @pytest.mark.parametrize(
        "idents", [(30,), (75, 30)], ids=["keyed", "keyless-and-keyed"]
    )
    def test_slot_with_keys_raises_and_changes_nothing(self, idents):
        state = ring_with_idle_sybils()
        before = snapshot(state)
        with pytest.raises(RingError, match="keys"):
            state.drop_keyless_slots(positions(state, idents))
        assert snapshot(state) == before
        state.verify_invariants()

    def test_dropping_every_slot_raises(self):
        rng = np.random.default_rng(0)
        state = RingState.build(
            IdSpace(8),
            np.array([10, 90], dtype=np.uint64),
            np.arange(2, dtype=np.int64),
            np.array([], dtype=np.uint64),
            rng,
        )
        with pytest.raises(RingError, match="last slot"):
            state.drop_keyless_slots([0, 1])
        assert state.n_slots == 2
        state.drop_keyless_slots([1])
        assert state.ids.tolist() == [10]
        state.verify_invariants()

    @pytest.mark.parametrize("bad", [-1, 7])
    def test_out_of_range_position_raises(self, bad):
        state = ring_with_idle_sybils()
        with pytest.raises(RingError, match="out of range"):
            state.drop_keyless_slots([bad])


def test_round_overlay_never_drops_the_last_base_slot():
    """A round whose retirements would empty the round-start ring is not
    deferred, even when the round's new Sybils keep the merged ring
    non-empty: the drop commits before the insertion and would fail."""
    state = RingState(
        IdSpace(8),
        np.array([10, 90], dtype=np.uint64),
        np.array([0, 1], dtype=np.int64),
        np.array([False, False]),
        [np.empty(0, dtype=np.uint64)] * 2,
        np.random.default_rng(0),
    )
    overlay = _RoundOverlay(state, state.owner_loads(3))
    assert overlay.insert(50, 2) == 0
    assert overlay.retire(0) == 1
    assert overlay.retire(1) is None
    overlay.commit()
    assert state.ids.tolist() == [50, 90]
    state.verify_invariants()
