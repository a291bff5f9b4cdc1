"""RingState.commit_round: a strategy round's one-pass ring commit.

A round drops its retired Sybils (slots with no keys) and splices in its
new ones through this primitive, so it must equal the sequential
``remove_slot`` / ``insert_slot`` calls it replaces — ids, owners,
counts, every slot's keys in storage order, and the generator state —
and must refuse, before changing anything, any drop that would move
keys or empty the ring and any Sybil whose id is taken.
"""

from bisect import bisect_left

import numpy as np
import pytest

import repro.sim.state as state_module
from repro.errors import IdSpaceError, RingError
from repro.hashspace.idspace import IdSpace
from repro.sim.state import RingState
from repro.config import SimulationConfig
from repro.sim.owners import OwnerRegistry
from repro.sim.view import SimView


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
        state.provenance.tolist(),
        [state.remaining_keys(i).tolist() for i in range(state.n_slots)],
        state.n_sybil_slots,
        state.rng.bit_generator.state,
    )


def sequential(state: RingState, dead, sybils: dict[int, int], order) -> None:
    """The per-call equivalent: drop each dead slot, then insert each
    Sybil, in the given order."""
    for slot in sorted(dead, reverse=True):
        assert state.remove_slot(slot) == 0
    for ident in order:
        state.insert_slot(ident, sybils[ident], is_main=False)


def assert_same_ring(one: RingState, ref: RingState, n_owners: int) -> None:
    assert snapshot(one) == snapshot(ref)
    one.verify_invariants()
    for owner in range(n_owners):
        assert one.slots_of_owner(owner).tolist() == (
            ref.slots_of_owner(owner).tolist()
        )
    assert one.owner_loads(n_owners).tolist() == (
        ref.owner_loads(n_owners).tolist()
    )


class TestDropKeylessSlots:
    def test_equals_sequential_removal(self):
        dropped, sequential_ = ring_with_idle_sybils(), ring_with_idle_sybils()
        # warm the owner index and loads cache so the drop must invalidate
        dropped.slots_of_owner(0)
        dropped.owner_loads(3)
        dropped.commit_round(positions(dropped, (240, 75, 150)), {})
        for slot in sorted(positions(sequential_, (75, 150, 240)),
                           reverse=True):
            assert sequential_.remove_slot(slot) == 0
        assert snapshot(dropped) == snapshot(sequential_)
        assert dropped.n_sybil_slots == 1
        assert dropped.slots_of_owner(0).tolist() == positions(dropped, (50,))
        assert dropped.main_slot_of(0) == positions(dropped, (50,))[0]
        assert dropped.owner_loads(3).tolist() == (
            sequential_.owner_loads(3).tolist()
        )
        dropped.verify_invariants()

    def test_empty_list_is_a_no_op(self):
        state = ring_with_idle_sybils()
        before = snapshot(state)
        state.commit_round([], {})
        assert snapshot(state) == before

    @pytest.mark.parametrize(
        "idents", [(30,), (75, 30)], ids=["keyed", "keyless-and-keyed"]
    )
    def test_slot_with_keys_raises_and_changes_nothing(self, idents):
        state = ring_with_idle_sybils()
        before = snapshot(state)
        with pytest.raises(RingError, match="keys"):
            state.commit_round(positions(state, idents), {10: 1})
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
        # even when the round's new Sybils would keep the ring non-empty
        with pytest.raises(RingError, match="last slot"):
            state.commit_round([0, 1], {50: 0})
        assert state.n_slots == 2
        state.commit_round([1], {})
        assert state.ids.tolist() == [10]
        state.verify_invariants()

    @pytest.mark.parametrize("bad", [-1, 7])
    def test_out_of_range_position_raises(self, bad):
        state = ring_with_idle_sybils()
        before = snapshot(state)
        with pytest.raises(RingError, match="out of range"):
            state.commit_round([bad], {10: 1})
        assert snapshot(state) == before


def random_round(seed: int):
    """A seeded ring with keyed and keyless Sybils, plus one round:
    some keyless slots to drop and Sybils to insert — fresh ids, ids
    inside dropped arcs, reused dropped ids, several per arc, and ids
    in slot 0's wrapping arc."""
    rng = np.random.default_rng(seed)
    space = IdSpace(10)
    n_main = int(rng.integers(1, 8))
    main_ids = rng.choice(space.size, n_main, replace=False)
    n_keys = int(rng.integers(0, 300))
    keys = rng.integers(0, space.size, size=n_keys, dtype=np.uint64)
    state = RingState.build(
        space, main_ids, np.arange(n_main, dtype=np.int64), keys,
        np.random.default_rng(seed + 1000),
    )
    for _ in range(int(rng.integers(0, 12))):
        ident = int(rng.integers(0, space.size))
        if not state.id_exists(ident):
            state.insert_slot(ident, int(rng.integers(0, n_main)),
                              is_main=False)
    for slot in range(state.n_slots):
        if rng.random() < 0.5:
            state.consume_at(np.array([slot]), state.counts[[slot]].copy())
    keyless = np.flatnonzero(state.counts == 0).tolist()
    dead = [p for p in keyless if rng.random() < 0.6][: state.n_slots - 1]
    ids = state.ids.tolist()
    survivors = set(ids) - {ids[p] for p in dead}
    sybils: dict[int, int] = {}
    candidates = [int(x) for x in rng.integers(0, space.size, size=12)]
    for p in dead:
        # the dropped id itself, and an id inside its arc
        candidates += [ids[p], (ids[p] - 1) % space.size]
    # slot 0's wrapping arc, on both sides of zero
    candidates += [space.size - 1, 0, (ids[-1] + 1) % space.size]
    for ident in candidates:
        if ident not in survivors and rng.random() < 0.7:
            sybils[ident] = int(rng.integers(0, n_main + 3))
    return state, dead, sybils, n_main + 3


class TestCommitRound:
    @pytest.mark.parametrize("seed", range(40))
    def test_equals_sequential_calls(self, seed):
        one, dead, sybils, n_owners = random_round(seed)
        ref, _, _, _ = random_round(seed)
        order = list(sybils)
        np.random.default_rng(seed).shuffle(order)
        one.slots_of_owner(0)  # a warm index must be invalidated
        one.commit_round(dead, sybils)
        sequential(ref, dead, sybils, order)
        assert_same_ring(one, ref, n_owners)

    def test_reuses_an_id_retired_in_the_same_round(self):
        one, ref = ring_with_idle_sybils(), ring_with_idle_sybils()
        dead = positions(one, (75, 150))
        sybils = {75: 2, 150: 1, 120: 0}
        one.commit_round(dead, sybils)
        sequential(ref, dead, sybils, [150, 120, 75])
        assert_same_ring(one, ref, 3)
        assert one.owner[positions(one, (75,))[0]] == 2

    def test_sybils_inside_a_retired_arc(self):
        # 240 is dropped: 210 and 230 fall in its (keyless) old arc, so
        # they split the arc of 30, its live successor, which wraps
        one, ref = ring_with_idle_sybils(), ring_with_idle_sybils()
        dead = positions(one, (240,))
        sybils = {210: 0, 230: 1, 250: 2, 5: 0}
        one.commit_round(dead, sybils)
        sequential(ref, dead, sybils, [5, 230, 210, 250])
        assert_same_ring(one, ref, 3)
        assert sum(one.counts.tolist()) == sum(ref.counts.tolist())

    def test_several_sybils_in_one_arc(self):
        one, ref = ring_with_idle_sybils(), ring_with_idle_sybils()
        sybils = {160: 1, 180: 2, 190: 0, 199: 1}
        one.commit_round([], sybils)
        sequential(ref, [], sybils, [199, 160, 190, 180])
        assert_same_ring(one, ref, 3)
        assert one.counts[positions(one, tuple(sybils))].sum() > 0

    def test_ring_left_with_one_slot_splits_the_full_circle(self):
        def ring() -> RingState:
            space = IdSpace(8)
            # keys all round the circle, one at the survivor's own id
            keys = np.array([0, 10, 99, 100, 101, 180, 255], dtype=np.uint64)
            state = RingState.build(
                space, np.array([100], dtype=np.uint64),
                np.zeros(1, dtype=np.int64), keys, np.random.default_rng(3),
            )
            state.insert_slot(101, 1, is_main=False)  # takes key 101
            state.insert_slot(102, 1, is_main=False)  # takes nothing
            slot = positions(state, (101,))[0]
            state.consume_at(np.array([slot]), state.counts[[slot]].copy())
            return state

        one, ref = ring(), ring()
        dead = positions(one, (101, 102))
        # the lone survivor (100) owns the full circle; one Sybil reuses
        # a dropped id, one sits on each side of zero
        sybils = {101: 1, 200: 1, 5: 0, 250: 0}
        one.commit_round(dead, sybils)
        sequential(ref, dead, sybils, [200, 5, 250, 101])
        assert_same_ring(one, ref, 2)
        assert one.remaining_keys(positions(one, (100,))[0]).tolist() == [
            10, 99, 100,
        ]
        assert one.remaining_keys(positions(one, (5,))[0]).tolist() == [0, 255]

    def test_only_inserts(self):
        one, ref = ring_with_idle_sybils(), ring_with_idle_sybils()
        sybils = {10: 0, 60: 1, 255: 2}
        one.commit_round([], sybils)
        sequential(ref, [], sybils, [255, 10, 60])
        assert_same_ring(one, ref, 3)

    @pytest.mark.parametrize(
        "sybils,match",
        [
            ({256: 0}, "outside"),
            ({100: 0}, "already on the ring"),
            ({75: 0, 30: 1}, "already on the ring"),
        ],
        ids=["outside-space", "live-main", "live-sybil"],
    )
    def test_taken_or_invalid_id_raises_and_changes_nothing(
        self, sybils, match
    ):
        state = ring_with_idle_sybils()
        before = snapshot(state)
        with pytest.raises(IdSpaceError, match=match):
            # 75 is dropped in this round, so only 30 and 100 collide
            state.commit_round(positions(state, (75,)), sybils)
        assert snapshot(state) == before
        state.verify_invariants()


def test_round_overlay_never_drops_the_last_base_slot():
    """A retirement that would empty the round-start ring is not
    deferred, even when the round's new Sybils keep the ring non-empty
    (the commit refuses to drop every slot): the round commits first and
    the ring retires the Sybil itself."""
    state = RingState(
        IdSpace(8),
        np.array([10, 90], dtype=np.uint64),
        np.array([0, 1], dtype=np.int64),
        np.array([False, False]),
        [np.empty(0, dtype=np.uint64)] * 2,
        np.random.default_rng(0),
    )
    config = SimulationConfig(n_nodes=3, n_tasks=10, bits=8)
    owners = OwnerRegistry(config, np.random.default_rng(0))
    owners.in_network[:3] = True
    owners.n_sybils[:2] = 1
    view = SimView(config, state, owners, np.random.default_rng(0))
    view.begin_round()
    commits = []
    commit_round = state.commit_round

    def spy(dead, sybils, taken=None):
        commits.append((list(dead), dict(sybils)))
        commit_round(dead, sybils, taken)

    state.commit_round = spy
    view._open_round()
    assert view._join_sybil(2, 50, 1) == 0  # between 10 and 90
    assert view.retire_sybils(0) == 1
    assert commits == [] and state.ids.tolist() == [10, 90]  # deferred
    assert view.retire_sybils(1) == 1
    assert commits == [([0], {50: 2})]
    assert state.ids.tolist() == [50]
    view.end_round()
    state.verify_invariants()
    assert owners.n_sybils[:3].tolist() == [0, 0, 1]


def sim_view(state: RingState, n_sybils: list[int]) -> SimView:
    """A SimView over a hand-built ring whose owners 0.. are in the
    network with the given Sybil counts."""
    config = SimulationConfig(n_nodes=len(n_sybils), n_tasks=10, bits=8)
    owners = OwnerRegistry(config, np.random.default_rng(0))
    owners.in_network[: len(n_sybils)] = True
    owners.n_sybils[: len(n_sybils)] = n_sybils
    view = SimView(config, state, owners, np.random.default_rng(0))
    view.begin_round()
    view._open_round()
    return view


def join(view: SimView, owner: int, ident: int) -> int:
    return view._join_sybil(owner, ident, bisect_left(view._ids, ident))


class TestMaskReuse:
    """A Sybil that takes keys keeps its insert-time selection mask, and
    ``commit_round`` splits an arc that got that Sybil as its only new
    identity with it; each case must equal the commit that recomputes
    every split by ``_split_arc``'s own compare."""

    def commit(self, view, build, monkeypatch):
        """End the view's round, recording each split; the same round,
        committed without masks on a fresh ring from ``build``, must
        leave the same ring.  Returns ``(idents, mask_used)`` per split
        and the masks the round handed over."""
        state = view._state
        handed: list[dict] = []
        commit_round = state.commit_round

        def spy(dead, sybils, taken=None):
            handed.append((list(dead), dict(sybils), dict(taken or {})))
            commit_round(dead, sybils, taken)

        state.commit_round = spy
        splits = []
        split_arc = state_module._split_arc

        def record(remaining, pred_id, idents, size, taken=None):
            splits.append((tuple(idents), taken is not None))
            return split_arc(remaining, pred_id, idents, size, taken)

        monkeypatch.setattr(state_module, "_split_arc", record)
        view.end_round()
        ours = list(splits)
        (dead, sybils, masks), = handed
        ref = build()
        ref.commit_round(dead, sybils)
        assert snapshot(state) == snapshot(ref)
        state.verify_invariants()
        return ours, masks

    def test_lone_sybils_reuse_their_masks(self, monkeypatch):
        view = sim_view(ring_with_idle_sybils(), [2, 1, 1])
        # 80 lands in 100's arc after 75, 190 in 200's after 150; owner
        # 0 then retires 75 and 150, which leaves both masks valid
        assert join(view, 1, 80) > 0
        assert join(view, 2, 190) > 0
        assert view.retire_sybils(0) == 2
        splits, masks = self.commit(view, ring_with_idle_sybils, monkeypatch)
        assert sorted(masks) == [80, 190]
        assert sorted(splits) == [((80,), True), ((190,), True)]

    def test_second_sybil_before_the_first_is_not_reused(self, monkeypatch):
        view = sim_view(ring_with_idle_sybils(), [2, 1, 1])
        assert join(view, 1, 190) > 0
        join(view, 2, 160)  # takes part of what 190's mask selected
        splits, masks = self.commit(view, ring_with_idle_sybils, monkeypatch)
        assert 190 in masks
        assert splits == [((160, 190), False)]

    def test_sybil_in_an_arc_retired_this_round(self, monkeypatch):
        view = sim_view(ring_with_idle_sybils(), [2, 1, 1])
        assert view.retire_sybils(2) == 1  # drops the keyless 240
        # 230 lands in 240's old (keyless) arc: it splits 30's arc at
        # commit, and takes nothing
        assert join(view, 0, 230) == 0
        splits, masks = self.commit(view, ring_with_idle_sybils, monkeypatch)
        assert masks == {}
        assert splits == [((230,), False)]

    @pytest.mark.parametrize("n_slots", [1, 2])
    def test_full_circle_arc(self, n_slots, monkeypatch):
        """The survivor of a 1-slot ring (or of a 2-slot ring whose
        other slot retires) owns the full circle, keys at its own id
        included; a lone Sybil's mask must leave those with it."""

        def build() -> RingState:
            space = IdSpace(8)
            keys = np.array([0, 10, 90, 99, 180, 255], dtype=np.uint64)
            state = RingState.build(
                space, np.array([90], dtype=np.uint64),
                np.zeros(1, dtype=np.int64), keys, np.random.default_rng(3),
            )
            if n_slots == 2:
                state.insert_slot(95, 1, is_main=False)  # takes nothing
            return state

        view = sim_view(build(), [0, n_slots - 1])
        if n_slots == 2:
            assert view.retire_sybils(1) == 1
        assert join(view, 0, 20) == 5  # 90's 99, 180, 255, 0 and 10
        splits, masks = self.commit(view, build, monkeypatch)
        assert sorted(masks) == [20]
        assert splits == [((20,), True)]
        state = view._state
        assert state.ids.tolist() == [20, 90]
        assert sorted(state.remaining_keys(1).tolist()) == [90]
