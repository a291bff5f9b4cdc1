"""RingState.commit_round: a strategy round's one-pass ring commit.

A round drops its retired Sybils and moved keyless mains (slots with no
keys) and splices in its new slots through this primitive, handed what
``SimView`` recorded: the dropped positions, the new slots' ids and
owners, each keyed join's base slot and mask, and which new slots are
moved mains.  Driven through a real ``SimView`` round, it must equal the
sequential ``remove_slot`` / ``insert_slot`` calls it replaces — ids,
owners, main flags, counts, provenance, every slot's keys in storage
order, and the generator state — and it must refuse, before changing
anything, any drop that would move keys or empty the ring and any new
slot whose id is taken.
"""

import numpy as np
import pytest

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


def sequential(
    state: RingState, dead, sybils: dict[int, int], order, mains=()
) -> None:
    """The per-call equivalent: drop each dead slot, then insert each
    new slot, in the given order: a main identity if it is in
    ``mains``, else a Sybil."""
    for slot in sorted(dead, reverse=True):
        assert state.remove_slot(slot) == 0
    for ident in order:
        state.insert_slot(ident, sybils[ident], is_main=ident in mains)


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
        # warm the loads cache so the drop must invalidate it
        dropped.owner_loads(3)
        dropped.commit_round(positions(dropped, (240, 75, 150)), [], [])
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
        state.commit_round([], [], [])
        assert snapshot(state) == before

    @pytest.mark.parametrize(
        "idents", [(30,), (75, 30)], ids=["keyed", "keyless-and-keyed"]
    )
    def test_slot_with_keys_raises_and_changes_nothing(self, idents):
        state = ring_with_idle_sybils()
        before = snapshot(state)
        with pytest.raises(RingError, match="keys"):
            state.commit_round(positions(state, idents), [10], [1])
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
            state.commit_round([0, 1], [50], [0])
        assert state.n_slots == 2
        state.commit_round([1], [], [])
        assert state.ids.tolist() == [10]
        state.verify_invariants()

    @pytest.mark.parametrize("bad", [-1, 7])
    def test_out_of_range_position_raises(self, bad):
        state = ring_with_idle_sybils()
        before = snapshot(state)
        with pytest.raises(RingError, match="out of range"):
            state.commit_round([bad], [10], [1])
        assert snapshot(state) == before


def view_over(state: RingState, n_owners: int) -> SimView:
    """A SimView with an open round over a hand-built ring: owners
    ``0 .. n_owners - 1`` are in the network, each with the Sybil count
    the ring holds and room for many more."""
    config = SimulationConfig(
        n_nodes=n_owners, n_tasks=10, bits=state.space.bits, max_sybils=64,
    )
    owners = OwnerRegistry(config, np.random.default_rng(0))
    owners.n_sybils[:n_owners] = np.bincount(
        state.owner[~state.is_main], minlength=n_owners
    )
    view = SimView(config, state, owners, np.random.default_rng(0))
    view.begin_round()
    view._open_round()
    return view


def spy_commits(state: RingState) -> list[tuple]:
    """Record each ``commit_round`` call on ``state`` as ``(dropped
    positions, {ident: owner}, {ident: mask} of the keyed joins,
    {base slot: keyed idents}, {idents of the new mains})``, then
    commit."""
    commits: list[tuple] = []
    commit_round = state.commit_round

    def spy(dead, ids, owners, keyed=None, mains=()):
        keyed = keyed or {}
        commits.append((
            list(dead),
            dict(zip(ids, owners)),
            {ids[j]: mask for joins in keyed.values() for j, mask in joins},
            {base: [ids[j] for j, _ in joins]
             for base, joins in keyed.items()},
            {ids[j] for j in mains},
        ))
        commit_round(dead, ids, owners, keyed, mains)

    state.commit_round = spy
    return commits


def play_round(state: RingState, n_owners: int, actions) -> tuple:
    """Play one SimView round over ``state`` and end it.  An action is
    ``("join", ident, owner)`` — placed by ``_probe`` and joined by
    ``_join_sybil``, skipped when the id is taken — ``("move", ident,
    owner)`` — ``relocate_main`` into the arc holding ``ident`` — or
    ``("retire", owner)`` through ``retire_sybils``.  The round must
    commit once (or not at all).  Returns, in the sequential oracle's
    terms, the dropped round-start positions, the new slots (ident ->
    owner) in join order, the idents of the moved mains, and the commit
    the view made (see :func:`spy_commits`)."""
    view = view_over(state, n_owners)
    commits = spy_commits(state)
    sybils: dict[int, int] = {}
    mains: set[int] = set()
    for action in actions:
        if action[0] == "join":
            _, ident, owner = action
            if not view._probe(ident):
                view._join_sybil(owner, ident, view._probed)
                sybils[ident] = owner
        elif action[0] == "move":
            _, ident, owner = action
            view._probe(ident)
            if view.relocate_main(owner, view._probed) is not None:
                moved = view._ids[-1]
                sybils[moved] = owner
                mains.add(moved)
        else:
            view.retire_sybils(action[1])
    dead = list(view._dropped)
    view.end_round()
    del state.commit_round
    assert len(commits) == (1 if dead or sybils else 0)
    return dead, sybils, mains, commits[0] if commits else None


def random_round(seed: int):
    """A seeded ring with keyed and keyless Sybils, plus one round's
    actions in a shuffled order: owners whose Sybils are all keyless
    retire them, and Sybils join at fresh ids, ids inside retired arcs,
    reused retired ids, several per arc, and ids in slot 0's wrapping
    arc; some owners whose main holds no keys move it (at most once,
    and never when they retire).  An owner never joins before its own
    retirement (that commits the round early, which the one-commit
    oracle does not model)."""
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
    ids = state.ids.tolist()
    live = state.n_slots
    retiring: list[int] = []
    for owner in range(n_main):
        slots = np.flatnonzero((state.owner == owner) & ~state.is_main)
        if (
            slots.size and not state.counts[slots].any()
            and live > slots.size and rng.random() < 0.6
        ):
            retiring.append(owner)
            live -= slots.size
    retired = [ids[p] for p in np.flatnonzero(
        np.isin(state.owner, retiring) & ~state.is_main
    ).tolist()]
    candidates = [int(x) for x in rng.integers(0, space.size, size=12)]
    for ident in retired:
        # the retired id itself, and an id inside its arc
        candidates += [ident, (ident - 1) % space.size]
    # slot 0's wrapping arc, on both sides of zero
    candidates += [space.size - 1, 0, (ids[-1] + 1) % space.size]
    actions: list[tuple] = [("retire", owner) for owner in retiring]
    actions += [("join", ident) for ident in candidates
                if rng.random() < 0.7]
    order = rng.permutation(len(actions)).tolist()
    done: set[int] = set()
    n_owners = n_main + 3
    played = []
    for i in order:
        action = actions[i]
        if action[0] == "retire":
            done.add(action[1])
            played.append(action)
            continue
        owner = int(rng.integers(0, n_owners))
        if owner in retiring and owner not in done:
            owner = n_main  # an owner with no slot of its own
        played.append(("join", action[1], owner))
    # each move drops a round-start slot too: keep one
    for owner in range(n_main):
        if (
            owner in retiring or live < 2
            or state.counts[state.main_slot_of(owner)]
            or rng.random() < 0.5
        ):
            continue
        live -= 1
        move = ("move", int(rng.integers(0, space.size)), owner)
        played.insert(int(rng.integers(0, len(played) + 1)), move)
    return state, played, n_owners


def ring_with_one_live_slot() -> RingState:
    """Main 100 with every key (one at its own id) but 101, which owner
    1's Sybil 101 took and consumed; its other Sybil, 102, took none."""
    space = IdSpace(8)
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


class TestCommitRound:
    """Each round is played on a real SimView and committed by its
    ``end_round``; the sequential oracle replays the same drops and
    joins one ``remove_slot`` / ``insert_slot`` at a time."""

    def check(self, build, n_owners, actions) -> tuple:
        one, ref = build(), build()
        dead, sybils, mains, commit = play_round(one, n_owners, actions)
        sequential(ref, dead, sybils, list(sybils), mains)
        assert_same_ring(one, ref, n_owners)
        return one, dead, sybils, commit

    @pytest.mark.parametrize("seed", range(40))
    def test_equals_sequential_calls(self, seed):
        _, actions, n_owners = random_round(seed)
        self.check(lambda: random_round(seed)[0], n_owners, actions)

    def test_reuses_an_id_retired_in_the_same_round(self):
        _, dead, _, commit = self.check(ring_with_idle_sybils, 3, [
            ("retire", 0),  # drops 75 and 150
            ("join", 150, 1), ("join", 120, 0), ("join", 75, 2),
        ])
        assert len(dead) == 2
        assert commit[1] == {150: 1, 120: 0, 75: 2}

    def test_sybils_inside_a_retired_arc(self):
        # 240 is dropped: 210 and 230 fall in its (keyless) old arc, so
        # they split the arc of 30, its live successor, which wraps
        _, dead, sybils, commit = self.check(ring_with_idle_sybils, 3, [
            ("retire", 2),
            ("join", 5, 0), ("join", 230, 1), ("join", 210, 0),
            ("join", 250, 2),
        ])
        assert dead == positions(ring_with_idle_sybils(), (240,))
        assert list(sybils) == [5, 230, 210, 250]
        # 5 takes 30's keys past zero; 210 and 230 take none
        assert set(commit[2]) <= {5, 250}

    def test_several_sybils_in_one_arc(self):
        # each later join takes part of an earlier new Sybil's keys
        _, _, _, commit = self.check(ring_with_idle_sybils, 3, [
            ("join", 199, 1), ("join", 160, 1), ("join", 190, 0),
            ("join", 180, 2),
        ])
        base = positions(ring_with_idle_sybils(), (200,))[0]
        assert len(commit[3][base]) > 1

    def test_ring_left_with_one_slot_splits_the_full_circle(self):
        # the lone survivor (100) owns the full circle; one Sybil reuses
        # a dropped id, one sits on each side of zero
        one, _, _, _ = self.check(ring_with_one_live_slot, 2, [
            ("retire", 1),  # drops 101 and 102
            ("join", 200, 1), ("join", 5, 0), ("join", 250, 0),
            ("join", 101, 1),
        ])
        assert one.remaining_keys(positions(one, (100,))[0]).tolist() == [
            10, 99, 100,
        ]
        assert one.remaining_keys(positions(one, (5,))[0]).tolist() == [0, 255]

    def test_only_inserts(self):
        self.check(ring_with_idle_sybils, 3, [
            ("join", 255, 2), ("join", 10, 0), ("join", 60, 1),
        ])

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
            state.commit_round(
                positions(state, (75,)), list(sybils), list(sybils.values())
            )
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
    commits = spy_commits(state)
    view._open_round()
    assert view._join_sybil(2, 50, 1) == 0  # between 10 and 90
    assert view.retire_sybils(0) == 1
    assert commits == [] and state.ids.tolist() == [10, 90]  # deferred
    assert view.retire_sybils(1) == 1
    assert commits == [([0], {50: 2}, {}, {}, set())]
    assert state.ids.tolist() == [50]
    view.end_round()
    state.verify_invariants()
    assert owners.n_sybils[:3].tolist() == [0, 0, 1]


def join(view: SimView, owner: int, ident: int) -> int:
    assert not view._probe(ident)
    return view._join_sybil(owner, ident, view._probed)


class TestMaskReuse:
    """A Sybil that takes keys keeps its join-time selection mask, and
    ``commit_round`` splits only the arcs that keyed Sybils joined, by
    those masks: a key goes to the last Sybil whose mask selected it.
    Each case must equal the sequential oracle."""

    def commit(self, view, build):
        """End the view's round; the sequential oracle on a fresh ring
        from ``build`` must leave the same ring.  Returns the masks the
        round handed over and its keyed idents per arc."""
        state = view._state
        commits = spy_commits(state)
        view.end_round()
        (dead, sybils, masks, arcs, _), = commits
        ref = build()
        sequential(ref, dead, sybils, list(sybils))
        assert snapshot(state) == snapshot(ref)
        state.verify_invariants()
        return masks, sorted(arcs.values())

    def test_lone_sybils_reuse_their_masks(self):
        view = view_over(ring_with_idle_sybils(), 3)
        # 80 lands in 100's arc after 75, 190 in 200's after 150; owner
        # 0 then retires 75 and 150, which leaves both masks valid
        assert join(view, 1, 80) > 0
        assert join(view, 2, 190) > 0
        assert view.retire_sybils(0) == 2
        masks, arcs = self.commit(view, ring_with_idle_sybils)
        assert sorted(masks) == [80, 190]
        assert arcs == [[80], [190]]

    def test_second_sybil_before_the_first_is_not_reused(self):
        view = view_over(ring_with_idle_sybils(), 3)
        assert join(view, 1, 190) > 0
        # 160 takes part of what 190's mask selected: 190 keeps only
        # what 160's mask did not select
        assert join(view, 2, 160) > 0
        masks, arcs = self.commit(view, ring_with_idle_sybils)
        assert sorted(masks) == [160, 190]
        assert arcs == [[190, 160]]
        assert (masks[160] & masks[190]).any()

    def test_sybil_in_an_arc_retired_this_round(self):
        view = view_over(ring_with_idle_sybils(), 3)
        assert view.retire_sybils(2) == 1  # drops the keyless 240
        # 230 lands in 240's old (keyless) arc: it takes nothing, at its
        # join or at the commit, so no arc is split
        assert join(view, 0, 230) == 0
        masks, arcs = self.commit(view, ring_with_idle_sybils)
        assert masks == {} and arcs == []

    @pytest.mark.parametrize("n_slots", [1, 2])
    def test_full_circle_arc(self, n_slots):
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

        view = view_over(build(), 2)
        if n_slots == 2:
            assert view.retire_sybils(1) == 1
        assert join(view, 0, 20) == 5  # 90's 99, 180, 255, 0 and 10
        masks, arcs = self.commit(view, build)
        assert sorted(masks) == [20]
        assert arcs == [[20]]
        state = view._state
        assert state.ids.tolist() == [20, 90]
        assert sorted(state.remaining_keys(1).tolist()) == [90]
