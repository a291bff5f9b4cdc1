"""Slab RingState vs. the naive reference: observation equivalence.

The slab-allocated :class:`~repro.sim.state.RingState` must be
indistinguishable from :class:`~repro.sim.reference.NaiveRingState` —
not just in the multiset of remaining keys, but bit-for-bit: same slot
arrays, same remaining-key *order*, and the same generator stream
position after every operation.  That last condition is what makes
seeded whole-simulation runs reproducible across the rewrite.

``add_tasks`` is the one deliberate exception: the slab version shuffles
all affected slots in a single vectorized pass, which consumes the
stream differently, so it is held to per-slot multiset equality instead.
"""

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import IdSpaceError, RingError
from repro.hashspace.idspace import IdSpace
from repro.sim.reference import NaiveRingState
from repro.sim.state import _SHIFT_EVENTS, RingState, _Pending
from repro.sim.workload import (
    draw_new_node_id,
    draw_new_node_ids,
    draw_unique_ids,
)

SPACE = IdSpace(12)
#: a space small enough that joiners collide with live ids and draw the
#: ids of nodes that left in the same tick
SPACE8 = IdSpace(8)


def build_pair(seed, n_nodes, n_keys, space=SPACE, cls=NaiveRingState):
    """Identically-seeded rings (slab, ``cls``) over the same data."""
    setup = np.random.default_rng(seed)
    ids = setup.choice(
        space.size, size=n_nodes, replace=False
    ).astype(np.uint64)
    keys = setup.integers(0, space.size, size=n_keys, dtype=np.uint64)
    owners = np.arange(n_nodes, dtype=np.int64)
    slab = RingState.build(
        space, ids, owners, keys, np.random.default_rng(seed + 1)
    )
    other = cls.build(
        space, ids, owners, keys, np.random.default_rng(seed + 1)
    )
    return slab, other


def batch_remove_owner(state, owner):
    """Remove every slot of ``owner`` the engine's way: one churn batch."""
    batch = state.begin_batch_removal([owner])
    moved = batch.remove_owner_guarded(owner)
    batch.commit()
    return moved


def assert_equivalent(slab, naive, *, exact_order=True):
    assert slab.n_slots == naive.n_slots
    assert slab.n_sybil_slots == naive.n_sybil_slots
    np.testing.assert_array_equal(slab.ids, naive.ids)
    np.testing.assert_array_equal(slab.owner, naive.owner)
    np.testing.assert_array_equal(slab.is_main, naive.is_main)
    np.testing.assert_array_equal(slab.counts, naive.counts)
    for i in range(slab.n_slots):
        a = slab.remaining_keys(i)
        b = naive.remaining_keys(i)
        if not exact_order:
            a, b = np.sort(a), np.sort(b)
        np.testing.assert_array_equal(a, b)
    if exact_order:
        # same number and order of draws consumed from the stream
        assert (
            slab.rng.bit_generator.state == naive.rng.bit_generator.state
        )


OP = st.sampled_from(
    ["insert_main", "insert_sybil", "remove_slot", "remove_owner",
     "retire_sybils", "consume"]
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_nodes=st.integers(2, 16),
    n_keys=st.integers(0, 250),
    ops=st.lists(st.tuples(OP, st.integers(0, 2**31 - 1)), max_size=30),
)
# Pinned falsifying example (formerly .hypothesis/patches/): churn takes
# owner 1's main while its Sybil survives, then retire_sybils targets
# the last slot alive — retirement must leave it in place, not raise.
@example(
    seed=0,
    n_nodes=2,
    n_keys=0,
    ops=[
        ("remove_slot", 0),
        ("insert_sybil", 0),
        ("remove_slot", 1),
        ("retire_sybils", 0),
    ],
).via("discovered failure")
def test_slab_matches_naive_reference(seed, n_nodes, n_keys, ops):
    slab, naive = build_pair(seed, n_nodes, n_keys)
    next_owner = n_nodes

    for kind, op_seed in ops:
        op_rng = np.random.default_rng(op_seed)
        if kind in ("insert_main", "insert_sybil"):
            ident = int(op_rng.integers(0, SPACE.size))
            if kind == "insert_main":
                owner, is_main = next_owner, True
            else:
                owner = int(op_rng.integers(0, next_owner))
                is_main = False
            try:
                got = slab.insert_slot(ident, owner, is_main=is_main)
            except IdSpaceError:
                continue
            assert got == naive.insert_slot(ident, owner, is_main=is_main)
            if is_main:
                next_owner += 1
        elif kind == "remove_slot":
            if slab.n_slots <= 1:
                continue
            slot = int(op_rng.integers(0, slab.n_slots))
            assert slab.remove_slot(slot) == naive.remove_slot(slot)
        elif kind == "remove_owner":
            owner = int(op_rng.integers(0, next_owner))
            if slab.n_slots - slab.slots_of_owner(owner).size < 1:
                continue
            assert batch_remove_owner(slab, owner) == naive.remove_owner(owner)
        elif kind == "retire_sybils":
            owner = int(op_rng.integers(0, next_owner))
            assert slab.retire_sybils(owner) == naive.retire_sybils(owner)
        elif kind == "consume":
            if slab.n_slots == 0:
                continue
            slot = int(op_rng.integers(0, slab.n_slots))
            take = int(min(slab.counts[slot], op_rng.integers(0, 5)))
            idx = np.array([slot])
            amt = np.array([take], dtype=np.int64)
            slab.consume_at(idx, amt)
            naive.consume_at(idx, amt)
        slab.verify_invariants()
        naive.verify_invariants()
        assert_equivalent(slab, naive)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_nodes=st.integers(2, 12),
    n_keys=st.integers(0, 150),
    n_fresh=st.integers(0, 150),
)
def test_add_tasks_matches_naive_keysets(seed, n_nodes, n_keys, n_fresh):
    """Vectorized ``add_tasks`` routes every key to the same slot as the
    reference (the within-slot shuffle order may differ)."""
    slab, naive = build_pair(seed, n_nodes, n_keys)
    fresh = np.random.default_rng(seed ^ 0x5EED).integers(
        0, SPACE.size, size=n_fresh, dtype=np.uint64
    )
    slab.add_tasks(fresh)
    naive.add_tasks(fresh)
    slab.verify_invariants()
    naive.verify_invariants()
    assert_equivalent(slab, naive, exact_order=False)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_nodes=st.integers(3, 14),
    n_keys=st.integers(0, 200),
    leavers=st.lists(st.integers(0, 13), max_size=6),
    joiner_ids=st.lists(st.integers(0, SPACE.size - 1), max_size=6),
)
# Pinned falsifying example (formerly .hypothesis/patches/): the same
# owner leaves twice in one batch — the second guarded removal must see
# the first batch removal and become a no-op on both sides.
@example(
    seed=0,
    n_nodes=3,
    n_keys=0,
    leavers=[0, 0],
    joiner_ids=[],
).via("discovered failure")
def test_batched_churn_matches_sequential(
    seed, n_nodes, n_keys, leavers, joiner_ids
):
    """A batched removal pass followed by a batched insertion pass is
    bit-identical (state and RNG stream) to the sequential per-node
    remove_owner / insert_slot loop the engine used to run."""
    slab, naive = build_pair(seed, n_nodes, n_keys)
    next_owner = n_nodes

    removal = slab.begin_batch_removal([o % n_nodes for o in leavers])
    for owner in leavers:
        owner = owner % n_nodes
        moved = removal.remove_owner_guarded(owner)
        # replay sequentially on the reference
        if naive.n_slots - naive.slots_of_owner(owner).size >= 1:
            assert moved == naive.remove_owner(owner)
        else:
            assert moved is None
    removal.commit()

    joiners = []
    for ident in joiner_ids:
        if slab.id_exists(ident) or ident in joiners:
            continue
        joiners.append(ident)
    insertion = slab.begin_batch_insertion()
    insertion.add(
        joiners, range(next_owner, next_owner + len(joiners)), is_main=True
    )
    for acquired, ident in zip(insertion.acquired, joiners):
        _, naive_acquired = naive.insert_slot(
            ident, next_owner, is_main=True
        )
        assert acquired == naive_acquired
        next_owner += 1
    insertion.commit()

    slab.verify_invariants()
    naive.verify_invariants()
    assert_equivalent(slab, naive)


def _fused_tick(state, events, replication, n_joins, next_owner):
    """One churn tick in the engine's call shape: departures on one ring
    batch, the joins' ids from one sized draw against the ring those
    departures leave, the joins — when anyone joins — in the batch's one
    ``add``, and one commit applying both.  ``events`` is
    ``[(owner, crash), ...]``."""
    batch = state.begin_batch_removal([o for o, _ in events])
    outcomes = []
    for owner, crash in events:
        if crash:
            outcomes.append(batch.crash_owner_guarded(owner, replication))
        else:
            outcomes.append(batch.remove_owner_guarded(owner))
    idents = draw_new_node_ids(
        n_joins, state.space, state.rng, batch.ids_exist
    )
    acquired = []
    if idents:
        batch.add(
            idents, range(next_owner, next_owner + len(idents)), is_main=True
        )
        acquired = batch.acquired
    batch.commit()
    return outcomes, idents, acquired


def _around_the_shift_cutoff(test):
    """Pin ticks of 1 to 8 events, on both sides of ``_SHIFT_EVENTS``
    (in-place shifts below it, gathers above): departures only, joins
    only and both."""
    for events in range(1, 9):
        for leaves in sorted({0, events // 2, events}):
            test = example(
                seed=10 * events + leaves, n_nodes=20, n_keys=300,
                leavers=list(range(leaves)), n_joins=events - leaves,
            ).via("a tick around the shift cutoff")(test)
    return test


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_nodes=st.integers(2, 60),
    n_keys=st.integers(0, 400),
    leavers=st.lists(st.integers(0, 59), max_size=12),
    n_joins=st.integers(0, 12),
)
@example(seed=0, n_nodes=3, n_keys=0, leavers=[0, 0], n_joins=0).via(
    "a guarded repeat leave"
)
@_around_the_shift_cutoff
def test_fused_churn_tick_matches_sequential(
    seed, n_nodes, n_keys, leavers, n_joins
):
    """The engine's one-pass churn tick (8-bit space) is bit-identical —
    arrays, key order and generator state — to the sequential loop:
    ``remove_owner`` per leaver, then one scalar ``draw_new_node_id``
    plus ``insert_slot`` per joiner, on the naive ring."""
    slab, naive = build_pair(seed, n_nodes, n_keys, SPACE8)
    leavers = [o % n_nodes for o in leavers]
    outcomes, idents, acquired = _fused_tick(
        slab, [(o, False) for o in leavers], None, n_joins, n_nodes
    )
    for owner, moved in zip(leavers, outcomes):
        if naive.n_slots - naive.slots_of_owner(owner).size >= 1:
            assert moved == naive.remove_owner(owner)
        else:
            assert moved is None
    for j, ident in enumerate(idents):
        assert ident == draw_new_node_id(SPACE8, naive.rng, naive.id_exists)
        _, got = naive.insert_slot(ident, n_nodes + j, is_main=True)
        assert acquired[j] == got
    slab.verify_invariants()
    naive.verify_invariants()
    assert_equivalent(slab, naive)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_nodes=st.integers(2, 60),
    n_keys=st.integers(0, 400),
    events=st.lists(
        st.tuples(st.integers(0, 59), st.booleans()), max_size=12
    ),
    n_joins=st.integers(0, 12),
    replication=st.sampled_from([None, 1, 3]),
)
def test_fused_churn_tick_matches_two_pass(
    seed, n_nodes, n_keys, events, n_joins, replication
):
    """With crash-stop departures, which no per-slot call replays, the
    fused tick equals the two-pass path it replaces: commit the removal,
    then draw each joiner's id by scalar draws against the committed
    ring and insert through a second batch."""
    fused, two_pass = build_pair(seed, n_nodes, n_keys, SPACE8, RingState)
    events = [(o % n_nodes, crash) for o, crash in events]
    outcomes, idents, acquired = _fused_tick(
        fused, events, replication, n_joins, n_nodes
    )

    removal = two_pass.begin_batch_removal([o for o, _ in events])
    for (owner, crash), got in zip(events, outcomes):
        if crash:
            assert got == removal.crash_owner_guarded(owner, replication)
        else:
            assert got == removal.remove_owner_guarded(owner)
    removal.commit()
    drawn: list[int] = []
    for j in range(n_joins):
        ident = draw_new_node_id(
            SPACE8, two_pass.rng,
            lambda i: two_pass.id_exists(i) or i in drawn,
        )
        assert ident == idents[j]
        drawn.append(ident)
    insertion = two_pass.begin_batch_insertion()
    insertion.add(drawn, range(n_nodes, n_nodes + n_joins), is_main=True)
    assert insertion.acquired == acquired
    insertion.commit()
    fused.verify_invariants()
    two_pass.verify_invariants()
    assert_equivalent(fused, two_pass)
    np.testing.assert_array_equal(fused.provenance, two_pass.provenance)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_nodes=st.integers(2, 40),
    leavers=st.lists(st.integers(0, 39), max_size=10),
    idents=st.sets(st.integers(0, SPACE8.size - 1), max_size=12),
)
def test_bulk_insertion_on_an_open_removal(seed, n_nodes, leavers, idents):
    """Sybil insertions (several may share an arc) added to a batch
    after its removals resolve arcs against the ring the removals leave,
    like the two-pass path: the same acquired counts and ring."""
    fused, two_pass = build_pair(seed, n_nodes, 300, SPACE8, RingState)
    leavers = [o % n_nodes for o in leavers]
    batch = fused.begin_batch_removal(leavers)
    for owner in leavers:
        batch.remove_owner_guarded(owner)
    idents = [i for i in sorted(idents)
              if not batch.ids_exist(np.array([i], dtype=np.uint64))[0]]
    batch.add(idents, range(100, 100 + len(idents)), is_main=False)
    acquired = batch.acquired
    batch.commit()

    removal = two_pass.begin_batch_removal(leavers)
    for owner in leavers:
        removal.remove_owner_guarded(owner)
    removal.commit()
    insertion = two_pass.begin_batch_insertion()
    insertion.add(idents, range(100, 100 + len(idents)), is_main=False)
    assert insertion.acquired == acquired
    insertion.commit()
    fused.verify_invariants()
    assert_equivalent(fused, two_pass)


def test_joiner_may_take_an_id_that_left_this_tick():
    """A departed id no longer exists within the tick; a joiner that
    takes it lands exactly as after a committed removal."""
    slab, naive = build_pair(3, 6, 80, SPACE8)
    owner = 2
    gone = int(slab.ids[slab.slots_of_owner(owner)[0]])
    batch = slab.begin_batch_removal([owner])
    assert batch.ids_exist(np.array([gone], dtype=np.uint64)).tolist() == [
        True
    ]
    batch.remove_owner_guarded(owner)
    assert not batch.ids_exist(np.array([gone], dtype=np.uint64))[0]
    acquired = batch.add([gone], [6], is_main=True)
    assert batch.acquired == [acquired]
    batch.commit()
    assert slab.id_exists(gone)

    naive.remove_owner(owner)
    assert naive.insert_slot(gone, 6, is_main=True)[1] == acquired
    slab.verify_invariants()
    assert_equivalent(slab, naive)


def _array_tick_matches_naive(slab, naive, leavers, joins, owners):
    """Commit one tick on ``slab`` — the leavers, then the joins as one
    ``add`` of arrays, on one ring batch — and replay it sequentially on
    ``naive``: ``remove_owner`` per leaver, then ``insert_slot`` per
    joiner in join order, each returning that join's acquired count."""
    batch = slab.begin_batch_removal(leavers)
    outcomes = [batch.remove_owner_guarded(o) for o in leavers]
    total = batch.add(joins, owners, is_main=True)
    batch.commit()
    for owner, moved in zip(leavers, outcomes):
        if naive.n_slots - naive.slots_of_owner(owner).size >= 1:
            assert moved == naive.remove_owner(owner)
        else:
            assert moved is None
    expected = [
        naive.insert_slot(ident, owner, is_main=True)[1]
        for ident, owner in zip(joins, owners)
    ]
    assert batch.acquired == expected
    assert total == sum(expected)
    slab.verify_invariants()
    naive.verify_invariants()
    assert_equivalent(slab, naive)


@pytest.mark.parametrize(
    "leaving, joining",
    [
        ([3], [12]),  # a leave before a join
        ([12], [3]),  # a leave after a join
        ([7], [7]),  # a join at a dropped position
        ([0, 19], [20]),  # a join past the top id, both ends leaving
        ([], [5, 12]),  # two right-moving runs
        ([2], [6, 10, 14]),  # runs moving left, not at all, right, right
        ([4, 9, 15], [12]),  # left-moving runs around a join
    ],
)
def test_shift_path_tick_matches_sequential(leaving, joining):
    """A tick of at most ``_SHIFT_EVENTS`` events moves each run of
    survivors between two events once; it equals the naive ring's
    sequential removals and inserts.  ``leaving`` names slot positions,
    ``joining`` the slot whose arc a join lands in (the position past
    the last slot: the arc past the top id)."""
    assert len(leaving) + len(joining) <= _SHIFT_EVENTS
    slab, naive = build_pair(21, 20, 400)
    ids = slab.ids.tolist() + [SPACE.size]
    joins = [(ids[p - 1] + ids[p]) // 2 if p else ids[0] // 2
             for p in joining]
    assert not set(joins) & set(ids)
    leavers = [int(slab.owner[p]) for p in leaving]
    _array_tick_matches_naive(
        slab, naive, leavers, joins, list(range(100, 100 + len(joins)))
    )


def _drain(states, slots):
    """Consume every remaining key of ``slots`` on each ring."""
    for state in states:
        for slot in slots:
            slot %= state.n_slots
            state.consume_at(
                np.array([slot]), np.array([state.counts[slot]])
            )


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_nodes=st.integers(1, 40),
    n_keys=st.integers(0, 400),
    leavers=st.lists(st.integers(0, 39), max_size=8),
    n_joins=st.integers(1, 64),
    drained=st.lists(st.integers(0, 39), max_size=4),
    reuse=st.booleans(),
)
@example(seed=1, n_nodes=2, n_keys=300, leavers=[], n_joins=64, drained=[],
         reuse=False).via("64 joins into two arcs")
@example(seed=2, n_nodes=12, n_keys=300, leavers=[3, 7], n_joins=1,
         drained=[], reuse=True).via("one join, on a departed id")
@example(seed=3, n_nodes=6, n_keys=0, leavers=[1], n_joins=20, drained=[],
         reuse=False).via("every arc empty")
def test_array_insertion_matches_sequential_inserts(
    seed, n_nodes, n_keys, leavers, n_joins, drained, reuse
):
    """A tick of 1 to 64 joins handed over as arrays, with or without
    departures in the same tick (8-bit space, so joiners share arcs,
    wrap past the top id and reuse departed ids), equals the naive
    ring's sequential inserts in join order: ring, key order, generator
    state and each join's acquired count."""
    slab, naive = build_pair(seed, n_nodes, n_keys, SPACE8)
    _drain((slab, naive), drained)
    leavers = [o % n_nodes for o in leavers]
    gone = set(slab.ids[np.isin(slab.owner, leavers)].tolist())
    # the ring the departures leave (the last slot never leaves)
    probe = copy.deepcopy(naive)
    for owner in leavers:
        if probe.n_slots - probe.slots_of_owner(owner).size >= 1:
            probe.remove_owner(owner)
    free = sorted(set(range(SPACE8.size)) - set(probe.ids.tolist()))
    rng = np.random.default_rng(seed)
    joins = rng.permutation(free)[:n_joins].tolist()
    if reuse:
        reused = sorted(gone - set(probe.ids.tolist()))[:1]
        joins = reused + [i for i in joins if i not in reused][: n_joins - 1]
    owners = list(range(100, 100 + len(joins)))
    _array_tick_matches_naive(slab, naive, leavers, joins, owners)


def test_array_insertion_edge_cases():
    """Every edge of the sorted placement in one tick: joiners sharing
    an arc out of id order, a joiner past the top id and one below the
    first (both in the first slot's wrapping arc), a joiner on the id
    that departed this tick, and joiners into an emptied arc."""
    space = IdSpace(8)
    ids = np.array([10, 50, 100, 200], dtype=np.uint64)
    keys = np.arange(0, 256, 3, dtype=np.uint64)
    rings = [
        cls(space, ids, np.arange(4), np.ones(4, dtype=bool),
            [keys[(keys > lo) & (keys <= hi)] if lo < hi else
             keys[(keys > lo) | (keys <= hi)]
             for lo, hi in zip([200, 10, 50, 100], [10, 50, 100, 200])],
            np.random.default_rng(0))
        for cls in (RingState, NaiveRingState)
    ]
    # ids 100 and 200 hold no keys: once 100 leaves, (50, 200] is empty
    _drain(rings, [2, 3])
    slab, naive = rings
    joins = [40, 230, 20, 5, 100, 150, 30, 180, 250]
    _array_tick_matches_naive(
        slab, naive, [2], joins, list(range(10, 10 + len(joins)))
    )
    assert slab.ids.tolist() == sorted([10, 50, 200] + joins)


@pytest.mark.parametrize("bad", ["on_ring", "twice", "outside", "negative"])
def test_array_insertion_rejects_before_changing_anything(bad):
    """A batch with one bad id raises from ``add`` and queues nothing:
    its commit leaves the ring as it was."""
    slab, twin = build_pair(5, 6, 200, SPACE8, RingState)
    free = [i for i in range(SPACE8.size) if not slab.id_exists(i)][:2]
    joins = free + [{
        "on_ring": int(slab.ids[1]),
        "twice": free[0],
        "outside": SPACE8.size,
        "negative": -1,
    }[bad]]
    insertion = slab.begin_batch_insertion()
    with pytest.raises(IdSpaceError):
        insertion.add(joins, range(10, 13), is_main=True)
    insertion.commit()
    slab.verify_invariants()
    assert_equivalent(slab, twin)


def test_array_insertion_takes_its_joins_once():
    slab, _ = build_pair(6, 5, 40, SPACE8)
    insertion = slab.begin_batch_insertion()
    free = next(i for i in range(SPACE8.size) if not slab.id_exists(i))
    with pytest.raises(RingError):
        insertion.add([free], [7, 8], is_main=True)  # one owner each
    insertion.add([free], [7], is_main=True)
    with pytest.raises(RingError):
        insertion.add([free + 1], [8], is_main=True)


def test_batch_takes_no_removal_or_join_after_its_joins():
    """Once a batch holds its joins, a graceful removal, a crash and a
    second ``add`` each raise; so does a second commit."""
    slab, _ = build_pair(4, 5, 40)
    batch = slab.begin_batch_removal([0, 1])
    batch.remove_owner_guarded(0)
    free = [
        i for i in range(SPACE.size)
        if not batch.ids_exist(np.array([i], dtype=np.uint64))[0]
    ][:2]
    batch.add(free[:1], [5], is_main=True)
    with pytest.raises(RingError):
        batch.remove_owner_guarded(1)
    with pytest.raises(RingError):
        batch.crash_owner_guarded(1, None)
    with pytest.raises(RingError):
        batch.add(free[1:], [6], is_main=True)
    batch.commit()
    with pytest.raises(RingError):
        batch.commit()
    slab.verify_invariants()
    assert 1 in slab.owner.tolist()
    assert slab.owner.tolist().count(5) == 1


def test_removal_refuses_an_owner_not_named():
    """A batch removal knows only the owners named when it began: asking
    for another raises before anything changes."""
    slab, twin = build_pair(4, 5, 40, cls=RingState)
    removal = slab.begin_batch_removal([0, 2])
    for remove in (
        removal.remove_owner_guarded,
        lambda owner: removal.crash_owner_guarded(owner, None),
    ):
        with pytest.raises(RingError, match="not named"):
            remove(1)
    assert_equivalent(slab, twin)
    assert removal.remove_owner_guarded(2) is not None
    removal.commit()
    slab.verify_invariants()
    assert 2 not in slab.owner.tolist()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_nodes=st.integers(1, 300),
    dead_frac=st.floats(0, 0.9),
    n_new=st.integers(0, 120),
)
@example(seed=4, n_nodes=40, dead_frac=0.5, n_new=30)
@example(seed=5, n_nodes=2200, dead_frac=0.1, n_new=60)
@example(seed=6, n_nodes=4000, dead_frac=0.03, n_new=40)
def test_restructure_matches_per_slot_edits(seed, n_nodes, dead_frac, n_new):
    """Dropping and splicing in one gather — with the keys list edited in
    place, or, for a large batch, gathered like the slab (the second
    example) or spliced anew (the third) — equals deleting and inserting
    slot by slot."""
    rng = np.random.default_rng(seed)
    ids = np.sort(rng.choice(2**20, size=n_nodes, replace=False)).astype(
        np.uint64
    )
    state = RingState(
        SPACE, ids, np.arange(n_nodes), rng.random(n_nodes) < 0.5,
        [np.full(i % 3, i, dtype=np.uint64) for i in range(n_nodes)], rng,
    )
    dead = sorted(
        rng.choice(n_nodes, size=int(dead_frac * n_nodes), replace=False)
        .tolist()
    )
    fresh = np.setdiff1d(
        rng.integers(0, 2**20, size=n_new, dtype=np.uint64),
        np.delete(ids, dead),
    )
    m = fresh.size
    pending = _Pending(
        ids=fresh,
        owner=np.arange(1000, 1000 + m),
        is_main=rng.random(m) < 0.5,
        counts=np.ones(m, dtype=np.int64),
        provenance=np.full(m, 2, dtype=np.int8),
        keys=[np.array([k], dtype=np.uint64) for k in fresh.tolist()],
        at=ids.searchsorted(fresh),
    )
    rows = [
        (int(ids[i]), int(state.owner[i]), bool(state.is_main[i]),
         int(state.counts[i]), int(state.provenance[i]), state.keys[i])
        for i in range(n_nodes) if i not in set(dead)
    ] + [
        (int(fresh[j]), 1000 + j, bool(pending.is_main[j]), 1, 2,
         pending.keys[j])
        for j in range(m)
    ]
    rows.sort(key=lambda r: r[0])
    state._restructure(dead, pending)
    assert state.n_slots == len(rows)
    assert state.ids.tolist() == [r[0] for r in rows]
    assert state.owner.tolist() == [r[1] for r in rows]
    assert state.is_main.tolist() == [r[2] for r in rows]
    assert state.counts.tolist() == [r[3] for r in rows]
    assert state.provenance.tolist() == [r[4] for r in rows]
    assert all(a is r[5] for a, r in zip(state.keys, rows))
    assert state.n_sybil_slots == sum(not r[2] for r in rows)


@pytest.mark.parametrize("bits", [8, 16, 32, 48, 64])
@pytest.mark.parametrize("n_nodes", [1, 7, 300])
def test_build_matches_naive_build(bits, n_nodes):
    """The bucketed build, grouped by one sort of composite words,
    equals the reference build: ids, owners, and every slot's keys in
    order."""
    space = IdSpace(bits)
    rng = np.random.default_rng(bits + n_nodes)
    n_nodes = min(n_nodes, space.size)
    ids = np.unique(rng.integers(0, space.size, size=n_nodes,
                                 dtype=np.uint64))
    keys = np.concatenate((
        rng.integers(0, space.size, size=30_000, dtype=np.uint64),
        ids, ids,  # keys equal to an id, twice
        np.array([0, space.max_id, space.max_id], dtype=np.uint64),
    ))
    rng.shuffle(keys)
    owners = rng.permutation(ids.size)
    slab = RingState.build(space, ids, owners, keys, np.random.default_rng(0))
    naive = NaiveRingState.build(
        space, ids, owners, keys, np.random.default_rng(0)
    )
    assert_equivalent(slab, naive)
    assert [k.size for k in slab.keys] == slab.counts.tolist()


@pytest.mark.parametrize(
    "bits, n_nodes, n_keys, word_bits",
    [
        (64, 1024, (1 << 21) + 1, 32),  # the top slot fills a uint32
        (64, 1025, (1 << 21) + 1, 33),  # one slot more: uint64
        (32, 70_000, 70_000, 34),  # more than 65,536 slots
        (8, 256, 70_000, 25),  # every id of the space
    ],
)
def test_build_at_the_sort_word_edges(bits, n_nodes, n_keys, word_bits):
    """Either side of the ``uint32``/``uint64`` sort word, with keys
    equal to ids and at both ends of the space, the build equals the
    reference build."""
    assert (n_nodes - 1).bit_length() + (n_keys - 1).bit_length() == (
        word_bits
    )
    space = IdSpace(bits)
    rng = np.random.default_rng(n_nodes)
    ids = draw_unique_ids(n_nodes, space, rng)
    edges = np.concatenate(
        (ids[:1000], np.array([0, space.max_id], np.uint64))
    )
    keys = rng.integers(0, space.size, size=n_keys, dtype=np.uint64)
    keys[rng.choice(n_keys, size=edges.size, replace=False)] = edges
    owners = np.arange(n_nodes)
    slab = RingState.build(space, ids, owners, keys, np.random.default_rng(0))
    naive = NaiveRingState.build(
        space, ids, owners, keys, np.random.default_rng(0)
    )
    np.testing.assert_array_equal(slab.ids, naive.ids)
    np.testing.assert_array_equal(slab.owner, naive.owner)
    np.testing.assert_array_equal(slab.counts, naive.counts)
    # equal counts: equal concatenations mean equal slots, in order
    np.testing.assert_array_equal(
        np.concatenate(slab.keys), np.concatenate(naive.keys)
    )


def test_copied_ring_keeps_its_views_on_its_slab():
    """A deep copy (as the strategy-round benchmark takes) rebinds the
    column views to its own slab, so later edits stay consistent."""
    slab, naive = build_pair(8, 12, 300)
    twin = copy.deepcopy(slab)
    for state in (slab, twin):
        state.consume_at(np.array([3]), np.array([1]))
        batch = state.begin_batch_removal([2, 5])
        batch.remove_owner_guarded(2)
        batch.remove_owner_guarded(5)
        batch.add([777], [20], is_main=True)
        batch.commit()
        state.verify_invariants()
    assert_equivalent(twin, slab)
    assert twin.counts.base is not None
    assert np.shares_memory(twin.counts, twin._wide)


def test_build_above_one_radix_digit():
    """More than 65,536 slots: 17 + 19 bits of sort word, ``uint64``."""
    space = IdSpace(32)
    rng = np.random.default_rng(11)
    ids = np.unique(rng.integers(0, space.size, size=70_000,
                                 dtype=np.uint64))
    keys = rng.integers(0, space.size, size=300_000, dtype=np.uint64)
    owners = np.arange(ids.size)
    slab = RingState.build(space, ids, owners, keys, np.random.default_rng(0))
    naive = NaiveRingState.build(
        space, ids, owners, keys, np.random.default_rng(0)
    )
    assert slab.n_slots > 1 << 16
    np.testing.assert_array_equal(slab.counts, naive.counts)
    np.testing.assert_array_equal(
        np.concatenate(slab.keys), np.concatenate(naive.keys)
    )


# ----------------------------------------------------------------------
# Sybil-retirement edge cases (regressions for the last-slot guard)
# ----------------------------------------------------------------------
def _orphan_sybil_pair(n_extra_sybils=0):
    """(slab, naive) where owner 0's main is gone and only its Sybils
    remain on the ring."""
    slab, naive = build_pair(7, 2, 40)
    # owner 0 gains sybils, then loses its main slot to churn
    sybil_ids = [10, 20] + [30 + i for i in range(n_extra_sybils)]
    for ident in sybil_ids:
        assert slab.insert_slot(ident, 0, is_main=False) == naive.insert_slot(
            ident, 0, is_main=False
        )
    main_slot = int(np.flatnonzero(slab.is_main & (slab.owner == 0))[0])
    assert slab.remove_slot(main_slot) == naive.remove_slot(main_slot)
    return slab, naive


class TestRetireSybilsEdgeCases:
    def test_retire_with_main_gone_keeps_ring_alive(self):
        """Owner's main left under churn: its Sybils still retire."""
        slab, naive = _orphan_sybil_pair()
        got = slab.retire_sybils(0)
        assert got == naive.retire_sybils(0)
        assert got == 2  # other owner's main still alive: all retire
        slab.verify_invariants()
        naive.verify_invariants()
        assert_equivalent(slab, naive)

    def test_sybil_only_remainder_keeps_last_slot(self):
        """When the owner's Sybils are ALL that's left of the ring, the
        last one stays put instead of emptying the ring."""
        slab, naive = _orphan_sybil_pair(n_extra_sybils=1)
        # remove the other owner entirely: ring is now sybil-only
        assert batch_remove_owner(slab, 1) == naive.remove_owner(1)
        n_sybils = slab.n_slots
        assert bool((~slab.is_main).all()) and n_sybils == 3
        got = slab.retire_sybils(0)
        assert got == naive.retire_sybils(0)
        assert got == n_sybils - 1
        assert slab.n_slots == naive.n_slots == 1
        assert not bool(slab.is_main[0])
        slab.verify_invariants()
        naive.verify_invariants()
        assert_equivalent(slab, naive)

    def test_retire_with_live_main_is_unchanged(self):
        """The guard never fires in the normal case: main alive, every
        Sybil retires."""
        slab, naive = build_pair(3, 4, 120)
        for ident in (11, 22, 33):
            slab.insert_slot(ident, 2, is_main=False)
            naive.insert_slot(ident, 2, is_main=False)
        assert slab.retire_sybils(2) == naive.retire_sybils(2) == 3
        assert slab.slots_of_owner(2).size == 1
        slab.verify_invariants()
        naive.verify_invariants()
        assert_equivalent(slab, naive)
