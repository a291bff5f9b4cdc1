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

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import IdSpaceError
from repro.hashspace.idspace import IdSpace
from repro.sim.reference import NaiveRingState
from repro.sim.state import RingState

SPACE = IdSpace(12)


def build_pair(seed, n_nodes, n_keys):
    """Identically-seeded (slab, naive) rings over the same initial data."""
    setup = np.random.default_rng(seed)
    ids = setup.choice(
        SPACE.size, size=n_nodes, replace=False
    ).astype(np.uint64)
    keys = setup.integers(0, SPACE.size, size=n_keys, dtype=np.uint64)
    owners = np.arange(n_nodes, dtype=np.int64)
    slab = RingState.build(
        SPACE, ids, owners, keys, np.random.default_rng(seed + 1)
    )
    naive = NaiveRingState.build(
        SPACE, ids, owners, keys, np.random.default_rng(seed + 1)
    )
    return slab, naive


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
            assert slab.remove_owner(owner) == naive.remove_owner(owner)
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

    removal = slab.begin_batch_removal()
    for owner in leavers:
        owner = owner % n_nodes
        moved = removal.remove_owner_guarded(owner)
        # replay sequentially on the reference
        if naive.n_slots - naive.slots_of_owner(owner).size >= 1:
            assert moved == naive.remove_owner(owner)
        else:
            assert moved is None
    removal.commit()

    insertion = slab.begin_batch_insertion()
    for ident in joiner_ids:
        if insertion.id_exists(ident):
            continue
        acquired = insertion.add(ident, next_owner, is_main=True)
        _, naive_acquired = naive.insert_slot(
            ident, next_owner, is_main=True
        )
        assert acquired == naive_acquired
        next_owner += 1
    insertion.commit()

    slab.verify_invariants()
    naive.verify_invariants()
    assert_equivalent(slab, naive)


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
        assert slab.remove_owner(1) == naive.remove_owner(1)
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
