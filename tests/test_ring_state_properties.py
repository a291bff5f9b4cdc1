"""Property-based tests: RingState never loses or invents tasks."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IdSpaceError
from repro.hashspace.idspace import IdSpace
from repro.sim.arcops import responsible_slots
from repro.sim.state import RingState

SPACE = IdSpace(12)


def build(seed: int, n_nodes: int, n_keys: int) -> RingState:
    rng = np.random.default_rng(seed)
    ids = rng.choice(SPACE.size, size=n_nodes, replace=False).astype(np.uint64)
    keys = rng.integers(0, SPACE.size, size=n_keys, dtype=np.uint64)
    return RingState.build(
        SPACE, ids, np.arange(n_nodes, dtype=np.int64), keys, rng
    )


op = st.sampled_from(["insert", "remove", "consume"])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_nodes=st.integers(2, 20),
    n_keys=st.integers(0, 300),
    ops=st.lists(st.tuples(op, st.integers(0, 2**31 - 1)), max_size=25),
)
def test_random_operation_sequences_conserve_tasks(seed, n_nodes, n_keys, ops):
    """Arbitrary insert/remove/consume sequences keep the books balanced:

    consumed_so_far + remaining == n_keys, and every structural invariant
    holds after every operation.
    """
    state = build(seed, n_nodes, n_keys)
    rng = np.random.default_rng(seed ^ 0xABCDEF)
    consumed_total = 0
    next_owner = n_nodes

    for kind, op_seed in ops:
        op_rng = np.random.default_rng(op_seed)
        if kind == "insert":
            ident = int(op_rng.integers(0, SPACE.size))
            try:
                state.insert_slot(ident, owner=next_owner, is_main=True)
                next_owner += 1
            except IdSpaceError:
                pass  # collision: caller would redraw
        elif kind == "remove" and state.n_slots > 1:
            slot = int(op_rng.integers(0, state.n_slots))
            state.remove_slot(slot)
        elif kind == "consume" and state.n_slots > 0:
            slot = int(op_rng.integers(0, state.n_slots))
            take = int(
                min(state.counts[slot], int(op_rng.integers(0, 5)))
            )
            state.consume_at(
                np.array([slot]), np.array([take], dtype=np.int64)
            )
            consumed_total += take
        state.verify_invariants()
        assert consumed_total + state.total_remaining() == n_keys


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), split=st.integers(0, SPACE.size - 1))
def test_insert_then_remove_restores_load(seed, split):
    """Splitting a slot and removing the new slot returns all keys to the
    successor (merge is the inverse of split, up to shuffling)."""
    state = build(seed, n_nodes=5, n_keys=120)
    if state.id_exists(split):
        return
    succ = int(responsible_slots(state.ids, [split])[0])
    succ_load = int(state.counts[succ])
    pos, acquired = state.insert_slot(split, owner=99, is_main=False)
    state.remove_slot(pos)
    state.verify_invariants()
    restored = int(responsible_slots(state.ids, [split])[0])
    assert int(state.counts[restored]) == succ_load
    assert acquired <= succ_load
