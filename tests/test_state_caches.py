"""Differential tests for the ring's consumption-side caches.

* ``RingState.consumption_groups`` groups only the slots that hold keys
  when a structural epoch starts; the grouped kernel over those groups
  must consume exactly what the lexsort reference does over every slot,
  tick after tick, including after ``add_tasks`` refills a drained slot
  inside the epoch.
* ``RingState.total_remaining`` is cached; it must equal
  ``counts.sum()`` after every mutator, batch and round commit, and
  consumption.
* ``TickEngine._measure`` counts idle owners from the slot counts when
  every in-network owner holds exactly one slot; the count must equal
  the owner-loads one on churn, Sybil, crash and adversary runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import AdversaryModel, FailureModel, SimulationConfig
from repro.hashspace.idspace import IdSpace
from repro.sim.arcops import arc_mask, responsible_slots
from repro.sim.engine import TickEngine
from repro.sim.kernels import consume_grouped, consume_grouped_reference
from repro.sim.state import RingState

SPACE = IdSpace(16)


def multi_slot_ring(seed: int) -> tuple[RingState, np.ndarray]:
    """A seeded ring of mains and Sybils, some drained to zero, plus
    heterogeneous per-owner rates (high ones take the residual path)."""
    rng = np.random.default_rng(seed)
    n_owners = int(rng.integers(2, 30))
    ids = rng.choice(SPACE.size, n_owners, replace=False)
    keys = rng.integers(
        0, SPACE.size, size=int(rng.integers(0, 3000)), dtype=np.uint64
    )
    state = RingState.build(
        SPACE, ids, np.arange(n_owners, dtype=np.int64), keys,
        np.random.default_rng(seed + 1),
    )
    for _ in range(int(rng.integers(0, 3 * n_owners))):
        ident = int(rng.integers(0, SPACE.size))
        if not state.id_exists(ident):
            state.insert_slot(
                ident, int(rng.integers(0, n_owners)), is_main=False
            )
    drained = np.flatnonzero(rng.random(state.n_slots) < 0.3)
    state.consume_at(drained, state.counts[drained].copy())
    rates = rng.integers(0, 120, size=n_owners, dtype=np.int64)
    return state, rates


def grouped_tick(state: RingState, rates: np.ndarray) -> int:
    groups = state.consumption_groups()
    consumed = consume_grouped(
        state.counts, rates, groups.order, groups.starts, groups.sizes,
        groups.owners,
    )
    state.note_consumed(consumed)
    return consumed


class TestActiveSlotGroups:
    def test_groups_hold_only_slots_with_keys(self):
        state, _ = multi_slot_ring(3)
        groups = state.consumption_groups()
        assert sorted(groups.order.tolist()) == (
            np.flatnonzero(state.counts).tolist()
        )
        for start, size, owner in zip(
            groups.starts.tolist(), groups.sizes.tolist(),
            groups.owners.tolist(),
        ):
            slots = groups.order[start : start + size]
            assert (state.owner[slots] == owner).all()
            assert (np.diff(slots) > 0).all()  # ascending ring position

    @pytest.mark.parametrize("seed", range(40))
    def test_epoch_matches_reference(self, seed):
        state, rates = multi_slot_ring(seed)
        expected = state.counts.copy()
        for _ in range(12):  # one epoch: the groups are built once
            want = consume_grouped_reference(expected, state.owner, rates)
            assert grouped_tick(state, rates) == want
            np.testing.assert_array_equal(state.counts, expected)
            assert state.total_remaining() == int(expected.sum())

    @pytest.mark.parametrize("seed", range(20))
    def test_add_tasks_refills_a_drained_slot_inside_an_epoch(self, seed):
        state, rates = multi_slot_ring(seed)
        rng = np.random.default_rng(seed + 99)
        grouped_tick(state, rates)
        empty = np.flatnonzero(state.counts == 0)
        if not empty.size:
            pytest.skip("no drained slot on this ring")
        slot = int(empty[rng.integers(0, empty.size)])
        # keys inside the drained slot's arc (pred, own]
        pred, own = state.slot_arc(slot)
        gap = (own - pred) % SPACE.size or SPACE.size
        offsets = rng.integers(1, gap + 1, size=25)
        state.add_tasks(((pred + offsets) % SPACE.size).astype(np.uint64))
        assert state.counts[slot] == 25
        assert slot in state.consumption_groups().order.tolist()
        expected = state.counts.copy()
        for _ in range(6):
            want = consume_grouped_reference(expected, state.owner, rates)
            assert grouped_tick(state, rates) == want
            np.testing.assert_array_equal(state.counts, expected)


class TestCachedRemaining:
    def check(self, state: RingState) -> None:
        assert state.total_remaining() == int(state.counts.sum())

    def test_every_mutator(self):
        state, rates = multi_slot_ring(11)
        rng = np.random.default_rng(5)
        self.check(state)
        grouped_tick(state, rates)
        self.check(state)
        state.consume_at(np.array([0]), np.array([state.counts[0] // 2]))
        self.check(state)
        state.add_tasks(rng.integers(0, SPACE.size, 40, dtype=np.uint64))
        self.check(state)
        ident = next(
            i for i in rng.integers(0, SPACE.size, 50).tolist()
            if not state.id_exists(i)
        )
        state.insert_slot(ident, 0, is_main=False)
        self.check(state)
        state.remove_slot(int(rng.integers(0, state.n_slots)))
        self.check(state)
        state.retire_sybils(0)
        self.check(state)
        batch = state.begin_batch_removal([1])
        batch.remove_owner_guarded(1)
        batch.commit()
        self.check(state)
        state.counts[:] //= 2  # a caller mutating counts directly ...
        state.mark_loads_dirty()  # ... says so
        self.check(state)

    def test_consume_at_with_a_repeated_slot(self):
        # fancy-index subtraction applies one amount per repeated slot
        state, _ = multi_slot_ring(13)
        slot = int(np.argmax(state.counts))
        self.check(state)
        state.consume_at(np.array([slot, slot]), np.array([1, 1]))
        self.check(state)

    def test_round_and_batch_commits(self):
        state, rates = multi_slot_ring(12)
        rng = np.random.default_rng(6)
        grouped_tick(state, rates)
        self.check(state)
        dead = np.flatnonzero(state.counts == 0)[:3].tolist()
        if len(dead) == state.n_slots:
            dead = dead[:-1]
        # one fresh Sybil per arc, each with the mask of what it takes
        fresh: list[int] = []
        keyed: dict[int, list] = {}
        for ident in rng.integers(0, SPACE.size, 20).tolist():
            slot = int(responsible_slots(state.ids, [ident])[0])
            if state.id_exists(ident) or slot in keyed or slot in dead:
                continue
            taken = arc_mask(
                state.remaining_keys(slot), state.pred_id(slot), ident,
                SPACE.size,
            )
            keyed[slot] = [(len(fresh), taken)]
            fresh.append(ident)
        assert any(taken.any() for (_, taken), in keyed.values())
        state.commit_round(dead, fresh, [0] * len(fresh), keyed)
        self.check(state)
        state.verify_invariants()
        batch = state.begin_batch_removal([2])
        batch.remove_owner_guarded(2)
        ident = next(
            i for i in rng.integers(0, SPACE.size, 50).tolist()
            if not batch.ids_exist(np.array([i], dtype=np.uint64))[0]
        )
        batch.add([ident], [2], is_main=True)
        batch.commit()
        self.check(state)

    def test_crash_commit_counts_the_lost_keys(self):
        state, _ = multi_slot_ring(13)
        before = state.total_remaining()
        removal = state.begin_batch_removal([1])
        recovered, lost = removal.crash_owner_guarded(1, 0)
        removal.commit()
        self.check(state)
        assert state.total_remaining() == before - lost


#: one config per ring shape the fast idle count must agree on
IDLE_CONFIGS = {
    "churn": SimulationConfig(
        strategy="churn", n_nodes=60, n_tasks=4000, churn_rate=0.02,
        seed=3,
    ),
    "sybil": SimulationConfig(
        strategy="neighbor_injection", n_nodes=60, n_tasks=4000, seed=4,
    ),
    "crash": SimulationConfig(
        strategy="churn", n_nodes=60, n_tasks=4000, churn_rate=0.05,
        failures=FailureModel(crash_fraction=0.3, replication_factor=1),
        seed=5,
    ),
    "adversary": SimulationConfig(
        strategy="invitation", n_nodes=50, n_tasks=3000, churn_rate=0.02,
        max_sybils=5, seed=6, max_ticks=1500,
        adversary=AdversaryModel(
            eclipse_sybils=12, eclipse_arc_fraction=0.01, free_riders=2,
            churn_amplification=0.05, attack_tick=5, join_cost=2,
            detection_interval=10,
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(IDLE_CONFIGS))
def test_fast_idle_count_matches_owner_loads(name):
    engine = TickEngine(IDLE_CONFIGS[name].with_updates(collect_timeseries=True))
    fast = 0
    while not (engine.finished or engine.terminated) and (
        engine.tick < engine.config.max_ticks
    ):
        engine.step()
        if engine.terminated:
            break
        idle = int((engine.network_loads() == 0).sum())
        assert engine.timeseries.idle_owners[-1] == idle, engine.tick
        assert engine.timeseries.remaining[-1] == int(
            engine.state.counts.sum()
        )
        state = engine.state
        fast += not state.n_sybil_slots and (
            state.n_slots == engine.owners.n_in_network
        )
    if name in ("churn", "crash"):
        assert fast > 0  # the fast count was exercised
