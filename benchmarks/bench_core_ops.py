"""Micro-benchmarks of the simulator's hot primitives.

Not a paper artifact: these track the performance engineering that makes
the 100-trial paper-scale sweeps feasible (see DESIGN.md §5) —
vectorized consumption, key assignment, split/merge costs, and the
tick-engine suite (grouped-CSR kernel vs the lexsort reference) whose
committed reference lives in ``BENCH_tick_engine.json``.
"""

import copy
import os
import types

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.hashspace.idspace import SPACE_64
from repro.sim.arcops import responsible_slots
from repro.sim.engine import TickEngine
from repro.sim.kernels import consume_grouped_reference
from repro.sim.reference import NaiveRingState
from repro.sim.state import RingState
from repro.sim.workload import draw_task_keys, draw_unique_ids


@pytest.fixture
def loaded_state(rng=None):
    rng = np.random.default_rng(0)
    ids = draw_unique_ids(1000, SPACE_64, rng)
    keys = draw_task_keys(100_000, SPACE_64, rng)
    return RingState.build(
        SPACE_64, ids, np.arange(1000, dtype=np.int64), keys, rng
    )


def test_initial_assignment_1m_keys(benchmark):
    """Sorting + bucketing one million task keys onto 1000 nodes."""
    rng = np.random.default_rng(0)
    ids = np.sort(draw_unique_ids(1000, SPACE_64, rng))
    keys = draw_task_keys(1_000_000, SPACE_64, rng)

    def assign():
        return responsible_slots(ids, keys)

    slots = benchmark(assign)
    assert slots.shape == keys.shape


def test_engine_tick_throughput_baseline(benchmark):
    """Ticks/second on the vectorized fast path (no Sybils)."""
    engine = TickEngine(
        SimulationConfig(n_nodes=1000, n_tasks=1_000_000, seed=0)
    )

    def hundred_ticks():
        for _ in range(100):
            engine.step()

    benchmark.pedantic(hundred_ticks, rounds=3, iterations=1)
    assert engine.tick >= 300


def test_engine_tick_throughput_with_sybils(benchmark):
    """Ticks/second on the multi-slot path (random injection active)."""
    engine = TickEngine(
        SimulationConfig(
            strategy="random_injection",
            n_nodes=1000,
            n_tasks=1_000_000,
            seed=0,
        )
    )
    for _ in range(30):  # warm up: let sybils appear
        engine.step()

    def fifty_ticks():
        for _ in range(50):
            engine.step()

    benchmark.pedantic(fifty_ticks, rounds=3, iterations=1)
    assert engine.state.n_sybil_slots > 0


def test_split_merge_cycle(benchmark, loaded_state):
    """Insert a Sybil into the heaviest slot, then remove it."""
    state = loaded_state
    rng = np.random.default_rng(1)

    def cycle():
        slot = int(np.argmax(state.counts))
        start, end = state.slot_arc(slot)
        ident = state.space.random_in_interval(rng, start, end)
        if state.id_exists(ident):
            return
        pos, _ = state.insert_slot(ident, owner=2000, is_main=False)
        state.remove_slot(pos)

    benchmark(cycle)
    state.verify_invariants()


# ----------------------------------------------------------------------
# churn-storm / Sybil-storm: slab vs. the naive np.insert/np.delete ring
# ----------------------------------------------------------------------
# These are the structural-op stress tests behind the slab rewrite
# (DESIGN.md §5): under aggressive churn or heavy Sybil injection the
# per-op full-array copies of the naive ring dominate the tick loop.
# The ``[naive]`` variants run the reference implementation so the two
# timings in one benchmark JSON document the speedup directly.

def _build_ring(cls, n_slots, seed=0):
    rng = np.random.default_rng(seed)
    ids = draw_unique_ids(n_slots, SPACE_64, rng)
    keys = draw_task_keys(10 * n_slots, SPACE_64, rng)
    return cls.build(
        SPACE_64, ids, np.arange(n_slots, dtype=np.int64), keys, rng
    )


def _churn_storm_script(n_slots, n_ticks, churn=0.01, seed=42):
    """Precompute leaver owners and joiner ids for a churn storm.

    1% of owners leave and as many join per tick; the same script drives
    both implementations so the comparison measures structural-op cost,
    not trajectory differences.
    """
    rng = np.random.default_rng(seed)
    per_tick = max(1, int(n_slots * churn))
    live = list(range(n_slots))
    next_owner = n_slots
    script = []
    for _ in range(n_ticks):
        picks = rng.choice(len(live), size=per_tick, replace=False)
        leavers = [live[i] for i in picks]
        for i in sorted(picks, reverse=True):
            live.pop(i)
        join_ids = rng.integers(
            0, SPACE_64.size, size=per_tick, dtype=np.uint64
        ).tolist()  # plain ints, as the engine's id-draw hands over
        joiners = list(range(next_owner, next_owner + per_tick))
        live.extend(joiners)
        next_owner += per_tick
        script.append((leavers, join_ids, joiners))
    return script


def _run_churn_storm_naive(state, script):
    for leavers, join_ids, joiners in script:
        for owner in leavers:
            if state.n_slots - state.slots_of_owner(owner).size >= 1:
                state.remove_owner(owner)
        for ident, owner in zip(join_ids, joiners):
            if not state.id_exists(ident):
                state.insert_slot(ident, owner, is_main=True)


def _run_churn_storm_slab(state, script):
    for leavers, join_ids, joiners in script:
        removal = state.begin_batch_removal(leavers)
        for owner in leavers:
            removal.remove_owner_guarded(owner)
        removal.commit()
        insertion = state.begin_batch_insertion()
        for ident, owner in zip(join_ids, joiners):
            if not insertion.id_exists(ident):
                insertion.add(ident, owner, is_main=True)
        insertion.commit()


@pytest.mark.parametrize("n_slots", [1_000, 10_000, 100_000])
def test_churn_storm_slab(benchmark, n_slots):
    """Batched churn ticks on the slab ring (1% churn/tick)."""
    script = _churn_storm_script(n_slots, n_ticks=10)

    def fresh_ring():
        return (_build_ring(RingState, n_slots), script), {}

    def storm(state, script):
        _run_churn_storm_slab(state, script)
        return state

    state = benchmark.pedantic(storm, setup=fresh_ring, rounds=5)
    state.verify_invariants()


@pytest.mark.parametrize("n_slots", [1_000, 10_000])
def test_churn_storm_naive(benchmark, n_slots):
    """The historical per-op np.insert/np.delete churn path."""
    script = _churn_storm_script(n_slots, n_ticks=10)

    def fresh_ring():
        return (_build_ring(NaiveRingState, n_slots), script), {}

    def storm(state, script):
        _run_churn_storm_naive(state, script)
        return state

    state = benchmark.pedantic(storm, setup=fresh_ring, rounds=5)
    state.verify_invariants()


def _sybil_storm_ids(n_slots, per_owner, seed=7):
    rng = np.random.default_rng(seed)
    n_sybils = n_slots * per_owner
    return rng.integers(
        0, SPACE_64.size, size=n_sybils, dtype=np.uint64
    ).tolist()


def _run_sybil_storm(state, sybil_ids, n_owners, per_owner):
    injected = 0
    for i, ident in enumerate(sybil_ids):
        if not state.id_exists(ident):
            state.insert_slot(ident, i % n_owners, is_main=False)
            injected += 1
    for owner in range(n_owners):
        state.retire_sybils(owner)
    return injected


@pytest.mark.parametrize(
    "cls,n_slots",
    [
        (RingState, 1_000),
        (RingState, 10_000),
        (NaiveRingState, 1_000),
        (NaiveRingState, 10_000),
    ],
    ids=["slab-1k", "slab-10k", "naive-1k", "naive-10k"],
)
def test_sybil_storm(benchmark, cls, n_slots):
    """Every owner injects 2 Sybils, then all Sybils are retired —
    the worst-case structural load a strategy round can generate."""
    per_owner = 2
    sybil_ids = _sybil_storm_ids(n_slots, per_owner)

    def fresh_ring():
        return (_build_ring(cls, n_slots),), {}

    def storm(state):
        _run_sybil_storm(state, sybil_ids, n_slots, per_owner)
        return state

    state = benchmark.pedantic(storm, setup=fresh_ring, rounds=5)
    state.verify_invariants()
    assert state.n_sybil_slots == 0


# ----------------------------------------------------------------------
# tick-engine suite: grouped-CSR kernel vs the lexsort reference
# ----------------------------------------------------------------------
# A Sybil-laden ring (every owner keeps its main identity, half carry a
# Sybil) forces the multi-slot consumption path at 10^4 / 10^5 — and,
# under REPRO_SCALE=full, 10^6 — slots.  The ``[reference]`` variant
# runs the historical per-tick lexsort consumption so one JSON file
# documents the kernel speedup.  The committed reference is
# BENCH_tick_engine.json and ``compare_bench.py`` prints/gates the
# reference-vs-numpy ratio.

TICK_ENGINE_SIZES = [10_000, 100_000]
if os.environ.get("REPRO_SCALE") == "full":
    TICK_ENGINE_SIZES.append(1_000_000)


def _sybil_laden_engine(n_slots):
    """Engine whose ring has ``n_slots`` slots, one third of them Sybils."""
    n_nodes = (2 * n_slots) // 3
    config = SimulationConfig(
        n_nodes=n_nodes,
        n_tasks=30 * n_slots,  # never drains inside the timed ticks
        max_sybils=6,
        seed=0,
    )
    engine = TickEngine(config)
    rng = np.random.default_rng(99)
    insertion = engine.state.begin_batch_insertion()
    injected = 0
    owner = 0
    while injected < n_slots - n_nodes:
        ident = int(rng.integers(0, SPACE_64.size, dtype=np.uint64))
        if insertion.id_exists(ident):
            continue
        insertion.add(ident, owner, is_main=False)
        engine.owners.register_sybil(owner)
        injected += 1
        owner += 1
    insertion.commit()
    assert engine.state.n_slots == n_slots
    return engine


def _reference_consumption_engine(n_slots):
    """The pre-PR-6 engine: per-tick lexsort, no CSR cache, no kernels."""
    engine = _sybil_laden_engine(n_slots)

    def _consume_reference(self):
        state = self.state
        return consume_grouped_reference(
            state.counts, state.owner, self.owners.rate
        )

    engine._consume_multi_slot = types.MethodType(
        _consume_reference, engine
    )
    return engine


@pytest.mark.parametrize("n_slots", TICK_ENGINE_SIZES)
@pytest.mark.parametrize("variant", ["reference", "numpy"])
def test_tick_engine(benchmark, n_slots, variant):
    """Multi-slot tick throughput: the engine's kernel vs the reference."""
    if variant == "reference":
        engine = _reference_consumption_engine(n_slots)
    else:
        engine = _sybil_laden_engine(n_slots)
    engine.step()  # warm caches (owner index, CSR groups)

    def five_ticks():
        for _ in range(5):
            engine.step()

    benchmark.pedantic(five_ticks, rounds=5, iterations=1)
    assert engine.total_consumed > 0
    assert engine.state.n_sybil_slots > 0  # multi-slot path engaged


def test_full_trial_baseline(benchmark):
    """One full no-strategy trial at paper scale (1000n / 1e5t)."""

    def trial():
        return TickEngine(
            SimulationConfig(n_nodes=1000, n_tasks=100_000, seed=1)
        ).run()

    result = benchmark.pedantic(trial, rounds=1, iterations=1)
    assert result.completed


def test_full_trial_random_injection(benchmark):
    """One full random-injection trial at paper scale (1000n / 1e5t)."""

    def trial():
        return TickEngine(
            SimulationConfig(
                strategy="random_injection",
                n_nodes=1000,
                n_tasks=100_000,
                seed=1,
            )
        ).run()

    result = benchmark.pedantic(trial, rounds=1, iterations=1)
    assert result.completed
    assert result.runtime_factor < 2.5


@pytest.mark.parametrize(
    "strategy",
    [
        "random_injection",
        "neighbor_injection",
        "smart_neighbor_injection",
        "invitation",
    ],
)
def test_strategy_round(benchmark, strategy):
    """One decision round — ``decide`` plus the round commit — on a
    1000-node / 100k-task ring that already carries Sybils.  The
    strategy round is the phase that dominates a Sybil trial."""
    warm = TickEngine(
        SimulationConfig(
            strategy=strategy, n_nodes=1000, n_tasks=100_000, seed=1
        )
    )
    # past the ideal runtime (100 ticks): most owners are idle and
    # roaming, so the round retires and re-creates Sybils en masse
    for _ in range(101):
        warm.step()
    assert warm.state.n_sybil_slots > 0

    def fresh_copy():
        return (copy.deepcopy(warm),), {}

    def strategy_round(engine):
        view = engine.view
        view.begin_round()
        engine.strategy.decide(view)
        view.end_round()
        return view.stats

    stats = benchmark.pedantic(
        strategy_round, setup=fresh_copy, rounds=10, iterations=1
    )
    assert stats.sybils_created + stats.invitations_sent > 0
