"""Micro-benchmarks of the simulator's hot primitives.

Not a paper artifact: these track the performance engineering that makes
the 100-trial paper-scale sweeps feasible (see DESIGN.md §5) —
vectorized consumption, key assignment, split/merge costs, and the
tick-engine suite (grouped-CSR kernel vs the lexsort reference) whose
committed reference lives in ``BENCH_tick_engine.json``.
"""

import copy
import gc
import os
import statistics
import time
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
    """Binary-search lookup of one million task keys' slots on 1000 nodes
    (the reference lookup; the ring build uses the bucketed one)."""
    rng = np.random.default_rng(0)
    ids = np.sort(draw_unique_ids(1000, SPACE_64, rng))
    keys = draw_task_keys(1_000_000, SPACE_64, rng)

    def assign():
        return responsible_slots(ids, keys)

    slots = benchmark(assign)
    assert slots.shape == keys.shape


#: rounds of the paired ring build (each also builds the naive ring)
BUILD_ROUNDS = 15


def test_ring_build_1m_keys(benchmark):
    """The full ``RingState.build``: one million keys onto 1000 nodes
    (bucketed ``int32`` lookup, one in-place sort of composite
    slot/index words, per-slot slices of one grouped key block).

    Each round's setup first times ``NaiveRingState.build`` (binary
    search, stable ``argsort``, per-slot copies) on the same input, and
    the median of the per-round naive/slab ratios is recorded as
    ``extra_info["speedup_vs_naive"]`` (the ratio compare_bench.py
    gates, paired like the churn storm's).
    """
    rng = np.random.default_rng(0)
    ids = draw_unique_ids(1000, SPACE_64, rng)
    owners = np.arange(1000, dtype=np.int64)
    keys = draw_task_keys(1_000_000, SPACE_64, rng)
    naive_s = []

    def time_naive():
        start = time.perf_counter()
        NaiveRingState.build(SPACE_64, ids, owners, keys, rng)
        naive_s.append(time.perf_counter() - start)
        return (), {}

    def build():
        return RingState.build(SPACE_64, ids, owners, keys, rng)

    state = benchmark.pedantic(build, setup=time_naive, rounds=BUILD_ROUNDS)
    assert state.total_remaining() == keys.size
    if benchmark.stats:
        benchmark.extra_info["speedup_vs_naive"] = statistics.median(
            n / s for n, s in zip(naive_s, benchmark.stats.stats.data)
        )


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

#: rounds of each churn storm (five left a 25% IQR on a shared host)
STORM_ROUNDS = 15
#: ring sizes at which the naive churn storm is measured too
NAIVE_STORM_SIZES = (1_000, 10_000)

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
    """The engine's churn tick on one ring batch: the joiners' ids are
    tested against the ring the departures leave in one vectorized
    call, the joins go to the batch as arrays in one ``add``, and one
    commit applies both in one slab pass."""
    for leavers, join_ids, joiners in script:
        batch = state.begin_batch_removal(leavers)
        for owner in leavers:
            batch.remove_owner_guarded(owner)
        taken = batch.ids_exist(np.array(join_ids, dtype=np.uint64))
        seen = set()
        ids, owners = [], []
        for ident, owner, hit in zip(join_ids, joiners, taken.tolist()):
            if not hit and ident not in seen:
                seen.add(ident)
                ids.append(ident)
                owners.append(owner)
        batch.add(ids, owners, is_main=True)
        batch.commit()


@pytest.mark.parametrize("n_slots", [1_000, 10_000, 100_000])
def test_churn_storm_slab(benchmark, n_slots):
    """Batched churn ticks on the slab ring (1% churn/tick).

    At the sizes the naive ring is measured too, each round's setup
    first times the naive storm on its own ring, and the median of the
    per-round naive/slab ratios is recorded as
    ``extra_info["speedup_vs_naive"]`` (the ratio compare_bench.py
    gates).  A shared host drifts between fast and slow spells that
    last seconds; the two halves of a pair share one, whereas the
    separate naive benchmark may run in another.
    """
    script = _churn_storm_script(n_slots, n_ticks=10)
    naive_s = []

    def fresh_ring():
        if n_slots in NAIVE_STORM_SIZES:
            naive = _build_ring(NaiveRingState, n_slots)
            start = time.perf_counter()
            _run_churn_storm_naive(naive, script)
            naive_s.append(time.perf_counter() - start)
        return (_build_ring(RingState, n_slots), script), {}

    def storm(state, script):
        _run_churn_storm_slab(state, script)
        return state

    state = benchmark.pedantic(storm, setup=fresh_ring, rounds=STORM_ROUNDS)
    state.verify_invariants()
    if naive_s and benchmark.stats:
        slab_s = benchmark.stats.stats.data
        benchmark.extra_info["speedup_vs_naive"] = statistics.median(
            n / s for n, s in zip(naive_s, slab_s)
        )


@pytest.mark.parametrize("n_slots", NAIVE_STORM_SIZES)
def test_churn_storm_naive(benchmark, n_slots):
    """The historical per-op np.insert/np.delete churn path."""
    script = _churn_storm_script(n_slots, n_ticks=10)

    def fresh_ring():
        return (_build_ring(NaiveRingState, n_slots), script), {}

    def storm(state, script):
        _run_churn_storm_naive(state, script)
        return state

    state = benchmark.pedantic(storm, setup=fresh_ring, rounds=STORM_ROUNDS)
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
    """Every owner injects 2 Sybils one ``insert_slot`` at a time, then
    each owner retires its Sybils with ``retire_sybils``.  Strategy
    rounds commit through ``commit_round``, so this times the
    single-slot path that main relocation and the adversary plane use."""
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
    ids: dict[int, None] = {}  # drawn order, without repeats
    while len(ids) < n_slots - n_nodes:
        ident = int(rng.integers(0, SPACE_64.size, dtype=np.uint64))
        if ident not in ids and not engine.state.id_exists(ident):
            ids[ident] = None
    insertion = engine.state.begin_batch_insertion()
    insertion.add(list(ids), range(len(ids)), is_main=False)
    insertion.commit()
    for owner in range(len(ids)):  # one Sybil for each of the first owners
        engine.owners.register_sybil(owner)
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
    engine.step()  # warm the cached CSR groups

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
        "relocation",
    ],
)
def test_strategy_round(benchmark, strategy):
    """One whole seeded 1000-node / 100k-task trial of a Sybil strategy,
    or of relocation, which moves main identities instead.

    The strategy round is 80-97% of such a trial, so the trial times the
    round over every phase of a run (early splits, mass roaming past the
    ideal runtime, the idle tail) rather than over a few deep-copied
    rounds, whose medians swung wider between paired runs than the 20%
    bound of ``compare_bench``."""

    def fresh_engine():
        return (TickEngine(SimulationConfig(
            strategy=strategy, n_nodes=1000, n_tasks=100_000, seed=1
        )),), {}

    result = benchmark.pedantic(
        lambda engine: engine.run(), setup=fresh_engine, rounds=5,
        iterations=1,
    )
    assert result.completed
    acted = "relocations" if strategy == "relocation" else "sybils_created"
    assert result.counters[acted] > 0


def _engine_before_round_150():
    """A seed-1 neighbor-injection engine (1000 nodes, 100k tasks) whose
    next strategy round is tick 150's, on a ring of about 2k slots."""
    engine = TickEngine(SimulationConfig(
        strategy="neighbor_injection", n_nodes=1000, n_tasks=100_000, seed=1
    ))
    while engine.tick < 149:
        engine.step()
    assert engine.state.n_slots > 1900
    return engine


def test_strategy_one_round(benchmark):
    """One neighbor-injection decide + commit on a mid-trial ring of
    about 2k slots (seed 1, 1000 nodes, 100k tasks, tick 150), restored
    fresh from a deep copy before each round: the view's Sybil actions
    and their commit, the path ``test_sybil_storm`` does not reach."""
    engine = _engine_before_round_150()

    def fresh_engine():
        copied = copy.deepcopy(engine)
        gc.collect()  # the copy's garbage is not the round's to collect
        return (copied,), {}

    def one_round(engine):
        engine._run_strategy_round()
        return engine

    done = benchmark.pedantic(
        one_round, setup=fresh_engine, rounds=40, iterations=1
    )
    assert done.counters["sybils_created"] > engine.counters["sybils_created"]


# ----------------------------------------------------------------------
# round commit: the tick-150 round's one commit vs its per-slot replay
# ----------------------------------------------------------------------
#: rounds of each round-commit benchmark
COMMIT_ROUNDS = 15


def _decided_round_150():
    """The engine of ``test_strategy_one_round`` with tick 150's round
    decided but not committed: its view holds the round's drops and
    joins, its ring is still the round-start ring."""
    engine = _engine_before_round_150()
    engine.view.begin_round()
    engine.strategy.decide(engine.view)
    assert engine.view._dropped and engine.view._keyed
    return engine


def _replay_sequentially(engine) -> None:
    """Apply the decided round to the ring one slot at a time: each
    retired Sybil by ``remove_slot``, then each new one, in join order,
    by ``insert_slot`` — the per-call path the round commit replaces."""
    view, state = engine.view, engine.state
    n = len(view._base_counts)
    for slot in sorted(view._dropped, reverse=True):
        state.remove_slot(slot)
    for ident, owner in zip(view._ids[n:], view._owner[n:]):
        state.insert_slot(ident, owner, is_main=False)


def test_round_commit(benchmark):
    """Commit tick 150's decided neighbor-injection round (887 retired
    and 894 new Sybils on 1,967 slots) with one ``SimView.end_round``,
    restored fresh from a deep copy each round.

    Each round's setup first times :func:`_replay_sequentially` on its
    own copy, and the median of the per-round sequential/commit ratios
    is recorded as ``extra_info["speedup_vs_sequential"]`` (the ratio
    compare_bench.py gates; a within-run ratio, like the churn storm's).
    """
    engine = _decided_round_150()
    sequential_s = []

    def fresh_engine():
        replay = copy.deepcopy(engine)
        gc.collect()
        start = time.perf_counter()
        _replay_sequentially(replay)
        sequential_s.append(time.perf_counter() - start)
        copied = copy.deepcopy(engine)
        gc.collect()  # the copies' garbage is not the commit's to collect
        return (copied, replay.state), {}

    def commit(engine, replayed):
        engine.view.end_round()
        return engine, replayed

    done, replayed = benchmark.pedantic(
        commit, setup=fresh_engine, rounds=COMMIT_ROUNDS, iterations=1
    )
    state = done.state
    assert state.ids.tolist() == replayed.ids.tolist()
    assert state.counts.tolist() == replayed.counts.tolist()
    state.verify_invariants()
    if benchmark.stats:
        benchmark.extra_info["speedup_vs_sequential"] = statistics.median(
            q / c for q, c in zip(sequential_s, benchmark.stats.stats.data)
        )


def test_round_commit_sequential(benchmark):
    """The same decided round applied one ``remove_slot`` /
    ``insert_slot`` at a time (see :func:`_replay_sequentially`)."""
    engine = _decided_round_150()

    def fresh_engine():
        copied = copy.deepcopy(engine)
        gc.collect()
        return (copied,), {}

    def replay(engine):
        _replay_sequentially(engine)
        return engine

    done = benchmark.pedantic(
        replay, setup=fresh_engine, rounds=COMMIT_ROUNDS, iterations=1
    )
    done.state.verify_invariants()
