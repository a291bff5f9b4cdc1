"""Deferred strategy rounds against the per-call oracle.

``SimView`` defers a round's Sybil creations and retirements into round
lists that ``end_round`` commits in one ``RingState.commit_round``
pass.  :class:`~tests.percall_view.PerCallSimView` applies every
action to the ring immediately, as the simulator did before.  Both must
produce the same results: the same whole-result fingerprint, the same
final generator state, and the same trace event stream — traced, and
untraced as the benchmarks run it.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import repro.sim.engine as engine_module
from repro.config import AdversaryModel, SimulationConfig
from repro.core.registry import strategy_names
from repro.errors import SimulationError
from repro.obs.metrics import result_fingerprint
from repro.obs.trace import TraceRecorder
from repro.sim.engine import TickEngine
from repro.sim.view import SimView
from tests.percall_view import PerCallSimView

SYBIL_STRATEGIES = [n for n in strategy_names() if n != "none"]

GRID = [
    (strategy, placement, churn, threshold)
    for strategy, placement, churn, threshold in itertools.product(
        SYBIL_STRATEGIES, ("random", "midpoint", "median"), (0.0, 0.01), (0, 3)
    )
    # churn at rate 0 is the no-strategy baseline (and warns)
    if not (strategy == "churn" and churn == 0.0)
]


def run_with(config: SimulationConfig, view_cls, monkeypatch, traced=True):
    """(fingerprint, final generator state, trace events) of one run;
    untraced, the view emits nothing and the events are None."""
    monkeypatch.setattr(engine_module, "SimView", view_cls)
    trace = TraceRecorder() if traced else None
    engine = TickEngine(config, trace=trace)
    result = engine.run()
    events = trace and [(e.tick, e.kind, e.fields) for e in trace.events]
    return result_fingerprint(result), engine.rng.bit_generator.state, events


def assert_same_run(config: SimulationConfig, monkeypatch) -> None:
    deferred = run_with(config, SimView, monkeypatch)
    per_call = run_with(config, PerCallSimView, monkeypatch)
    assert deferred[0] == per_call[0], "result fingerprint"
    assert deferred[1] == per_call[1], "final generator state"
    assert deferred[2] == per_call[2], "trace event stream"


def grid_config(strategy, placement, churn, threshold) -> SimulationConfig:
    return SimulationConfig(
        strategy=strategy,
        n_nodes=60,
        n_tasks=3000,
        placement=placement,
        churn_rate=churn,
        sybil_threshold=threshold,
        seed=7,
    )


GRID_IDS = [f"{s}-{p}-c{c}-t{t}" for s, p, c, t in GRID]


class TestDifferential:
    @pytest.mark.parametrize(
        "strategy,placement,churn,threshold", GRID, ids=GRID_IDS
    )
    def test_matches_per_call(
        self, strategy, placement, churn, threshold, monkeypatch
    ):
        config = grid_config(strategy, placement, churn, threshold)
        assert_same_run(config, monkeypatch)

    @pytest.mark.parametrize(
        "strategy,placement,churn,threshold", GRID, ids=GRID_IDS
    )
    def test_matches_per_call_untraced(
        self, strategy, placement, churn, threshold, monkeypatch
    ):
        """The untraced view, which skips building event fields, is the
        one the benchmarks run."""
        config = grid_config(strategy, placement, churn, threshold)
        deferred = run_with(config, SimView, monkeypatch, traced=False)
        per_call = run_with(config, PerCallSimView, monkeypatch, traced=False)
        assert deferred[0] == per_call[0], "result fingerprint"
        assert deferred[1] == per_call[1], "final generator state"

    def test_adversary_enabled(self, monkeypatch):
        config = SimulationConfig(
            strategy="invitation",
            n_nodes=50,
            n_tasks=3000,
            churn_rate=0.02,
            max_sybils=5,
            seed=424242,
            adversary=AdversaryModel(
                eclipse_sybils=12,
                eclipse_arc_fraction=0.01,
                free_riders=3,
                churn_amplification=0.05,
                attack_tick=5,
                join_cost=2,
                detection_interval=10,
            ),
        )
        assert_same_run(config, monkeypatch)

    def test_join_cost(self, monkeypatch):
        config = SimulationConfig(
            strategy="random_injection",
            n_nodes=80,
            n_tasks=4000,
            seed=3,
            adversary=AdversaryModel(join_cost=2),
        )
        assert_same_run(config, monkeypatch)

    @pytest.mark.parametrize(
        "strategy", ["random_injection", "invitation", "neighbor_injection"]
    )
    def test_tiny_rings(self, strategy, monkeypatch):
        """Two-node rings under heavy churn hit the full-circle arcs and
        the never-empty guard."""
        config = SimulationConfig(
            strategy=strategy, n_nodes=2, n_tasks=60, churn_rate=0.5,
            bits=12, placement="median", seed=2,
        )
        assert_same_run(config, monkeypatch)


# Whole-result fingerprints of the four benchmarked Sybil strategies,
# computed with per-call actions before rounds were deferred.
GOLDEN = [
    ("random_injection", 148, "e19ec46dab57ab7f"),
    ("neighbor_injection", 192, "5756da6927979c1b"),
    ("smart_neighbor_injection", 167, "8e4964e6a268c761"),
    ("invitation", 224, "c1155aed0968e4ab"),
]


@pytest.mark.parametrize("strategy,ticks,fingerprint", GOLDEN,
                         ids=[g[0] for g in GOLDEN])
def test_golden_fingerprints(strategy, ticks, fingerprint):
    config = SimulationConfig(
        strategy=strategy, n_nodes=200, n_tasks=20_000, seed=2026
    )
    result = TickEngine(config).run()
    assert result.runtime_ticks == ticks
    assert result_fingerprint(result) == fingerprint


def ring_size(view) -> int:
    return len(view.successor_window(0, 10**9)[0]) + 1


def read_everything(view, engine) -> dict:
    """Every strategy-visible read, over the whole ring: each slot's
    owner, gap and count as the one-slot window of its predecessor, and
    the windows across the wrap."""
    n = ring_size(view)
    owners = engine.owners.network_indices.tolist()
    slots = range(n)
    return {
        "n": n,
        "ids": [view.slot_id(s) for s in slots],
        "slots": [
            view.successor_window((s - 1) % n, 1, counts=True) for s in slots
        ],
        "succ": view.successor_window(n - 1, 3, counts=True),
        "pred": view.predecessor_window(0, 3),
        "main": [view.main_slot(o) for o in owners],
        "heaviest": [view.heaviest_slot(o) for o in owners],
        "live": [view.live_owner_load(o) for o in owners],
    }


@pytest.mark.parametrize("placement", ["random", "midpoint", "median"])
def test_reads_match_after_every_action(placement):
    """Mid-round reads through the round equal the ring's own reads
    after the same actions applied one by one — deferred retirements of
    keyless Sybils as well as the ones that fall back to committing
    (retiring keyed or just-created Sybils)."""
    config = SimulationConfig(
        strategy="random_injection", n_nodes=40, n_tasks=2000,
        placement=placement, seed=11,
    )
    deferred = TickEngine(config)
    per_call = TickEngine(config)
    per_call.view = PerCallSimView(
        config, per_call.state, per_call.owners, per_call.rng
    )
    script = np.random.default_rng(5)
    for engine in (deferred, per_call):
        # run into the balancing phase: idle owners with keyless Sybils
        for _ in range(26):
            engine.step()
        engine.view.begin_round()
    for _ in range(120):
        kind = int(script.integers(0, 3))
        owner = int(script.choice(deferred.owners.network_indices))
        slot = int(script.integers(0, deferred.state.n_slots))
        outcomes = []
        for engine in (deferred, per_call):
            view = engine.view
            if kind == 0 and view.can_add_sybil(owner):
                outcomes.append(view.create_sybil_random(owner))
            elif kind == 1 and view.can_add_sybil(owner):
                n = ring_size(view)
                outcomes.append(view.create_sybil_in_slot_arc(owner, slot % n))
            else:
                outcomes.append(view.retire_sybils(owner))
        assert outcomes[0] == outcomes[1]
        assert read_everything(deferred.view, deferred) == read_everything(
            per_call.view, per_call
        )
    deferred.view.end_round()
    assert np.array_equal(deferred.state.ids, per_call.state.ids)
    assert np.array_equal(deferred.state.counts, per_call.state.counts)
    for i in range(deferred.state.n_slots):
        assert np.array_equal(
            deferred.state.remaining_keys(i), per_call.state.remaining_keys(i)
        )
    deferred.state.verify_invariants()
    assert (
        deferred.rng.bit_generator.state == per_call.rng.bit_generator.state
    )


class TestCommitShape:
    def test_paper_strategies_never_use_per_slot_primitives(self):
        """Every Sybil action of a default run is deferred: the ring's
        single-slot insert and retire are never called, retirements
        never open a batch removal, and each round makes at most one
        round commit and opens at most one batch insertion."""
        for strategy in ("random_injection", "neighbor_injection",
                         "smart_neighbor_injection", "invitation"):
            engine = TickEngine(SimulationConfig(
                strategy=strategy, n_nodes=100, n_tasks=5000, seed=4,
            ))
            state = engine.state
            calls: dict[str, int] = {}

            def counted(name):
                method = getattr(state, name)

                def wrapper(*args, **kwargs):
                    calls[name] = calls.get(name, 0) + 1
                    return method(*args, **kwargs)

                setattr(state, name, wrapper)

            for name in ("insert_slot", "retire_sybils", "remove_slot"):
                counted(name)
            rounds = []
            original = engine._run_strategy_round

            def round_once(*args):
                before = dict(calls)
                original(*args)
                rounds.append({
                    k: calls.get(k, 0) - before.get(k, 0) for k in calls
                })

            engine._run_strategy_round = round_once
            counted("begin_batch_removal")
            counted("begin_batch_insertion")
            counted("commit_round")
            engine.run()
            assert calls.get("insert_slot", 0) == 0
            assert calls.get("retire_sybils", 0) == 0
            assert calls.get("remove_slot", 0) == 0
            assert calls.get("begin_batch_removal", 0) == 0
            assert engine.counters["sybils_created"] > 0
            for per_round in rounds:
                assert per_round.get("commit_round", 0) <= 1
                assert per_round.get("begin_batch_insertion", 0) <= 1

    def test_closed_round_is_released(self):
        """Between rounds the view holds no round state: the closed
        round's lists, pending joins, split masks and base maps are
        dropped when it commits, not kept through the consumption and
        measurement phases."""
        engine = TickEngine(SimulationConfig(
            strategy="neighbor_injection", n_nodes=60, n_tasks=3000, seed=7,
        ))
        for _ in range(60):
            engine.step()
            held = [
                name for name, value in vars(engine.view).items()
                if isinstance(value, (list, dict, set))
            ]
            assert held == []
        assert engine.counters["sybils_created"] > 0
        assert engine.counters["sybils_retired"] > 0

    def test_idle_rounds_open_no_overlay(self, monkeypatch):
        opened = []
        real = SimView._open_round

        def spy(self):
            opened.append(1)
            return real(self)

        monkeypatch.setattr(SimView, "_open_round", spy)
        TickEngine(SimulationConfig(
            strategy="churn", n_nodes=50, n_tasks=2000, churn_rate=0.01,
            seed=1,
        )).run()
        assert opened == []
        # windowed reads answer from the ring while no round is open
        view = TickEngine(SimulationConfig(
            strategy="smart_neighbor_injection", n_nodes=20, n_tasks=500,
            seed=1,
        )).view
        view.begin_round()
        for slot in range(20):
            view.successor_window(slot, 4, counts=True)
            view.predecessor_window(slot, 4)
        assert opened == []


class TestCensus:
    """The round's Sybil census: Python lists taken on the first census
    read, written back to the registry when the round commits."""

    def engine(self, **overrides) -> TickEngine:
        engine = TickEngine(SimulationConfig(
            strategy="random_injection", n_nodes=40, n_tasks=2000, seed=11,
            **overrides,
        ))
        for _ in range(26):  # into the balancing phase
            engine.step()
        return engine

    def test_lazy_and_written_back_at_commit(self):
        engine = self.engine()
        view, owners = engine.view, engine.owners
        view.begin_round()
        assert view._census is None
        owner = next(
            o for o in owners.network_indices.tolist()
            if view.can_add_sybil(o)
        )
        assert view._census is not None
        before = int(owners.n_sybils[owner])
        view.create_sybil_random(owner)
        assert view.n_sybils(owner) == before + 1
        assert int(owners.n_sybils[owner]) == before  # not yet committed
        view.end_round()
        assert view._census is None
        assert int(owners.n_sybils[owner]) == before + 1
        owners.validate()

    def test_errors_match_the_registry(self):
        engine = self.engine(max_sybils=1)
        view, owners = engine.view, engine.owners
        view.begin_round()
        owner = int(owners.network_indices[0])
        while view.can_add_sybil(owner):
            view.create_sybil_random(owner)
        with pytest.raises(SimulationError) as deferred:
            view.create_sybil_random(owner)  # booked against the census
        with pytest.raises(SimulationError) as registry:
            owners.register_sybil(owner)
        assert str(deferred.value) == str(registry.value)
        with pytest.raises(SimulationError) as deferred:
            view._unregister_sybils(owner, 5)
        with pytest.raises(SimulationError) as registry:
            owners.unregister_sybils(owner, 5)
        assert str(deferred.value) == str(registry.value)

    def test_join_cost_reads_the_registry(self):
        engine = self.engine(adversary=AdversaryModel(join_cost=2))
        view = engine.view
        view.begin_round()
        for owner in engine.owners.network_indices.tolist():
            view.n_sybils(owner)
            view.can_add_sybil(owner)
        assert view._census is None

    def test_churn_rounds_take_no_census(self, monkeypatch):
        taken = []
        real = SimView._take_census

        def spy(self):
            taken.append(1)
            return real(self)

        monkeypatch.setattr(SimView, "_take_census", spy)
        TickEngine(SimulationConfig(
            strategy="churn", n_nodes=50, n_tasks=2000, churn_rate=0.01,
            seed=1,
        )).run()
        assert taken == []
