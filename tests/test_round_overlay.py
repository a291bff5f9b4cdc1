"""Deferred strategy rounds against the per-call oracle.

``SimView`` defers a round's Sybil creations and retirements into an
overlay that ``end_round`` commits in one batch removal plus one batch
insertion.  :class:`~tests.percall_view.PerCallSimView` applies every
action to the ring immediately, as the simulator did before.  Both must
produce the same results: the same whole-result fingerprint, the same
final generator state, and the same trace event stream.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import repro.sim.engine as engine_module
import repro.sim.view as view_module
from repro.config import AdversaryModel, SimulationConfig
from repro.core.registry import strategy_names
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


def run_with(config: SimulationConfig, view_cls, monkeypatch):
    monkeypatch.setattr(engine_module, "SimView", view_cls)
    trace = TraceRecorder()
    engine = TickEngine(config, trace=trace)
    result = engine.run()
    events = [(e.tick, e.kind, e.fields) for e in trace.events]
    return result_fingerprint(result), engine.rng.bit_generator.state, events


def assert_same_run(config: SimulationConfig, monkeypatch) -> None:
    deferred = run_with(config, SimView, monkeypatch)
    per_call = run_with(config, PerCallSimView, monkeypatch)
    assert deferred[0] == per_call[0], "result fingerprint"
    assert deferred[1] == per_call[1], "final generator state"
    assert deferred[2] == per_call[2], "trace event stream"


class TestDifferential:
    @pytest.mark.parametrize(
        "strategy,placement,churn,threshold",
        GRID,
        ids=[f"{s}-{p}-c{c}-t{t}" for s, p, c, t in GRID],
    )
    def test_matches_per_call(
        self, strategy, placement, churn, threshold, monkeypatch
    ):
        config = SimulationConfig(
            strategy=strategy,
            n_nodes=60,
            n_tasks=3000,
            placement=placement,
            churn_rate=churn,
            sybil_threshold=threshold,
            seed=7,
        )
        assert_same_run(config, monkeypatch)

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


def read_everything(view, engine) -> dict:
    """Every strategy-visible read, over the whole ring."""
    n = len(view.successor_slots(0, 10**9)) + 1
    owners = engine.owners.network_indices.tolist()
    slots = range(n)
    return {
        "n": n,
        "ids": [view.slot_id(s) for s in slots],
        "owners": [view.slot_owner(s) for s in slots],
        "counts": [view.slot_count(s) for s in slots],
        "gaps": [view.slot_gap(s) for s in slots],
        "succ": view.successor_slots(n - 1, 3).tolist(),
        "pred": view.predecessor_slots(0, 3).tolist(),
        "main": [view.main_slot(o) for o in owners],
        "heaviest": [view.heaviest_slot(o) for o in owners],
        "live": [view.live_owner_load(o) for o in owners],
    }


@pytest.mark.parametrize("placement", ["random", "midpoint", "median"])
def test_reads_match_after_every_action(placement):
    """Mid-round reads through the overlay equal the ring's own reads
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
                n = len(view.successor_slots(0, 10**9)) + 1
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
        single-slot insert and retire are never called, and each round
        opens at most one batch of each kind."""
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

            def round_once():
                before = dict(calls)
                original()
                rounds.append({
                    k: calls.get(k, 0) - before.get(k, 0) for k in calls
                })

            engine._run_strategy_round = round_once
            counted("begin_batch_removal")
            counted("begin_batch_insertion")
            engine.run()
            assert calls.get("insert_slot", 0) == 0
            assert calls.get("retire_sybils", 0) == 0
            assert calls.get("remove_slot", 0) == 0
            assert engine.counters["sybils_created"] > 0
            for per_round in rounds:
                assert per_round.get("begin_batch_removal", 0) <= 1
                assert per_round.get("begin_batch_insertion", 0) <= 1

    def test_idle_rounds_open_no_overlay(self, monkeypatch):
        opened = []
        real = view_module._RoundOverlay

        def spy(*args, **kwargs):
            opened.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(view_module, "_RoundOverlay", spy)
        TickEngine(SimulationConfig(
            strategy="churn", n_nodes=50, n_tasks=2000, churn_rate=0.01,
            seed=1,
        )).run()
        assert opened == []
