"""Tests of the Random Injection strategy (§IV-B rules)."""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.core.random_injection import RandomInjection
from repro.sim.engine import TickEngine, run_simulation


def engine_for(**overrides) -> TickEngine:
    overrides.setdefault("n_tasks", 5000)
    config = SimulationConfig(
        strategy="random_injection", n_nodes=100, seed=13,
        **overrides,
    )
    return TickEngine(config)


class TestSybilBudget:
    def test_caps_respected_throughout(self):
        engine = engine_for(max_sybils=3)
        while not engine.finished:
            engine.step()
            assert (engine.owners.n_sybils <= 3).all()

    def test_hetero_cap_is_strength(self):
        engine = engine_for(heterogeneous=True, max_sybils=5)
        while not engine.finished:
            engine.step()
            assert (
                engine.owners.n_sybils <= engine.owners.sybil_cap
            ).all()
            assert (
                engine.owners.sybil_cap == engine.owners.strength
            ).all()

    def test_at_most_one_new_sybil_per_owner_per_round(self):
        engine = engine_for()
        before = engine.owners.n_sybils.copy()
        # advance to the first decision round
        for _ in range(engine.config.decision_interval):
            engine.step()
        created = engine.owners.n_sybils - before
        assert created.max() <= 1


class TestRetirementRule:
    def test_idle_nodes_relocate_their_sybils(self):
        """A node with Sybils but no work pulls them and probes a fresh
        random address, so retired + created both grow over the run."""
        result = run_simulation(
            SimulationConfig(
                strategy="random_injection",
                n_nodes=100,
                n_tasks=5000,
                seed=13,
            )
        )
        assert result.counters["sybils_created"] > 0
        assert result.counters["sybils_retired"] > 0
        # every created sybil is eventually retired or survives to the end
        assert (
            result.counters["sybils_retired"]
            <= result.counters["sybils_created"]
        )

    def test_no_sybils_before_first_round(self):
        engine = engine_for()
        for _ in range(engine.config.decision_interval - 1):
            engine.step()
        assert engine.state.n_sybil_slots == 0


class TestEffectiveness:
    def test_beats_baseline(self, small_config):
        baseline = run_simulation(small_config)
        injected = run_simulation(
            small_config.with_updates(strategy="random_injection")
        )
        assert injected.runtime_factor < baseline.runtime_factor

    def test_approaches_ideal_with_many_tasks(self):
        """More tasks per node -> closer to factor 1 (paper §VI-B)."""
        few = run_simulation(
            SimulationConfig(
                strategy="random_injection",
                n_nodes=100,
                n_tasks=10_000,
                seed=3,
            )
        )
        many = run_simulation(
            SimulationConfig(
                strategy="random_injection",
                n_nodes=100,
                n_tasks=100_000,
                seed=3,
            )
        )
        assert many.runtime_factor < few.runtime_factor
        assert many.runtime_factor < 1.6

    def test_acquired_tasks_counted(self):
        result = run_simulation(
            SimulationConfig(
                strategy="random_injection",
                n_nodes=100,
                n_tasks=20_000,
                seed=3,
            )
        )
        assert result.counters["tasks_acquired"] > 0
        assert result.total_consumed == 20_000


class TestThreshold:
    def test_threshold_allows_nodes_with_some_work_to_act(self):
        """With a positive sybilThreshold, nodes create Sybils before they
        are fully idle, so Sybils appear earlier in the run."""
        low = engine_for(sybil_threshold=0)
        high = engine_for(sybil_threshold=25)
        for _ in range(low.config.decision_interval):
            low.step()
            high.step()
        assert high.state.n_sybil_slots >= low.state.n_sybil_slots

    def test_conservation_with_threshold(self):
        result = run_simulation(
            SimulationConfig(
                strategy="random_injection",
                n_nodes=100,
                n_tasks=5000,
                sybil_threshold=10,
                seed=5,
            )
        )
        assert result.completed
        assert result.total_consumed == 5000


class TestInvariantsDuringRun:
    def test_state_valid_every_tick(self):
        engine = engine_for(n_tasks=2000)
        while not engine.finished:
            engine.step()
            engine.state.verify_invariants()
            engine.owners.validate()

    def test_sybil_slot_counter_matches(self):
        engine = engine_for()
        while not engine.finished:
            engine.step()
        assert engine.state.n_sybil_slots == int(
            engine.owners.n_sybils.sum()
        )


class _ActorView:
    """The census reads the shared actor loop makes."""

    def __init__(self, owners, loads, threshold, seed):
        self.config = SimulationConfig(sybil_threshold=threshold)
        self.rng = np.random.default_rng(seed)
        self._owners = np.asarray(owners, dtype=np.int64)
        self._loads = np.asarray(loads, dtype=np.int64)

    def network_owners(self):
        return self._owners

    def owner_loads(self):
        return self._loads


class TestUnderloadedActors:
    @pytest.mark.parametrize("threshold", [0, 3])
    def test_one_permutation_then_order_preserving_filter(self, threshold):
        owners = [0, 2, 3, 5, 7, 8, 9]
        loads = [0, 40, 3, 0, 9, 2, 1, 0, 4, 0]
        view = _ActorView(owners, loads, threshold, seed=21)
        actors = list(RandomInjection().underloaded_actors(view))

        reference = np.random.default_rng(21)
        order = reference.permutation(np.array(owners, dtype=np.int64))
        assert actors == [
            (int(o), loads[o]) for o in order if loads[o] <= threshold
        ]
        assert all(
            type(o) is int and type(load) is int for o, load in actors
        )
        assert view.rng.bit_generator.state == reference.bit_generator.state

    def test_empty_network_draws_one_permutation(self):
        view = _ActorView([], [0, 0], 0, seed=4)
        assert list(RandomInjection().underloaded_actors(view)) == []
        reference = np.random.default_rng(4)
        reference.permutation(np.array([], dtype=np.int64))
        assert view.rng.bit_generator.state == reference.bit_generator.state
