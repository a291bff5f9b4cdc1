"""Tests of the Invitation strategy (§IV-D)."""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.core.invitation import Invitation
from repro.sim.engine import TickEngine, run_simulation


def make_engine(**overrides) -> TickEngine:
    overrides.setdefault("n_tasks", 10_000)
    config = SimulationConfig(
        strategy="invitation", n_nodes=100, seed=19,
        **overrides,
    )
    return TickEngine(config)


class TestOverburdenThreshold:
    def test_threshold_is_fair_share_times_factor(self):
        engine = make_engine(invite_factor=2.0)
        strategy = engine.strategy
        assert isinstance(strategy, Invitation)
        assert strategy.overburden_threshold(engine.view) == pytest.approx(
            2.0 * 10_000 / 100
        )

    def test_only_overloaded_nodes_invite(self):
        engine = make_engine()
        view = engine.view
        view.begin_round()
        loads = view.owner_loads()
        threshold = Invitation.overburden_threshold(view)
        overloaded = view.network_owners()
        overloaded = overloaded[loads[overloaded] > threshold]
        assert overloaded.size > 0  # hashed assignment always has whales
        assert overloaded.size < view.network_owners().size


class TestHelperSelection:
    def test_helper_is_least_loaded_qualifying_predecessor(self):
        engine = make_engine()
        view = engine.view
        view.begin_round()
        strategy = engine.strategy
        loads = view.owner_loads()
        inviter = int(np.argmax(loads))
        target = view.heaviest_slot(inviter)
        preds, pred_owners = view.predecessor_window(
            target, engine.config.num_successors
        )
        n = engine.state.n_slots
        k = min(engine.config.num_successors, n - 1)
        assert preds == [(target - i) % n for i in range(1, k + 1)]
        assert pred_owners == engine.state.owner[preds].tolist()
        helper = strategy._pick_helper(
            view, inviter, pred_owners, engine.config.sybil_threshold, set()
        )
        if helper is not None:
            assert view.live_owner_load(helper) <= engine.config.sybil_threshold
            assert view.can_add_sybil(helper)
            assert helper in pred_owners

    def test_helper_skips_already_helped(self):
        engine = make_engine()
        view = engine.view
        view.begin_round()
        strategy = engine.strategy
        loads = view.owner_loads()
        inviter = int(np.argmax(loads))
        target = view.heaviest_slot(inviter)
        _, pred_owners = view.predecessor_window(
            target, engine.config.num_successors
        )
        first = strategy._pick_helper(view, inviter, pred_owners, 0, set())
        if first is not None:
            second = strategy._pick_helper(
                view, inviter, pred_owners, 0, {first}
            )
            assert second != first

    def test_refusal_when_no_predecessor_qualifies(self):
        """With an impossible helper threshold... nobody helps and the
        invitations are refused."""
        engine = make_engine(max_sybils=0)
        result = engine.run()
        assert result.counters["invitations_sent"] > 0
        assert (
            result.counters["invitations_refused"]
            == result.counters["invitations_sent"]
        )
        assert result.counters["sybils_created"] == 0


class TestEffectiveness:
    def test_beats_baseline(self):
        config = SimulationConfig(n_nodes=100, n_tasks=10_000, seed=19)
        baseline = run_simulation(config)
        invited = run_simulation(config.with_updates(strategy="invitation"))
        assert invited.runtime_factor < baseline.runtime_factor

    def test_smaller_network_balances_better(self):
        """The paper: invitation's factor is tied to network size — the
        100-node network does better than the 1000-node one."""
        small = np.mean([
            run_simulation(
                SimulationConfig(
                    strategy="invitation",
                    n_nodes=100,
                    n_tasks=50_000,
                    seed=seed,
                )
            ).runtime_factor
            for seed in range(3)
        ])
        big = np.mean([
            run_simulation(
                SimulationConfig(
                    strategy="invitation",
                    n_nodes=500,
                    n_tasks=50_000,
                    seed=seed,
                )
            ).runtime_factor
            for seed in range(3)
        ])
        assert small < big

    def test_reactive_message_economy(self):
        """Invitation only spends messages when overloaded nodes exist, so
        its message bill is far below smart neighbor's per-round probing."""
        config = SimulationConfig(n_nodes=200, n_tasks=20_000, seed=6)
        inv = run_simulation(config.with_updates(strategy="invitation"))
        smart = run_simulation(
            config.with_updates(strategy="smart_neighbor_injection")
        )
        msgs_per_tick_inv = inv.counters["messages"] / inv.runtime_ticks
        msgs_per_tick_smart = (
            smart.counters["messages"] / smart.runtime_ticks
        )
        assert msgs_per_tick_inv < msgs_per_tick_smart

    def test_conservation(self):
        result = run_simulation(
            SimulationConfig(
                strategy="invitation", n_nodes=100, n_tasks=5000, seed=2
            )
        )
        assert result.completed
        assert result.total_consumed == 5000


class TestInvariants:
    def test_state_valid_every_tick(self):
        engine = make_engine(n_tasks=3000)
        while not engine.finished:
            engine.step()
            engine.state.verify_invariants()
            engine.owners.validate()
