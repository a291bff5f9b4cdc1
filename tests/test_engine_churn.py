"""Tests of the engine's churn phase (induced churn strategy, §IV-A)."""

import numpy as np
import pytest

from repro.config import AdversaryModel, FailureModel, SimulationConfig
from repro.sim.engine import TickEngine, run_simulation


@pytest.fixture
def churn_config():
    return SimulationConfig(
        strategy="churn",
        n_nodes=100,
        n_tasks=10_000,
        churn_rate=0.02,
        seed=9,
    )


class TestChurnMechanics:
    def test_joins_and_leaves_happen(self, churn_config):
        result = run_simulation(churn_config)
        assert result.counters["churn_leaves"] > 0
        assert result.counters["churn_joins"] > 0

    def test_conservation_under_churn(self, churn_config):
        result = run_simulation(churn_config)
        assert result.completed
        assert result.total_consumed == churn_config.n_tasks

    def test_network_size_stays_bounded(self, churn_config):
        """Equal join/leave rates on equal pools keep the size stable."""
        engine = TickEngine(churn_config)
        sizes = []
        while not engine.finished and engine.tick < 300:
            engine.step()
            sizes.append(engine.owners.n_in_network)
        sizes = np.asarray(sizes)
        assert sizes.min() > 50
        assert sizes.max() < 150

    def test_pool_plus_network_constant(self, churn_config):
        engine = TickEngine(churn_config)
        total = engine.owners.n_total
        for _ in range(100):
            if engine.finished:
                break
            engine.step()
            assert (
                engine.owners.n_in_network
                + engine.owners.waiting_indices.size
                == total
            )

    def test_ring_invariants_hold_during_churn(self, churn_config):
        engine = TickEngine(churn_config)
        for _ in range(60):
            if engine.finished:
                break
            engine.step()
            engine.state.verify_invariants()
            engine.owners.validate()

    def test_invariants_every_tick_under_churn_storm(self):
        """Aggressive churn exercises the batched leave/join pass hard:
        every tick many owners depart and many join at once, and the
        full structural invariant set (including the owner index and
        loads cache) must hold after each batch commit."""
        config = SimulationConfig(
            strategy="churn",
            n_nodes=80,
            n_tasks=8_000,
            churn_rate=0.15,
            seed=17,
        )
        engine = TickEngine(config)
        for _ in range(120):
            if engine.finished:
                break
            engine.step()
            engine.state.verify_invariants()
            engine.owners.validate()
        assert engine.counters["churn_leaves"] > 50
        assert engine.counters["churn_joins"] > 50

    def test_invariants_every_tick_with_sybils_and_churn(self):
        """Sybil creation/retirement interleaved with batched churn keeps
        the slab, owner index, and key accounting consistent."""
        config = SimulationConfig(
            strategy="random_injection",
            n_nodes=60,
            n_tasks=6_000,
            churn_rate=0.05,
            seed=11,
        )
        engine = TickEngine(config)
        consumed = 0
        for _ in range(120):
            if engine.finished:
                break
            consumed += engine.step()
            engine.state.verify_invariants()
            engine.owners.validate()
            assert consumed + engine.remaining == config.n_tasks
        assert engine.state.n_sybil_slots >= 0
        assert engine.counters["sybils_created"] > 0

    def test_a_tick_opens_one_batch_and_commits_it_once(self):
        """Each churn phase begins at most one ring batch and commits it
        once, also on ticks where nodes both leave (some by crash-stop)
        and join; the adversary plane's density detection, on here,
        evicts through a batch of its own, and every batch begun in the
        run commits exactly once."""
        config = SimulationConfig(
            strategy="churn", n_nodes=100, n_tasks=10_000, churn_rate=0.05,
            failures=FailureModel(crash_fraction=0.3, replication_factor=1),
            adversary=AdversaryModel(
                eclipse_sybils=12, eclipse_arc_fraction=0.01,
                attack_tick=5, detection_interval=10,
            ),
            seed=9,
        )
        engine = TickEngine(config)
        state = engine.state
        commits: list[int] = []  # per batch begun, in order: its commits

        def counted(name):
            begin = getattr(state, name)

            def begin_counted(*args, **kwargs):
                batch = begin(*args, **kwargs)
                commit, k = batch.commit, len(commits)
                commits.append(0)

                def commit_counted():
                    commits[k] += 1
                    commit()

                batch.commit = commit_counted
                return batch

            setattr(state, name, begin_counted)

        counted("begin_batch_removal")
        counted("begin_batch_insertion")
        counters = engine.counters
        phases = []  # per churn phase: (leaves, joins, its batches' commits)
        apply_churn = engine._apply_churn

        def churn_phase(*args):
            first = len(commits)
            leaves, joins = counters["churn_leaves"], counters["churn_joins"]
            apply_churn(*args)
            phases.append((
                counters["churn_leaves"] - leaves,
                counters["churn_joins"] - joins,
                commits[first:],
            ))

        engine._apply_churn = churn_phase
        engine.run()
        for leaves, joins, batches in phases:
            assert batches in ([], [1])
            assert batches or not (leaves or joins)
        assert any(leaves and joins for leaves, joins, _ in phases)
        assert commits and set(commits) == {1}
        assert len(commits) > sum(1 for *_, b in phases if b)
        assert counters["crashes"] > 0
        assert counters["adversary.evictions"] > 0


class TestChurnSpeedup:
    """The paper's core §VI-A result at test scale."""

    def test_churn_beats_baseline(self):
        base = SimulationConfig(n_nodes=200, n_tasks=40_000, seed=21)
        churned = base.with_updates(strategy="churn", churn_rate=0.01)
        factor_base = run_simulation(base).runtime_factor
        factor_churn = run_simulation(churned).runtime_factor
        assert factor_churn < factor_base

    def test_more_churn_helps_more(self):
        base = SimulationConfig(
            strategy="churn", n_nodes=150, n_tasks=30_000, seed=2
        )
        low = run_simulation(base.with_updates(churn_rate=0.001))
        high = run_simulation(base.with_updates(churn_rate=0.01))
        assert high.runtime_factor < low.runtime_factor

    def test_zero_churn_rate_warns_for_churn_strategy(self):
        config = SimulationConfig(strategy="churn", n_nodes=30, n_tasks=300)
        with pytest.warns(UserWarning):
            TickEngine(config)
