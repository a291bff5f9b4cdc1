"""Tests of Neighbor Injection and its smart (querying) variant (§IV-C)."""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.core.neighbor import NeighborInjection, SmartNeighborInjection
from repro.sim.engine import TickEngine, run_simulation
from repro.sim.view import SimView


def make_engine(strategy="neighbor_injection", **overrides) -> TickEngine:
    overrides.setdefault("n_tasks", 5000)
    config = SimulationConfig(
        strategy=strategy, n_nodes=100, seed=17, **overrides
    )
    return TickEngine(config)


class TestTargetSelection:
    def test_candidates_are_successors_not_self(self):
        engine = make_engine()
        strategy = NeighborInjection()
        view = engine.view
        view.begin_round()
        owner = int(engine.owners.network_indices[0])
        candidates, _ = strategy._candidate_slots(view, owner)
        base = view.main_slot(owner)
        succ, owners, _ = view.successor_window(
            base, engine.config.num_successors
        )
        owner_of = dict(zip(succ, owners))
        for slot in candidates:
            assert slot in owner_of
            assert owner_of[slot] != owner

    def test_estimate_picks_largest_gap(self):
        engine = make_engine()
        strategy = NeighborInjection()
        view = engine.view
        view.begin_round()
        owner = int(engine.owners.network_indices[0])
        target = strategy._pick_target(view, owner)
        candidates, _ = strategy._candidate_slots(view, owner)
        slots, _, gaps = view.successor_window(
            view.main_slot(owner), engine.config.num_successors
        )
        gap = dict(zip(slots, gaps))
        assert gap[target] == max(gap[s] for s in candidates)

    def test_smart_picks_heaviest_and_counts_messages(self):
        engine = make_engine(strategy="smart_neighbor_injection")
        strategy = SmartNeighborInjection()
        view = engine.view
        view.begin_round()
        owner = int(engine.owners.network_indices[0])
        before = view.stats.messages
        target = strategy._pick_target(view, owner)
        candidates, _ = strategy._candidate_slots(view, owner)
        slots, _, _, counts = view.successor_window(
            view.main_slot(owner), engine.config.num_successors, counts=True
        )
        count = dict(zip(slots, counts))
        assert count[target] == max(count[s] for s in candidates)
        assert view.stats.messages - before == len(candidates)


class _PickView:
    """Only the reads NeighborInjection's target pick makes — one
    successor window: slots are their own labels, none belongs to the
    deciding owner."""

    def __init__(self, succ, *, gaps=None, counts=None):
        self.config = SimulationConfig(num_successors=len(succ))
        self._succ = list(succ)
        self._gaps = gaps or {}
        self._counts = counts or {}
        self.messages = 0

    def main_slot(self, owner):
        return -1

    def successor_window(self, slot, k, *, counts=False):
        slots = self._succ[:k]
        window = (
            slots, [1000 + s for s in slots],
            [self._gaps.get(s, 0) for s in slots],
        )
        if counts:
            return (*window, [self._counts.get(s, 0) for s in slots])
        return window

    def count_messages(self, n=1):
        self.messages += n


class TestPickSemantics:
    def test_equal_gaps_first_candidate_wins(self):
        view = _PickView([3, 1, 2], gaps={3: 10, 1: 10, 2: 5})
        assert NeighborInjection()._pick_target(view, 0) == 3

    def test_equal_counts_first_candidate_wins(self):
        view = _PickView([3, 1, 2], counts={3: 7, 1: 9, 2: 9})
        assert SmartNeighborInjection()._pick_target(view, 0) == 1
        assert view.messages == 3

    @pytest.mark.parametrize("succ", [[1, 2], [2, 1]])
    def test_gaps_compare_at_float64_resolution(self, succ):
        """2**60 and 2**60 + 1 are one float64: they tie, so the first
        candidate wins, exactly as the float64 argmax picked."""
        view = _PickView(succ, gaps={1: 2**60, 2: 2**60 + 1})
        assert NeighborInjection()._pick_target(view, 0) == succ[0]

    def test_estimate_matches_float64_argmax(self):
        rng = np.random.default_rng(3)
        strategy = NeighborInjection()
        for _ in range(300):
            k = int(rng.integers(1, 8))
            base = int(rng.integers(0, 2**64 - 2**12, dtype=np.uint64))
            gaps = [base + int(rng.integers(0, 2**12)) for _ in range(k)]
            succ = list(range(k))
            view = _PickView(succ, gaps=dict(zip(succ, gaps)))
            expected = succ[int(np.argmax(np.array(gaps, dtype=np.float64)))]
            assert strategy._pick_target(view, 0) == expected

    def test_smart_all_idle_returns_none_but_counts_queries(self):
        view = _PickView([4, 5, 6], counts={4: 0, 5: 0, 6: 0})
        assert SmartNeighborInjection()._pick_target(view, 0) is None
        assert view.messages == 3

    def test_two_slot_ring_has_one_neighbour(self):
        engine = TickEngine(SimulationConfig(
            strategy="neighbor_injection", n_nodes=2, n_tasks=50, bits=16,
            seed=1,
        ))
        view = engine.view
        view.begin_round()
        for slot in (0, 1):
            assert view.successor_window(slot, 5)[0] == [1 - slot]
            assert view.predecessor_window(slot, 5)[0] == [1 - slot]
        view._open_round()  # the same reads through an open round
        for slot in (0, 1):
            assert view.successor_window(slot, 5)[0] == [1 - slot]
            assert view.predecessor_window(slot, 5)[0] == [1 - slot]


class TestSybilLocality:
    def test_sybils_land_near_their_owner(self):
        """Neighbor injection must place a Sybil inside one of the owner's
        tracked successor arcs — locality is the whole point."""
        engine = make_engine()
        k = engine.config.num_successors
        # run a few decision rounds, checking each new sybil's position
        for _ in range(3 * engine.config.decision_interval):
            sybils_before = {
                int(engine.state.ids[s])
                for s in np.flatnonzero(~engine.state.is_main)
            }
            engine.step()
            for slot in np.flatnonzero(~engine.state.is_main):
                ident = int(engine.state.ids[slot])
                if ident in sybils_before:
                    continue
                owner = int(engine.state.owner[slot])
                main = engine.state.main_slot_of(owner)
                # within k+1 ring positions clockwise of the main slot
                # (+1 because the new sybil itself shifted indices)
                distance = (slot - main) % engine.state.n_slots
                assert 0 < distance <= k + 1


class TestEffectiveness:
    def test_beats_baseline(self, small_config):
        baseline = run_simulation(small_config)
        neighbor = run_simulation(
            small_config.with_updates(strategy="neighbor_injection")
        )
        assert neighbor.runtime_factor < baseline.runtime_factor

    def test_smart_beats_estimate(self):
        """Querying actual workloads beats estimating by range (§VI-C),
        averaged over a few seeds."""
        est, smart = [], []
        for seed in range(4):
            config = SimulationConfig(
                n_nodes=200, n_tasks=20_000, seed=seed
            )
            est.append(
                run_simulation(
                    config.with_updates(strategy="neighbor_injection")
                ).runtime_factor
            )
            smart.append(
                run_simulation(
                    config.with_updates(
                        strategy="smart_neighbor_injection"
                    )
                ).runtime_factor
            )
        assert np.mean(smart) < np.mean(est)

    def test_more_successors_help(self):
        """numSuccessors 10 beats 5 for neighbor injection (§VI-C)."""
        factors = {}
        for k in (5, 10):
            runs = [
                run_simulation(
                    SimulationConfig(
                        strategy="neighbor_injection",
                        n_nodes=200,
                        n_tasks=20_000,
                        num_successors=k,
                        seed=seed,
                    )
                ).runtime_factor
                for seed in range(3)
            ]
            factors[k] = np.mean(runs)
        assert factors[10] < factors[5]

    def test_conservation(self):
        for strategy in ("neighbor_injection", "smart_neighbor_injection"):
            result = run_simulation(
                SimulationConfig(
                    strategy=strategy, n_nodes=100, n_tasks=5000, seed=2
                )
            )
            assert result.completed
            assert result.total_consumed == 5000


class TestAvoidFailedRanges:
    def test_failed_ranges_are_remembered(self):
        engine = make_engine(avoid_failed_ranges=True)
        strategy = engine.strategy
        result = engine.run()
        assert result.completed
        # the memory only fills when some injection acquired nothing
        total_marks = sum(
            len(v) for v in strategy._failed_ranges.values()
        )
        assert total_marks >= 0  # smoke: structure exists and run is sound

    def test_run_valid_with_option(self):
        result = run_simulation(
            SimulationConfig(
                strategy="neighbor_injection",
                n_nodes=100,
                n_tasks=5000,
                avoid_failed_ranges=True,
                seed=4,
            )
        )
        assert result.completed


class TestInvariants:
    def test_state_valid_every_tick(self):
        engine = make_engine(n_tasks=2000)
        while not engine.finished:
            engine.step()
            engine.state.verify_invariants()
