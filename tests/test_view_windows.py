"""Windowed neighborhood reads equal the per-slot reads they replace.

``NetworkView.successor_window`` / ``predecessor_window`` return a
node's tracked neighbours with their owners (and gaps, and counts on
request) in one call.  ``SimView`` answers them with list slices over
the open round's lists, or over the ring while no round is open; the
protocol adapter inherits the default built from the per-slot reads.
Every form must agree with the per-slot reads, across the wrap, for
windows wider than the ring, and on a one-slot ring.
"""

import numpy as np
import pytest

from repro.chord.balance import ProtocolSimulation, ProtocolView
from repro.config import SimulationConfig
from repro.core.strategy import NetworkView
from repro.sim.engine import TickEngine


def per_slot_reads(view, slot: int, k: int):
    succ = view.successor_slots(slot, k)
    pred = view.predecessor_slots(slot, k)
    return (
        (
            succ,
            [view.slot_owner(s) for s in succ],
            [view.slot_gap(s) for s in succ],
            [view.slot_count(s) for s in succ],
        ),
        (pred, [view.slot_owner(s) for s in pred]),
    )


def assert_windows_match(view, slots, n: int) -> None:
    for slot in slots:
        for k in sorted({1, 2, 5, max(n - 1, 1), n, n + 3, 10**9}):
            succ, pred = per_slot_reads(view, slot, k)
            assert view.successor_window(slot, k, counts=True) == succ
            assert view.successor_window(slot, k) == succ[:3]
            assert view.predecessor_window(slot, k) == pred


def sybil_engine(**overrides) -> TickEngine:
    overrides.setdefault("n_nodes", 30)
    overrides.setdefault("n_tasks", 1500)
    config = SimulationConfig(
        strategy="random_injection", seed=4, **overrides
    )
    engine = TickEngine(config)
    for _ in range(16):  # into the balancing phase: Sybils on the ring
        engine.step()
    return engine


class TestSimView:
    def test_closed_overlay_reads_the_ring(self):
        engine = sybil_engine()
        view = engine.view
        view.begin_round()
        n = engine.state.n_slots
        assert n > 30  # Sybils joined
        assert_windows_match(view, range(n), n)
        assert view._ids is None  # the reads opened no round

    def test_open_overlay_reads_the_round(self):
        engine = sybil_engine()
        view = engine.view
        view.begin_round()
        script = np.random.default_rng(1)
        owners = engine.owners.network_indices.tolist()
        for owner in owners[:12]:
            view.retire_sybils(owner)
            if view.can_add_sybil(owner):
                view.create_sybil_random(owner)
        assert view._ids is not None  # still deferred
        n = len(view.successor_slots(0, 10**9)) + 1
        assert n != engine.state.n_slots  # the round changed the ring
        slots = sorted({0, n - 1, *script.integers(0, n, size=10).tolist()})
        assert_windows_match(view, slots, n)

    @pytest.mark.parametrize("open_round", [False, True])
    def test_one_and_two_slot_rings(self, open_round):
        for n_nodes in (1, 2):
            engine = TickEngine(SimulationConfig(
                strategy="neighbor_injection", n_nodes=n_nodes, n_tasks=40,
                bits=16, seed=1,
            ))
            view = engine.view
            view.begin_round()
            if open_round:
                view._open_round()
            assert_windows_match(view, range(n_nodes), n_nodes)
        assert view.successor_window(0, 5, counts=True) == (
            [1], [view.slot_owner(1)], [view.slot_gap(1)],
            [view.slot_count(1)],
        )


class TestProtocolView:
    def test_inherits_the_default_windows(self):
        assert "successor_window" not in vars(ProtocolView)
        assert "predecessor_window" not in vars(ProtocolView)
        assert ProtocolView.successor_window is NetworkView.successor_window

    def test_default_windows_match_per_slot_reads(self):
        sim = ProtocolSimulation(SimulationConfig(
            strategy="neighbor_injection", n_nodes=12, n_tasks=300,
            bits=32, seed=3,
        ))
        view = sim.view
        view.begin_round()
        slots = [h.main_id for h in sim.hosts if h.in_network]
        for slot in slots:
            for k in (1, 3, 20):
                succ, pred = per_slot_reads(view, slot, k)
                assert view.successor_window(slot, k, counts=True) == succ
                assert view.predecessor_window(slot, k) == pred
