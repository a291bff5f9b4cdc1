"""Targeted tests of the multi-slot consumption path (Sybil-era ticks).

The fast path handles one-slot owners; these tests force the grouped
lexsort path and its residual loop (owner demand exceeding the heaviest
identity's remaining tasks).
"""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.sim.engine import TickEngine


def engine_with_sybils(**overrides) -> TickEngine:
    overrides.setdefault("strategy", "random_injection")
    overrides.setdefault("n_nodes", 50)
    overrides.setdefault("n_tasks", 5000)
    overrides.setdefault("seed", 31)
    engine = TickEngine(SimulationConfig(**overrides))
    while engine.state.n_sybil_slots == 0 and not engine.finished:
        engine.step()
    return engine


class TestGroupedConsumption:
    def test_consumption_equals_min_rate_load(self):
        engine = engine_with_sybils()
        loads = engine.state.owner_loads(engine.owners.n_total)
        rates = engine.owners.rate
        expected = int(np.minimum(loads, rates).sum())
        consumed = engine._consume_tick()
        assert consumed == expected

    def test_heaviest_slot_drained_first(self):
        engine = engine_with_sybils()
        # find an owner with 2+ slots and work
        for owner in engine.owners.network_indices:
            slots = engine.state.slots_of_owner(int(owner))
            if slots.size >= 2 and engine.state.counts[slots].sum() > 1:
                break
        else:
            pytest.skip("no multi-slot owner with work for this seed")
        counts_before = engine.state.counts[slots].copy()
        heavy = int(np.argmax(counts_before))
        engine._consume_tick()
        counts_after = engine.state.counts[
            engine.state.slots_of_owner(int(owner))
        ]
        assert counts_after[heavy] == counts_before[heavy] - 1
        others = [i for i in range(len(slots)) if i != heavy]
        assert all(
            counts_after[i] == counts_before[i] for i in others
        )


class TestResidualPath:
    def test_rate_exceeding_heaviest_slot(self):
        """Strength-5 owners with fragmented slots exercise the residual
        loop: demand spills from the heaviest slot into the others."""
        engine = TickEngine(
            SimulationConfig(
                strategy="random_injection",
                n_nodes=40,
                n_tasks=4000,
                heterogeneous=True,
                work_measurement="strength",
                max_sybils=5,
                seed=33,
            )
        )
        total_before = engine.state.total_remaining()
        consumed_total = 0
        while not engine.finished:
            consumed = engine.step()
            consumed_total += consumed
            # per-tick consumption never exceeds aggregate capacity
            assert consumed <= engine.owners.rate[
                engine.owners.in_network
            ].sum()
        assert consumed_total == total_before

    def test_fragmented_owner_consumes_full_rate(self):
        """Construct an owner whose heaviest slot alone cannot cover its
        rate and verify the spillover consumes from its other slots."""
        engine = TickEngine(
            SimulationConfig(
                strategy="none",
                n_nodes=20,
                n_tasks=2000,
                heterogeneous=True,
                work_measurement="strength",
                max_sybils=8,
                seed=7,
                decision_interval=1000000,  # no strategy interference
            )
        )
        state, owners = engine.state, engine.owners
        # pick the strongest owner and fragment its holdings with sybils
        owner = int(np.argmax(owners.strength[: 20]))
        rate = int(owners.rate[owner])
        if rate < 3:
            pytest.skip("seed produced no strong owner")
        view = engine.view
        view.begin_round()
        for _ in range(3):
            if view.can_add_sybil(owner):
                view.create_sybil_random(owner)
        view.end_round()
        loads = state.owner_loads(owners.n_total)
        want = min(rate, int(loads[owner]))
        before = int(loads[owner])
        engine._consume_tick()
        after = int(state.owner_loads(owners.n_total)[owner])
        assert before - after == want
