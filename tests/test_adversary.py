"""Adversarial Sybil plane tests: attacks, defenses, and the
default-off guarantee.

Mirrors the failure-model test contract: with ``AdversaryModel`` at its
defaults, seeded runs must stay bit-identical to results produced
before the feature existed (the pinned fingerprints are the same ones
``tests/test_failure_model.py`` pins).  One enabled scenario is pinned
too.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.config import AdversaryModel, SimulationConfig
from repro.errors import ConfigError
from repro.obs.metrics import collect_run_metrics, result_fingerprint
from repro.sim.cache import trial_key
from repro.sim.engine import TickEngine
from repro.sim.owners import (
    PROV_ADVERSARIAL,
    PROV_BENEVOLENT,
    PROV_HONEST,
    OwnerRegistry,
)
from repro.sim.persistence import result_from_dict, result_to_dict


def _loads_sha16(result) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(result.final_loads).tobytes()
    ).hexdigest()[:16]


# ----------------------------------------------------------------------
# default-off bit-identity (pre-feature fingerprints; do not update)
# ----------------------------------------------------------------------
PRE_FEATURE_FINGERPRINTS = [
    (
        "baseline",
        dict(n_nodes=120, n_tasks=6000, seed=7),
        306,
        "3dc463a76fc17060",
    ),
    (
        "churn",
        dict(
            strategy="churn", n_nodes=120, n_tasks=6000,
            churn_rate=0.02, seed=11,
        ),
        149,
        "116d7399ce18e417",
    ),
    (
        "invitation_churn",
        dict(
            strategy="invitation", n_nodes=100, n_tasks=5000,
            churn_rate=0.01, seed=5,
        ),
        140,
        "67042dfda5683aea",
    ),
    (
        "hetero_smart",
        dict(
            strategy="smart_neighbor_injection", n_nodes=80, n_tasks=4000,
            heterogeneous=True, work_measurement="strength", seed=13,
        ),
        41,
        "9e132485d5107211",
    ),
]


class TestDefaultBitIdentity:
    @pytest.mark.parametrize(
        "label,kwargs,ticks,sha16",
        PRE_FEATURE_FINGERPRINTS,
        ids=[f[0] for f in PRE_FEATURE_FINGERPRINTS],
    )
    def test_explicit_default_model_is_a_noop(
        self, label, kwargs, ticks, sha16
    ):
        """An explicitly-passed ``AdversaryModel()`` must be
        byte-identical to the pre-feature engine — no extra RNG draws,
        no phase, no counters."""
        config = SimulationConfig(adversary=AdversaryModel(), **kwargs)
        result = TickEngine(config).run()
        assert result.runtime_ticks == ticks
        assert _loads_sha16(result) == sha16
        assert result.adversary is None
        assert not any(k.startswith("adversary.") for k in result.counters)

    def test_disabled_plane_is_not_constructed(self):
        engine = TickEngine(SimulationConfig(n_nodes=20, n_tasks=200, seed=1))
        assert engine._adversary is None

    def test_honest_views_alias_full_views_when_disabled(self):
        config = SimulationConfig(n_nodes=20, n_tasks=200, seed=1)
        owners = OwnerRegistry(config, np.random.default_rng(0))
        assert owners.honest_network_indices is owners.network_indices
        assert owners.honest_waiting_indices is owners.waiting_indices
        assert owners.join_budget is None


# ----------------------------------------------------------------------
# AdversaryModel config group
# ----------------------------------------------------------------------
class TestAdversaryModelConfig:
    def test_defaults_are_inert(self):
        adv = AdversaryModel()
        assert not adv.enabled
        assert adv.n_adversaries == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eclipse_sybils": -1},
            {"eclipse_arc_fraction": 0.0},
            {"eclipse_arc_fraction": 0.9},
            {"free_riders": -2},
            {"churn_amplification": 1.5},
            {"attack_tick": 0},
            {"join_cost": -1},
            {"join_budget_refill": 0},
            {"detection_interval": -5},
            {"density_threshold": 1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            AdversaryModel(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eclipse_sybils": 4},
            {"free_riders": 1},
            {"churn_amplification": 0.1},
            {"join_cost": 2},
            {"detection_interval": 10},
        ],
    )
    def test_any_knob_enables(self, kwargs):
        assert AdversaryModel(**kwargs).enabled

    def test_config_round_trip_through_dict(self):
        config = SimulationConfig(
            n_nodes=40,
            n_tasks=400,
            seed=2,
            adversary=AdversaryModel(eclipse_sybils=6, join_cost=3),
        )
        data = config.as_dict()
        assert data["adversary"]["eclipse_sybils"] == 6
        assert data["adversary"]["join_cost"] == 3
        data["snapshot_ticks"] = tuple(data["snapshot_ticks"])
        assert SimulationConfig(**data) == config

    def test_bad_adversary_type_rejected(self):
        with pytest.raises(ConfigError):
            SimulationConfig(adversary="eclipse")

    def test_adversary_participates_in_cache_key(self):
        base = SimulationConfig(n_nodes=40, n_tasks=400, seed=2)
        hostile = base.with_updates(
            adversary=AdversaryModel(free_riders=2)
        )
        seq = np.random.SeedSequence(2)
        assert trial_key(base, seq) != trial_key(hostile, seq)


# ----------------------------------------------------------------------
# attacks
# ----------------------------------------------------------------------
def run_attack(adversary, *, strategy="invitation", seed=11, **overrides):
    overrides.setdefault("n_nodes", 60)
    overrides.setdefault("n_tasks", 3000)
    overrides.setdefault("churn_rate", 0.02)
    overrides.setdefault("max_sybils", 5)
    overrides.setdefault("max_ticks", 1500)
    config = SimulationConfig(
        strategy=strategy, seed=seed, adversary=adversary, **overrides
    )
    engine = TickEngine(config)
    return engine, engine.run()


class TestEclipse:
    ADV = AdversaryModel(
        eclipse_sybils=8, eclipse_arc_fraction=0.05, attack_tick=5
    )

    def test_captures_keys(self):
        engine, result = run_attack(self.ADV)
        adv = result.adversary
        assert adv["slots_joined"] == 8
        assert adv["owners_joined"] == 1
        assert adv["captured_keys_peak"] > 0
        assert 0.0 < adv["captured_fraction_peak"] <= 1.0

    def test_provenance_marks_adversarial_slots(self):
        adv = AdversaryModel(eclipse_sybils=8, attack_tick=5)
        config = SimulationConfig(
            strategy="invitation", n_nodes=60, n_tasks=3000,
            max_sybils=5, seed=11, adversary=adv,
        )
        engine = TickEngine(config)
        for _ in range(10):
            engine.step()
        state = engine.state
        hostile = state.provenance == PROV_ADVERSARIAL
        assert hostile.sum() == 8
        # adversarial owner indices all live in the registry's tail
        assert (
            state.owner[hostile] >= engine.owners.adversary_start
        ).all()
        # honest mains and benevolent sybils keep their own marks
        honest_main = state.is_main & ~hostile
        assert (state.provenance[honest_main] == PROV_HONEST).all()
        benevolent = ~state.is_main & ~hostile
        assert (state.provenance[benevolent] == PROV_BENEVOLENT).all()

    def test_strategies_never_see_adversaries(self):
        engine, _ = run_attack(self.ADV, max_ticks=300)
        view_owners = engine.view.network_owners()
        assert (view_owners < engine.owners.adversary_start).all()


class TestFreeRiders:
    def test_stranded_tasks_without_churn(self):
        adv = AdversaryModel(free_riders=3, attack_tick=2)
        engine, result = run_attack(
            adv, churn_rate=0.0, max_ticks=120
        )
        assert result.termination_reason == "max_ticks"
        assert result.adversary["stranded_tasks"] > 0
        # free-riders hold one slot each and never consume
        assert result.adversary["slots_joined"] == 3

    def test_invisible_to_density_detection(self):
        adv = AdversaryModel(
            free_riders=3, attack_tick=2, detection_interval=10
        )
        _, result = run_attack(adv, churn_rate=0.0, max_ticks=120)
        assert result.adversary["detection_tp"] == 0
        assert result.adversary["detection_recall"] == 0.0


class TestChurnAmplifier:
    def test_crashes_heaviest_honest_owner(self):
        adv = AdversaryModel(churn_amplification=1.0)
        engine, result = run_attack(adv, max_ticks=400)
        assert result.adversary["crashes"] > 0
        # replication defaults to full: pressure, not data loss
        assert result.adversary["crash_tasks_lost"] == 0
        assert result.adversary["crash_tasks_recovered"] >= 0

    def test_never_empties_the_ring(self):
        adv = AdversaryModel(churn_amplification=1.0)
        _, result = run_attack(
            adv, n_nodes=3, n_tasks=200, churn_rate=0.0, max_ticks=400
        )
        assert result.termination_reason != "ring_empty"


# ----------------------------------------------------------------------
# defenses
# ----------------------------------------------------------------------
class TestJoinBudget:
    def test_throttles_eclipse_joins(self):
        fast = AdversaryModel(eclipse_sybils=10, attack_tick=5)
        slow = AdversaryModel(eclipse_sybils=10, attack_tick=5, join_cost=4)
        config = dict(
            strategy="none", n_nodes=60, n_tasks=3000, seed=11,
        )
        e_fast = TickEngine(SimulationConfig(adversary=fast, **config))
        e_slow = TickEngine(SimulationConfig(adversary=slow, **config))
        for _ in range(6):
            e_fast.step()
            e_slow.step()
        fast_joined = e_fast.counters["adversary.slots_joined"]
        slow_joined = e_slow.counters["adversary.slots_joined"]
        assert fast_joined == 10  # all land at attack_tick
        assert 0 < slow_joined < fast_joined  # budget-gated trickle

    def test_benevolent_balancing_survives_join_cost(self):
        adv = AdversaryModel(join_cost=3)
        _, result = run_attack(adv, max_ticks=600)
        assert result.completed
        assert result.counters["sybils_created"] > 0

    def test_view_exposes_budget(self):
        adv = AdversaryModel(join_cost=3)
        config = SimulationConfig(
            strategy="none", n_nodes=20, n_tasks=200, seed=1, adversary=adv
        )
        engine = TickEngine(config)
        assert engine.view.join_budget_remaining(0) == 3
        engine.owners.register_sybil(0)
        assert engine.view.join_budget_remaining(0) == 0

    def test_view_returns_none_when_defense_off(self):
        config = SimulationConfig(n_nodes=20, n_tasks=200, seed=1)
        engine = TickEngine(config)
        assert engine.view.join_budget_remaining(0) is None

    def test_budget_refills_capped_at_cost(self):
        adv = AdversaryModel(join_cost=2, join_budget_refill=5)
        config = SimulationConfig(
            strategy="none", n_nodes=10, n_tasks=100, seed=1, adversary=adv
        )
        engine = TickEngine(config)
        owners = engine.owners
        owners.register_sybil(0)
        assert owners.join_budget_remaining(0) == 0
        owners.refill_join_budgets()
        assert owners.join_budget_remaining(0) == 2  # capped at cost

    def test_exhausted_budget_blocks_sybil_creation(self):
        adv = AdversaryModel(join_cost=2)
        config = SimulationConfig(
            strategy="none", n_nodes=10, n_tasks=100, seed=1,
            max_sybils=5, adversary=adv,
        )
        owners = TickEngine(config).owners
        assert owners.can_add_sybil(0)
        owners.register_sybil(0)
        assert not owners.can_add_sybil(0)  # broke, despite cap headroom


class TestDensityDetection:
    DENSE = AdversaryModel(
        eclipse_sybils=12,
        eclipse_arc_fraction=0.01,
        attack_tick=5,
        detection_interval=10,
    )

    def test_evicts_dense_eclipse(self):
        _, result = run_attack(self.DENSE)
        adv = result.adversary
        assert adv["detection_tp"] > 0
        assert adv["owners_evicted"] == 1
        assert adv["detection_recall"] == 1.0
        assert result.completed

    def test_precision_perfect_on_small_honest_rings(self):
        # honest owners hold <= 1 + max_sybils scattered slots; none
        # should concentrate 4+ into one of 64 arcs at these sizes
        _, result = run_attack(self.DENSE)
        assert result.adversary["detection_fp"] == 0
        assert result.adversary["detection_precision"] == 1.0

    def test_evicted_adversary_is_quarantined(self):
        adv = AdversaryModel(
            eclipse_sybils=12, eclipse_arc_fraction=0.01,
            attack_tick=5, detection_interval=10,
        )
        engine, _ = run_attack(adv)
        owners = engine.owners
        # the benign waiting pool never offers an adversarial identity
        assert (
            owners.honest_waiting_indices < owners.adversary_start
        ).all()


# ----------------------------------------------------------------------
# pinned enabled scenario (fingerprint equivalence gate)
# ----------------------------------------------------------------------
PINNED_ADVERSARY = AdversaryModel(
    eclipse_sybils=12,
    eclipse_arc_fraction=0.01,
    churn_amplification=0.05,
    attack_tick=5,
    join_cost=2,
    detection_interval=10,
)

PINNED_CONFIG = SimulationConfig(
    strategy="invitation",
    n_nodes=50,
    n_tasks=3000,
    churn_rate=0.02,
    max_sybils=5,
    seed=424242,
    adversary=PINNED_ADVERSARY,
)

PINNED_TICKS = 123
PINNED_FINGERPRINT = "9d033f323b856ed4"


class TestPinnedScenario:
    def test_plain_engine_matches_pin(self):
        result = TickEngine(PINNED_CONFIG).run()
        assert result.runtime_ticks == PINNED_TICKS
        assert result_fingerprint(result) == PINNED_FINGERPRINT
        assert result.completed

    def test_rerun_is_deterministic(self):
        a = TickEngine(PINNED_CONFIG).run()
        b = TickEngine(PINNED_CONFIG).run()
        assert result_fingerprint(a) == result_fingerprint(b)
        assert a.adversary == b.adversary


# ----------------------------------------------------------------------
# result plumbing: persistence, metrics
# ----------------------------------------------------------------------
class TestResultPlumbing:
    def test_v3_round_trip_keeps_adversary_block(self):
        _, result = run_attack(
            AdversaryModel(eclipse_sybils=8, attack_tick=5), max_ticks=300
        )
        restored = result_from_dict(result_to_dict(result))
        assert restored.adversary == result.adversary
        assert restored.config == result.config

    def test_v2_documents_still_load(self):
        config = SimulationConfig(n_nodes=40, n_tasks=800, seed=3)
        result = TickEngine(config).run()
        data = result_to_dict(result)
        data["format"] = "repro.simulation_result.v2"
        del data["adversary"]
        restored = result_from_dict(data)
        assert restored.adversary is None
        assert restored.completed

    def test_metrics_namespace(self):
        _, result = run_attack(
            AdversaryModel(eclipse_sybils=8, attack_tick=5), max_ticks=300
        )
        registry = collect_run_metrics(engine_counters=result.counters)
        assert registry.counter("sim.adversary.slots_joined") == 8
