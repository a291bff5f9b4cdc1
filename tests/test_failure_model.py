"""Failure-model tests: crash churn, replication, loss, and the
default-off guarantee.

The single most important property here is the regression pin: with the
failure model at its defaults, seeded runs must stay bit-identical to
results produced before the feature existed.  The fingerprints below
were computed from the pre-feature engine and must never change.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.chord.balance import ProtocolSimulation
from repro.chord.network import SimNetwork
from repro.chord.node import ChordNode
from repro.config import FailureModel, SimulationConfig
from repro.errors import (
    ConfigError,
    ProtocolError,
    RingEmptyError,
    SimulationError,
    TransientNetworkError,
)
from repro.hashspace.idspace import IdSpace
from repro.sim.cache import trial_key
from repro.sim.engine import TickEngine
from repro.sim.persistence import result_from_dict, result_to_dict
from repro.fabric.broker import (
    fabric_metrics,
    reset_fabric_metrics,
    trial_summary,
)
from repro.sim.trials import run_trials


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
        SimulationConfig(n_nodes=120, n_tasks=6000, seed=7),
        306,
        "3dc463a76fc17060",
    ),
    (
        "churn",
        SimulationConfig(
            strategy="churn", n_nodes=120, n_tasks=6000,
            churn_rate=0.02, seed=11,
        ),
        149,
        "116d7399ce18e417",
    ),
    (
        "random_injection",
        SimulationConfig(
            strategy="random_injection", n_nodes=100, n_tasks=5000, seed=3
        ),
        84,
        "67042dfda5683aea",
    ),
    (
        "invitation_churn",
        SimulationConfig(
            strategy="invitation", n_nodes=100, n_tasks=5000,
            churn_rate=0.01, seed=5,
        ),
        140,
        "67042dfda5683aea",
    ),
    (
        "hetero_smart",
        SimulationConfig(
            strategy="smart_neighbor_injection", n_nodes=80, n_tasks=4000,
            heterogeneous=True, work_measurement="strength", seed=13,
        ),
        41,
        "9e132485d5107211",
    ),
]


class TestDefaultBitIdentity:
    @pytest.mark.parametrize(
        "label,config,ticks,sha16",
        PRE_FEATURE_FINGERPRINTS,
        ids=[f[0] for f in PRE_FEATURE_FINGERPRINTS],
    )
    def test_defaults_match_pre_feature_results(
        self, label, config, ticks, sha16
    ):
        result = TickEngine(config).run()
        assert result.runtime_ticks == ticks
        assert result.total_consumed == config.n_tasks
        assert result.completed
        assert result.termination_reason is None
        assert _loads_sha16(result) == sha16

    def test_default_runs_carry_no_failure_counters(self):
        result = TickEngine(
            SimulationConfig(n_nodes=50, n_tasks=1000, seed=1)
        ).run()
        assert "crashes" not in result.counters
        assert "tasks_lost" not in result.counters
        assert result.tasks_lost == 0


# ----------------------------------------------------------------------
# FailureModel config group
# ----------------------------------------------------------------------
class TestFailureModelConfig:
    def test_defaults_are_inert(self):
        fm = FailureModel()
        assert not fm.enabled
        assert fm.crash_fraction == 0.0
        assert fm.replication_factor is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"crash_fraction": -0.1},
            {"crash_fraction": 1.5},
            {"replication_factor": -1},
            {"message_loss_rate": 2.0},
            {"crash_detection_ticks": -3},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            FailureModel(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"crash_fraction": 0.5},
            {"replication_factor": 0},
            {"message_loss_rate": 0.01},
            {"crash_detection_ticks": 2},
        ],
    )
    def test_any_knob_enables(self, kwargs):
        assert FailureModel(**kwargs).enabled

    def test_config_round_trip_through_dict(self):
        config = SimulationConfig(
            n_nodes=40,
            n_tasks=400,
            seed=2,
            failures=FailureModel(crash_fraction=0.3, replication_factor=2),
        )
        data = config.as_dict()
        assert data["failures"] == {
            "crash_fraction": 0.3,
            "replication_factor": 2,
            "message_loss_rate": 0.0,
            "crash_detection_ticks": 0,
        }
        data["snapshot_ticks"] = tuple(data["snapshot_ticks"])
        assert SimulationConfig(**data) == config

    def test_bad_failures_type_rejected(self):
        with pytest.raises(ConfigError):
            SimulationConfig(failures="none")

    def test_failures_participate_in_cache_key(self):
        base = SimulationConfig(n_nodes=40, n_tasks=400, seed=2)
        crashy = base.with_updates(
            failures=FailureModel(crash_fraction=0.5)
        )
        seq = np.random.SeedSequence(2)
        assert trial_key(base, seq) != trial_key(crashy, seq)


# ----------------------------------------------------------------------
# tick-layer crash semantics
# ----------------------------------------------------------------------
def _crash_config(replication, *, seed=9, crash_fraction=1.0):
    return SimulationConfig(
        strategy="churn",
        n_nodes=120,
        n_tasks=6000,
        churn_rate=0.02,
        seed=seed,
        failures=FailureModel(
            crash_fraction=crash_fraction, replication_factor=replication
        ),
    )


class TestCrashChurn:
    def test_unreplicated_crashes_lose_tasks(self):
        result = TickEngine(_crash_config(0)).run()
        assert result.tasks_lost > 0
        assert result.counters["crashes"] > 0
        assert not result.completed
        assert result.termination_reason == "data_loss"
        assert result.n_survivors > 0
        # conservation: every injected task was consumed or destroyed
        assert result.total_consumed + result.tasks_lost == result.total_injected

    def test_full_replication_recovers_everything(self):
        result = TickEngine(_crash_config(None)).run()
        assert result.tasks_lost == 0
        assert result.counters["crashes"] > 0
        assert result.counters["recovered_from_backup"] > 0
        assert result.completed
        assert result.termination_reason is None

    def test_more_replicas_lose_less(self):
        lost = {
            rep: TickEngine(_crash_config(rep)).run().tasks_lost
            for rep in (0, 2, None)
        }
        assert lost[0] > lost[2] >= lost[None] == 0

    def test_loss_monotone_in_crash_fraction(self):
        # one seed is too noisy near the top of the range (a cf=0.5 run
        # can outlive and out-crash a cf=1.0 run); the 5-seed mean
        # separates the levels cleanly
        fractions = [0.0, 0.25, 0.5, 1.0]
        lost = []
        for cf in fractions:
            per_seed = [
                TickEngine(
                    _crash_config(0, seed=seed, crash_fraction=cf)
                ).run().tasks_lost
                for seed in range(9, 14)
            ]
            lost.append(sum(per_seed) / len(per_seed))
        assert lost[0] == 0
        assert lost == sorted(lost)
        assert lost[-1] > lost[1] > 0

    def test_completed_work_factor_penalizes_loss(self):
        result = TickEngine(_crash_config(0)).run()
        assert 0.0 < result.completed_fraction < 1.0
        assert result.completed_work_factor > result.runtime_factor

    def test_total_churn_with_crashes_empties_ring(self):
        config = SimulationConfig(
            strategy="churn",
            n_nodes=10,
            n_tasks=1000,
            churn_rate=1.0,
            seed=4,
            failures=FailureModel(crash_fraction=1.0, replication_factor=0),
        )
        result = TickEngine(config).run()  # must not raise
        assert result.termination_reason == "ring_empty"
        assert not result.completed
        assert result.total_consumed + result.tasks_lost == result.total_injected

    def test_ring_empty_error_carries_context(self):
        err = RingEmptyError(
            "ring became empty at tick 7",
            tick=7,
            strategy="churn",
            churn_rate=1.0,
            crash_fraction=0.5,
        )
        assert isinstance(err, SimulationError)
        assert err.tick == 7
        assert err.strategy == "churn"
        assert err.churn_rate == 1.0
        assert err.crash_fraction == 0.5


# ----------------------------------------------------------------------
# trial aggregation and accounting
# ----------------------------------------------------------------------
class TestTrialAccounting:
    def test_data_loss_trials_are_counted(self):
        reset_fabric_metrics()
        trials = run_trials(_crash_config(0), 3, cache=False)
        assert trials.n_data_loss == 3
        assert trials.n_truncated == 0
        assert trials.mean_completed_work_factor > trials.mean_factor
        counters = fabric_metrics().as_dict()["counters"]
        assert counters["fabric.data_loss"] == 3
        assert "fabric.truncated" not in counters
        assert "3 with data loss" in trial_summary(counters, 0.0)

    def test_truncated_trials_are_counted(self):
        reset_fabric_metrics()
        config = SimulationConfig(
            n_nodes=50, n_tasks=5000, seed=6, max_ticks=3
        )
        trials = run_trials(config, 2, cache=False)
        assert all(
            r.termination_reason == "max_ticks" for r in trials.results
        )
        assert trials.n_truncated == 2
        assert trials.n_data_loss == 0
        counters = fabric_metrics().as_dict()["counters"]
        assert counters["fabric.truncated"] == 2
        assert "fabric.data_loss" not in counters
        assert "2 TRUNCATED" in trial_summary(counters, 0.0)

    def test_cache_hits_repeat_outcome_accounting(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        config = _crash_config(0)
        run_trials(config, 2)
        reset_fabric_metrics()
        run_trials(config, 2)  # all cached now
        counters = fabric_metrics().as_dict()["counters"]
        assert counters["fabric.cached"] == 2
        assert counters["fabric.data_loss"] == 2
        assert "fabric.done" not in counters


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------
class TestPersistence:
    def test_v2_round_trip_keeps_failure_fields(self):
        result = TickEngine(_crash_config(0)).run()
        restored = result_from_dict(result_to_dict(result))
        assert restored.termination_reason == "data_loss"
        assert restored.total_injected == result.total_injected
        assert restored.n_survivors == result.n_survivors
        assert restored.tasks_lost == result.tasks_lost
        assert restored.config == result.config

    def test_v1_documents_still_load(self):
        result = TickEngine(
            SimulationConfig(n_nodes=40, n_tasks=800, seed=3)
        ).run()
        data = result_to_dict(result)
        data["format"] = "repro.simulation_result.v1"
        for legacy_missing in (
            "termination_reason", "total_injected", "n_survivors",
        ):
            del data[legacy_missing]
        restored = result_from_dict(data)
        assert restored.completed
        assert restored.termination_reason is None
        assert restored.total_injected is None
        assert restored.n_survivors is None

    def test_unknown_format_rejected(self):
        result = TickEngine(
            SimulationConfig(n_nodes=40, n_tasks=800, seed=3)
        ).run()
        data = result_to_dict(result)
        data["format"] = "repro.simulation_result.v999"
        with pytest.raises(ValueError):
            result_from_dict(data)


# ----------------------------------------------------------------------
# protocol-layer fault plane
# ----------------------------------------------------------------------
SPACE = IdSpace(16)


def _two_node_net() -> tuple[SimNetwork, ChordNode, ChordNode]:
    net = SimNetwork()
    a = ChordNode(10, SPACE, net)
    a.create()
    b = ChordNode(200, SPACE, net)
    b.join(10)
    return net, a, b


class TestNetworkFaultPlane:
    def test_drop_next_rpc_consumed_exactly_once(self):
        net, a, b = _two_node_net()
        net.drop_next_rpc_to(b.id)
        with pytest.raises(TransientNetworkError):
            net.rpc(b.id, "rpc_get_predecessor")
        # consumed: the very next call succeeds with no further setup
        net.rpc(b.id, "rpc_get_predecessor")
        assert net.drops == 1

    def test_drop_once_composes_with_probabilistic_drops(self):
        net, a, b = _two_node_net()
        net.configure_faults(loss_rate=1.0, seed=1)
        net.drop_next_rpc_to(b.id)
        # first failure consumes the one-shot hook...
        with pytest.raises(TransientNetworkError):
            net.rpc(b.id, "rpc_get_predecessor")
        assert b.id not in net._drop_once
        # ...and the probabilistic plane keeps dropping afterwards
        with pytest.raises(TransientNetworkError):
            net.rpc(b.id, "rpc_get_predecessor")
        assert net.drops == 2

    def test_rpc_retry_rides_out_transient_drops(self):
        net, a, b = _two_node_net()
        net.drop_next_rpc_to(b.id)
        net.rpc_retry(b.id, "rpc_get_predecessor")  # must not raise
        assert net.retries == 1
        assert net.drops == 1

    def test_rpc_retry_gives_up_after_budget(self):
        net, a, b = _two_node_net()
        net.configure_faults(loss_rate=1.0, seed=1, transient_retries=2)
        with pytest.raises(TransientNetworkError):
            net.rpc_retry(b.id, "rpc_get_predecessor")
        assert net.retries == 2
        assert net.drops == 3  # initial send + 2 resends

    def test_dead_endpoint_is_not_retried(self):
        net, a, b = _two_node_net()
        b.fail()
        before = net.retries
        with pytest.raises(ProtocolError) as excinfo:
            net.rpc_retry(b.id, "rpc_get_predecessor")
        assert not isinstance(excinfo.value, TransientNetworkError)
        assert excinfo.value.transport_failure
        assert net.retries == before

    def test_crash_detection_window(self):
        net, a, b = _two_node_net()
        net.configure_faults(crash_detection_ticks=3)
        net.crash(b.id)
        # the oracle lies for the detection window...
        assert net.is_alive(b.id)
        # ...while real RPCs already fail
        with pytest.raises(ProtocolError):
            net.rpc(b.id, "rpc_get_predecessor")
        for _ in range(3):
            net.tick()
        assert not net.is_alive(b.id)

    def test_seeded_losses_are_deterministic(self):
        outcomes = []
        for _ in range(2):
            net, a, b = _two_node_net()
            net.configure_faults(loss_rate=0.5, seed=42)
            trace = []
            for _ in range(20):
                try:
                    net.rpc(b.id, "rpc_get_predecessor")
                    trace.append(True)
                except TransientNetworkError:
                    trace.append(False)
            outcomes.append(trace)
        assert outcomes[0] == outcomes[1]
        assert False in outcomes[0] and True in outcomes[0]


# ----------------------------------------------------------------------
# protocol-layer simulation under failures
# ----------------------------------------------------------------------
class TestProtocolFailures:
    def _summary(self, *, crash_fraction=0.0, replication=None,
                 loss_rate=0.0, seed=21):
        config = SimulationConfig(
            n_nodes=16,
            n_tasks=400,
            churn_rate=0.05 if crash_fraction > 0 else 0.0,
            seed=seed,
            num_successors=4,
            failures=FailureModel(
                crash_fraction=crash_fraction,
                replication_factor=replication,
                message_loss_rate=loss_rate,
                crash_detection_ticks=2 if crash_fraction > 0 else 0,
            ),
        )
        return ProtocolSimulation(config).run(max_ticks=600)

    def test_lossy_network_still_completes(self):
        summary = self._summary(loss_rate=0.05)
        assert summary["completed"]
        assert summary["termination_reason"] is None
        assert summary["network_drops"] > 0
        assert summary["network_retries"] > 0

    def test_crashes_without_replication_lose_work(self):
        summary = self._summary(crash_fraction=1.0, replication=0)
        assert summary["tasks_lost"] > 0
        assert summary["termination_reason"] in ("data_loss", "max_ticks")
        assert summary["crashes"] > 0
        assert (
            summary["total_consumed"] + summary["tasks_lost"]
            <= self._n_tasks()
        )

    def test_exactly_once_never_exceeds_submitted(self):
        for replication in (0, 2, None):
            summary = self._summary(
                crash_fraction=0.5, replication=replication
            )
            assert summary["total_consumed"] <= self._n_tasks()

    @staticmethod
    def _n_tasks() -> int:
        return 400


# ----------------------------------------------------------------------
# the ext_failures experiment
# ----------------------------------------------------------------------
class TestExtFailuresExperiment:
    def test_registered(self):
        from repro.experiments.registry import EXPERIMENTS

        assert "ext_failures" in EXPERIMENTS

    def test_quick_grid_shape_and_monotone_degradation(self, monkeypatch):
        from repro.experiments import ext_failures

        monkeypatch.setattr(ext_failures, "STRATEGIES", ("churn",))
        monkeypatch.setattr(
            ext_failures, "CRASH_FRACTIONS", (0.0, 0.5, 1.0)
        )
        monkeypatch.setattr(
            ext_failures, "REPLICATION_FACTORS", (None, 0)
        )
        result = ext_failures.run(scale="quick", seed=0)
        assert result.experiment_id == "ext_failures"
        assert len(result.rows) == 2
        assert len(result.headers) == 2 + 2 * 3
        lost_none = result.data["lost_pct"][("churn", "full")]
        lost_zero = result.data["lost_pct"][("churn", "0")]
        # full replication: nothing is ever lost
        assert all(v == 0.0 for v in lost_none.values())
        # no replication: loss grows monotonically with the crash rate
        curve = [lost_zero[cf] for cf in (0.0, 0.5, 1.0)]
        assert curve[0] == 0.0
        assert curve == sorted(curve)
        assert curve[-1] > 0.0
        # and the completed-work factor degrades with it
        cwf = result.data["measured"][("churn", "0")]
        assert cwf[1.0] > cwf[0.0]
