"""Tests for SimulationConfig validation and derivation."""

import pytest

from repro.config import STRATEGY_NAMES, SimulationConfig
from repro.errors import ConfigError


class TestDefaults:
    def test_paper_defaults(self):
        config = SimulationConfig()
        assert config.strategy == "none"
        assert config.n_nodes == 1000
        assert config.n_tasks == 100_000
        assert config.heterogeneous is False
        assert config.work_measurement == "one"
        assert config.churn_rate == 0.0
        assert config.max_sybils == 5
        assert config.sybil_threshold == 0
        assert config.num_successors == 5
        assert config.decision_interval == 5

    def test_tasks_per_node(self):
        assert SimulationConfig().tasks_per_node == 100.0

    def test_uses_sybils(self):
        assert not SimulationConfig(strategy="none").uses_sybils
        assert not SimulationConfig(strategy="churn").uses_sybils
        for name in (
            "random_injection",
            "neighbor_injection",
            "smart_neighbor_injection",
            "invitation",
        ):
            assert SimulationConfig(strategy=name).uses_sybils

    def test_strategy_names_constant(self):
        assert "random_injection" in STRATEGY_NAMES
        # 6 paper strategies + 3 §VII future-work extensions
        assert len(STRATEGY_NAMES) == 9

    def test_strategy_names_match_the_registry(self):
        from repro.core.registry import STRATEGIES
        from repro.net.node import LIVE_STRATEGIES

        assert STRATEGY_NAMES == tuple(STRATEGIES)
        assert set(STRATEGY_NAMES) - set(LIVE_STRATEGIES) == {
            "churn", "relocation",
        }


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"strategy": "bogus"},
            {"n_nodes": 0},
            {"n_tasks": -1},
            {"churn_rate": -0.1},
            {"churn_rate": 1.5},
            {"max_sybils": -1},
            {"sybil_threshold": -1},
            {"num_successors": 0},
            {"decision_interval": 0},
            {"work_measurement": "half"},
            {"placement": "wherever"},
            {"bits": 4},
            {"bits": 80},
            {"max_ticks": 0},
            {"invite_factor": 0.0},
            {"heterogeneous": True, "max_sybils": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            SimulationConfig(**kwargs)

    def test_with_updates_validates(self):
        config = SimulationConfig()
        with pytest.raises(ConfigError):
            config.with_updates(churn_rate=2.0)

    def test_with_updates_returns_new(self):
        config = SimulationConfig()
        other = config.with_updates(strategy="churn", churn_rate=0.01)
        assert other.strategy == "churn"
        assert config.strategy == "none"  # original untouched

    def test_as_dict_roundtrip(self):
        config = SimulationConfig(strategy="invitation", n_nodes=42)
        data = config.as_dict()
        assert SimulationConfig(**data) == config
