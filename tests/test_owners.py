"""Tests for the physical-owner registry."""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.errors import SimulationError
from repro.sim.owners import OwnerRegistry


def registry(**overrides) -> OwnerRegistry:
    config = SimulationConfig(n_nodes=50, n_tasks=1000, **overrides)
    return OwnerRegistry(config, np.random.default_rng(0))


class TestConstruction:
    def test_homogeneous_defaults(self):
        reg = registry()
        assert reg.n_total == 50  # no waiting pool without churn
        assert (reg.strength == 1).all()
        assert (reg.rate == 1).all()
        assert (reg.sybil_cap == 5).all()
        assert reg.n_in_network == 50

    def test_churn_creates_waiting_pool(self):
        reg = registry(churn_rate=0.01)
        assert reg.n_total == 100
        assert reg.pool_size == 50
        assert reg.n_in_network == 50
        assert reg.waiting_indices.size == 50

    def test_heterogeneous_strengths(self):
        reg = registry(heterogeneous=True, max_sybils=5)
        assert reg.strength.min() >= 1
        assert reg.strength.max() <= 5
        assert len(np.unique(reg.strength)) > 1
        # sybil budget equals strength in heterogeneous networks
        assert (reg.sybil_cap == reg.strength).all()

    def test_strength_work_measurement(self):
        reg = registry(heterogeneous=True, work_measurement="strength")
        assert (reg.rate == reg.strength).all()

    def test_one_task_work_measurement_hetero(self):
        reg = registry(heterogeneous=True, work_measurement="one")
        assert (reg.rate == 1).all()


class TestCapacity:
    def test_homogeneous_capacity(self):
        assert registry().network_capacity() == 50
        assert registry().initial_capacity() == 50

    def test_initial_capacity_excludes_pool(self):
        reg = registry(churn_rate=0.5)
        assert reg.initial_capacity() == 50


class TestSybilAccounting:
    def test_register_until_cap(self):
        reg = registry(max_sybils=2)
        assert reg.can_add_sybil(0)
        reg.register_sybil(0)
        reg.register_sybil(0)
        assert not reg.can_add_sybil(0)
        with pytest.raises(SimulationError):
            reg.register_sybil(0)

    def test_unregister(self):
        reg = registry()
        reg.register_sybil(3)
        reg.unregister_sybils(3, 1)
        assert reg.n_sybils[3] == 0
        with pytest.raises(SimulationError):
            reg.unregister_sybils(3, 1)


class TestChurnTransitions:
    def test_leave_and_join(self):
        reg = registry(churn_rate=0.1)
        reg.register_sybil(0)
        reg.leave_network(0)
        assert not reg.in_network[0]
        assert reg.n_sybils[0] == 0
        with pytest.raises(SimulationError):
            reg.leave_network(0)
        reg.join_network(0, main_id=123)
        assert reg.in_network[0]
        assert int(reg.main_id[0]) == 123
        with pytest.raises(SimulationError):
            reg.join_network(0, main_id=5)

    def test_batch_join_books_every_owner_in_one_write(self):
        reg = registry(churn_rate=0.1)
        assert reg.waiting_indices[:3].tolist() == [50, 51, 52]
        reg.join_network(np.array([52, 50]), [2**64 - 1, 7])
        assert reg.in_network[[50, 52]].all() and not reg.in_network[51]
        assert reg.main_id[[50, 52]].tolist() == [7, 2**64 - 1]
        assert 51 in reg.waiting_indices and 52 not in reg.waiting_indices
        reg.validate()

    def test_batch_join_rejects_before_booking_any(self):
        reg = registry(churn_rate=0.1)
        with pytest.raises(SimulationError):
            reg.join_network(np.array([51, 3]), [8, 9])  # 3 is in
        assert not reg.in_network[51] and int(reg.main_id[51]) == 0

    def test_validate_passes_fresh(self):
        registry(churn_rate=0.1).validate()
