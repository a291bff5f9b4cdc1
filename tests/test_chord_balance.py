"""Tests of the protocol-level balancer (strategies on real Chord)."""

import pytest

from repro.chord.balance import ProtocolSimulation
from repro.config import SimulationConfig
from repro.errors import SimulationError


def make_sim(strategy="none", **overrides) -> ProtocolSimulation:
    overrides.setdefault("n_nodes", 30)
    overrides.setdefault("n_tasks", 600)
    overrides.setdefault("bits", 32)
    overrides.setdefault("seed", 3)
    config = SimulationConfig(strategy=strategy, **overrides)
    return ProtocolSimulation(config)


class TestSetup:
    def test_builds_consistent_ring(self):
        sim = make_sim()
        sim.ring.verify()
        assert sim.remaining() == 600
        assert len(sim.hosts) == 30

    def test_churn_supported(self):
        sim = make_sim(strategy="churn", churn_rate=0.02)
        out = sim.run()
        assert out["completed"]
        assert out["churn_joins"] > 0 and out["churn_leaves"] > 0

    def test_churn_exactly_once(self):
        consumed = []
        sim = make_sim(strategy="churn", churn_rate=0.02, n_tasks=700)
        sim.on_consume = lambda k, v: consumed.append(k)
        sim.run()
        assert len(consumed) == 700
        assert len(set(consumed)) == 700

    def test_churn_network_size_bounded(self):
        sim = make_sim(strategy="churn", churn_rate=0.05)
        for _ in range(60):
            if sim.remaining() == 0:
                break
            sim.step()
            in_net = sum(1 for h in sim.hosts if h.in_network)
            assert 2 <= in_net <= 60  # pool + network = 2x initial

    def test_items_length_validated(self):
        config = SimulationConfig(
            strategy="none", n_nodes=10, n_tasks=5, bits=32, seed=1
        )
        with pytest.raises(SimulationError):
            ProtocolSimulation(config, items={1: "x"})


class TestBaseline:
    def test_runs_to_completion(self):
        sim = make_sim()
        out = sim.run()
        assert out["completed"]
        assert sim.remaining() == 0
        assert out["runtime_factor"] >= 1.0

    def test_runtime_counts_every_task_once(self):
        consumed = []
        sim = make_sim()
        sim.on_consume = lambda k, v: consumed.append(k)
        sim.run()
        assert len(consumed) == 600
        assert len(set(consumed)) == 600  # exactly-once under no churn


class TestStrategiesOnProtocol:
    @pytest.mark.parametrize(
        "strategy",
        [
            "random_injection",
            "neighbor_injection",
            "smart_neighbor_injection",
            "invitation",
        ],
    )
    def test_strategy_completes_and_helps(self, strategy):
        baseline = make_sim().run()
        balanced = make_sim(strategy=strategy).run()
        assert balanced["completed"]
        assert balanced["runtime_factor"] <= baseline["runtime_factor"]

    def test_random_injection_creates_sybils(self):
        out = make_sim(strategy="random_injection").run()
        assert out["sybils_created"] > 0

    def test_exactly_once_execution_with_sybils(self):
        """The Sybil life-cycle (join, acquire, retire) must not duplicate
        or lose any task."""
        consumed = []
        sim = make_sim(strategy="random_injection", n_tasks=800)
        sim.on_consume = lambda k, v: consumed.append(k)
        sim.run()
        assert len(consumed) == 800
        assert len(set(consumed)) == 800

    def test_ring_consistent_after_balancing(self):
        sim = make_sim(strategy="random_injection")
        sim.run()
        for _ in range(3):
            sim.ring.maintenance_round()
        sim.ring.verify()


class TestChordView:
    """Each host decides through its own ``ChordView``."""

    @pytest.mark.parametrize(
        "strategy",
        ["neighbor_injection", "smart_neighbor_injection", "invitation"],
    )
    def test_a_round_reads_only_the_hosts_own_nodes(self, strategy):
        """During a host's round ``SimNetwork.node`` is called only for
        that host's identities: every other read is an RPC."""
        sim = make_sim(strategy, n_nodes=12, n_tasks=300)
        network, node = sim.ring.network, sim.ring.network.node
        read: list[int] = []
        network.node = lambda ident: read.append(ident) or node(ident)
        rounds: list[int] = []

        def watch(host, run):
            def round_():
                read.clear()
                own = {n.id for n in host.identities()}
                run()
                own |= {n.id for n in host.identities()}
                assert set(read) <= own
                rounds.append(len(read))
            return round_

        for host in sim.hosts:
            host.view.run_round = watch(host, host.view.run_round)
        for _ in range(4 * sim.config.decision_interval):
            sim.step()
        assert len(rounds) == 4 * 12

    @pytest.mark.parametrize("busy", ["above_threshold", "at_cap"])
    def test_a_helper_refuses_an_invite_it_cannot_serve(self, busy):
        """An invite to a helper above its own threshold or at its Sybil
        cap is refused by the helper's ``accept_invite``, even when its
        census said it could help: it counts as refused and spawns
        nothing."""
        sim = make_sim(
            "invitation", n_nodes=12, n_tasks=300,
            sybil_threshold=0 if busy == "above_threshold" else 10**6,
        )
        inviter = max(sim.hosts, key=lambda h: h.view.census()["load"])
        assert inviter.view.census()["load"] > 300 / 12  # overburdened
        preds, _ = inviter.view.predecessor_window(
            inviter.main.id, sim.config.num_successors
        )
        helper = sim.hosts[sim.owner_of[preds[0]]]
        if busy == "above_threshold":
            assert helper.view.census()["load"] > 0
        else:
            helper.sybil_cap = len(helper.sybils())
        # a stale census: the helper looks idle and free to inject
        helper.view.census = lambda: {
            "load": 0, "n_sybils": 0, "max_sybils": 5, "strength": 1,
        }
        inviter.view.run_round()
        assert sim.counters["invitations_sent"] == 1
        assert sim.counters["invitations_refused"] == 1
        assert sim.counters["sybils_created"] == 0
        assert not helper.sybils()
