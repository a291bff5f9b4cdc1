"""Run the paper's strategies on the *protocol-level* Chord network.

The tick simulator (:mod:`repro.sim`) is the paper-scale vehicle; this
module closes the loop by executing the exact same
:class:`~repro.core.strategy.Strategy` objects against real protocol
nodes — joins are actual Chord joins, key hand-off rides the
notify/transfer path, queries and announcements are RPCs counted by the
network fabric.  It validates that the simulator's abstractions (instant
acquisition of a range, lossless hand-off) are implementable, and powers
the ``chord_protocol_demo`` example and ChordReduce.

Each host decides through its own :class:`~repro.chord.view.ChordView`,
the view every live node runs, one host after another in a seeded
order: the simulation is the live layer's deterministic twin, with
consumption.

Scale guidance: protocol runs are O(messages); keep them at ≲200 hosts /
≲50k tasks.  The median runtime factors of 10 seeds lie within ±15% of
the tick simulator's (the band gate in ``benchmarks/bench_protocol.py``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.chord.network import SimNetwork
from repro.chord.node import ChordNode
from repro.chord.ring import ChordRing
from repro.chord.view import ChordView
from repro.config import SimulationConfig
from repro.core.strategy import RoundStats
from repro.errors import ProtocolError, SimulationError
from repro.hashspace.idspace import IdSpace
from repro.util.rng import make_rng

__all__ = ["ProtocolSimulation"]

#: value stored under every task key
_TASK = "task"


class _Host:
    """A physical machine: one main Chord node plus its Sybils.

    It is the host object its :class:`~repro.chord.view.ChordView`
    reads (see there): another host's census and ``invite`` are direct
    calls into that host's view.
    """

    def __init__(self, sim: "ProtocolSimulation", index: int, strength: int):
        cfg = sim.config
        self._sim = sim
        self.index = index
        self.strength = strength
        self.rate = strength if cfg.work_measurement == "strength" else 1
        self.sybil_cap = strength if cfg.heterogeneous else cfg.max_sybils
        self.network: SimNetwork = sim.ring.network
        self.space: IdSpace = sim.space
        self.rng: np.random.Generator = sim.rng
        self.total_tasks = cfg.n_tasks
        self.initial_nodes = cfg.n_nodes
        self.main: ChordNode | None = None
        self._sybils: dict[int, ChordNode] = {}
        self.view = ChordView(self, cfg)
        self.view.strategy.on_attach(self.view)

    @property
    def in_network(self) -> bool:
        return self.main is not None

    # -- what the view reads besides the attributes ----------------------
    def identities(self) -> list[ChordNode]:
        return [] if self.main is None else [self.main, *self.sybils()]

    def sybils(self) -> list[ChordNode]:
        return list(self._sybils.values())

    def adopt_sybil(self, node: ChordNode) -> None:
        self._sybils[node.id] = node
        self._sim.owner_of[node.id] = self.index

    def drop_sybil(self, node_id: int) -> None:
        del self._sybils[node_id]
        del self._sim.owner_of[node_id]

    def peer(self, node_id: int) -> int:
        return self._sim.owner_of[node_id]

    def census(self, peer: int) -> dict[str, int]:
        return self._sim.hosts[peer].view.census()

    def invite(self, peer: int, slot: int) -> int | None:
        return self._sim.hosts[peer].view.accept_invite(slot)

    def book(self, stats: RoundStats) -> None:
        stats.merge_into(self._sim.counters)

    def relocate(
        self, ident: int, join: Callable[[int], ChordNode | None]
    ) -> ChordNode | None:
        node = join(ident)
        if node is not None:
            self.main.leave()
            self.network.deregister(self.main.id)
            del self._sim.owner_of[self.main.id]
            self.enter(node)
        return node

    # -- membership ------------------------------------------------------
    def enter(self, main: ChordNode) -> None:
        """Take ``main`` as the main identity."""
        self.main = main
        self._sim.owner_of[main.id] = self.index

    def depart(self, crash: bool) -> None:
        """Every identity leaves: gracefully, handing its keys on, or by
        crash-stop (no replica sync, no hand-off, no goodbye)."""
        network = self.network
        for node in [*self.sybils(), self.main]:
            if crash:
                network.crash(node.id)
            else:
                node.leave()
                network.deregister(node.id)
            del self._sim.owner_of[node.id]
        self._sybils.clear()
        self.main = None


class ProtocolSimulation:
    """Tick loop over a real Chord ring — small-scale twin of TickEngine."""

    def __init__(
        self,
        config: SimulationConfig,
        *,
        converge_rounds: int = 32,
        items: dict[int, object] | None = None,
        on_consume=None,
    ):
        """``items`` optionally replaces the anonymous task workload with
        real keyed work units (key → payload); ``on_consume(key, value)``
        is invoked for each completed unit — the hook ChordReduce uses to
        run map/reduce functions."""
        if items is not None and len(items) != config.n_tasks:
            raise SimulationError(
                f"items has {len(items)} entries but config.n_tasks is "
                f"{config.n_tasks}"
            )
        self._items = items
        self.on_consume = on_consume
        self.config = config
        self.rng = make_rng(config.seed)
        self.space = IdSpace(config.bits)
        self.ring = ChordRing(
            self.space, n_successors=config.num_successors, seed=config.seed
        )
        # the replication clamp applies from the first replicate() on;
        # message loss and delayed detection are armed only after the
        # ring is built (a lossy bootstrap is a different experiment)
        failures = config.failures
        self.ring.network.replication_factor = failures.replication_factor
        #: node id -> index of the host it belongs to
        self.owner_of: dict[int, int] = {}
        self.hosts: list[_Host] = []
        self._build(converge_rounds)
        if failures.message_loss_rate > 0 or failures.crash_detection_ticks > 0:
            self.ring.network.configure_faults(
                loss_rate=failures.message_loss_rate,
                seed=(
                    None
                    if config.seed is None
                    else (int(config.seed) << 8) ^ 0xFA17
                ),
                crash_detection_ticks=failures.crash_detection_ticks,
                replication_factor=failures.replication_factor,
            )

        # churn: the waiting pool starts at network size (§IV-A)
        self.ideal_ticks = config.n_tasks / sum(h.rate for h in self.hosts)
        if config.churn_rate > 0:
            for _ in range(config.n_nodes):
                self._add_host()
        self.tick = 0
        self.total_consumed = 0
        self.counters: dict[str, int] = {
            "decision_rounds": 0,
            "churn_joins": 0,
            "churn_leaves": 0,
        }
        if failures.crash_fraction > 0:
            self.counters["crashes"] = 0

    # ------------------------------------------------------------------
    def _build(self, converge_rounds: int) -> None:
        cfg = self.config
        ids: list[int] = []
        seen: set[int] = set()
        while len(ids) < cfg.n_nodes:
            ident = self.space.random_id(self.rng)
            if ident not in seen:
                seen.add(ident)
                ids.append(ident)
        nodes = [
            ChordNode(
                ident, self.space, self.ring.network,
                n_successors=cfg.num_successors,
            )
            for ident in ids
        ]
        nodes[0].create()
        for node in nodes[1:]:
            node.join(nodes[0].id)
        self.ring.converge(max_rounds=max(converge_rounds, 2 * cfg.n_nodes))
        for node in nodes:
            self._add_host().enter(node)

        # scatter the job's tasks over the ring
        if self._items is not None:
            for key, value in self._items.items():
                self.ring.put(key, value)
        else:
            for _ in range(cfg.n_tasks):
                key = self.space.random_id(self.rng)
                self.ring.put(key, _TASK)

    def _add_host(self) -> _Host:
        """A new host outside the ring; its strength is drawn here."""
        cfg = self.config
        strength = (
            int(self.rng.integers(1, cfg.max_sybils + 1))
            if cfg.heterogeneous
            else 1
        )
        host = _Host(self, len(self.hosts), strength)
        self.hosts.append(host)
        return host

    def remaining(self) -> int:
        return sum(
            node.store.primary_count
            for host in self.hosts
            for node in host.identities()
        )

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def step(self) -> int:
        """One tick: strategy round, churn, one maintenance round,
        consumption — the same phase order as the tick engine."""
        self.tick += 1
        cfg = self.config
        if cfg.decision_interval and self.tick % cfg.decision_interval == 0:
            # one round per host, in a shuffled order, as on a live ring
            hosts = [h for h in self.hosts if h.in_network]
            for i in self.rng.permutation(len(hosts)).tolist():
                hosts[i].view.run_round()
            self.counters["decision_rounds"] += 1
        if cfg.churn_rate > 0:
            self._apply_churn()
        self.ring.network.tick()
        self.ring.maintenance_round()
        consumed = self._consume()
        self.total_consumed += consumed
        return consumed

    def _apply_churn(self) -> None:
        """Protocol churn mirroring the tick engine (§IV-A).

        With ``failures.crash_fraction > 0``, that fraction of
        departures are crash-stop: no replica sync, no hand-off, no
        goodbye — the node simply dies (with delayed detection if
        configured), and its un-replicated primaries die with it.
        """
        rate = self.config.churn_rate
        crash_fraction = self.config.failures.crash_fraction
        in_net = [h for h in self.hosts if h.in_network]
        waiting = [h for h in self.hosts if not h.in_network]
        # departures (keep at least 2 live nodes so the ring survives)
        for host in in_net:
            if len(self.ring.network) <= 2:
                break
            if self.rng.random() >= rate:
                continue
            crash = crash_fraction > 0 and self.rng.random() < crash_fraction
            host.depart(crash)
            self.counters["churn_leaves"] += 1
            if crash:
                self.counters["crashes"] += 1
        # arrivals
        for host in waiting:
            if self.rng.random() >= rate:
                continue
            ident = None
            for _ in range(64):
                candidate = self.space.random_id(self.rng)
                if not self.ring.network.has_node(candidate):
                    ident = candidate
                    break
            if ident is None:
                continue
            node = ChordNode(
                ident,
                self.space,
                self.ring.network,
                n_successors=self.config.num_successors,
            )
            try:
                node.join(self.ring.random_alive_id())
            except ProtocolError:
                self.ring.network.deregister(ident)
                continue
            host.enter(node)
            self.counters["churn_joins"] += 1

    def _consume(self) -> int:
        consumed = 0
        for host in self.hosts:
            budget = host.rate
            # heaviest identity first, like the tick engine
            nodes = sorted(
                host.identities(), key=lambda n: -n.store.primary_count
            )
            for node in nodes:
                while budget > 0 and node.store.primary_count > 0:
                    key = next(iter(node.store.primary_keys))
                    value = node.complete_task(key)
                    if self.on_consume is not None:
                        self.on_consume(key, value)
                    budget -= 1
                    consumed += 1
                if budget == 0:
                    break
        return consumed

    def run(self, max_ticks: int | None = None) -> dict:
        """Run to completion; returns a summary dict.

        With failure injection, a run can end with work destroyed
        (``termination_reason="data_loss"``): crashed nodes took
        un-replicated keys with them, so the visible workload drains
        before every submitted task ran.  Keys that survived as
        replicas get a short grace window of maintenance-only ticks to
        be promoted and counted before the run is declared over.
        """
        cap = max_ticks if max_ticks is not None else self.config.max_ticks
        n_tasks = self.config.n_tasks
        grace = max(6, self.config.num_successors + 2)
        while self.tick < cap:
            if self.remaining() > 0:
                self.step()
                continue
            if self.total_consumed >= n_tasks:
                break
            # tasks are missing: they are either truly lost or sitting
            # as un-promoted replicas on a crashed node's successor
            recovered = False
            for _ in range(grace):
                if self.tick >= cap:
                    break
                self.step()
                if self.remaining() > 0:
                    recovered = True
                    break
            if not recovered:
                break
        remaining = self.remaining()
        lost = max(0, n_tasks - self.total_consumed - remaining)
        if remaining == 0 and lost == 0:
            reason = None
        elif remaining == 0:
            reason = "data_loss"
        else:
            reason = "max_ticks"
        net = self.ring.network
        return {
            **self.counters,
            "runtime_ticks": self.tick,
            "ideal_ticks": self.ideal_ticks,
            "runtime_factor": self.tick / self.ideal_ticks,
            "completed": remaining == 0 and lost == 0,
            "termination_reason": reason,
            "total_consumed": self.total_consumed,
            "tasks_lost": lost,
            "strategy_messages": self.counters.get("messages", 0),
            "network_messages": net.total_messages(),
            **{f"network_{k}": v for k, v in net.fault_stats().items()},
        }
