"""Run the paper's strategies on the *protocol-level* Chord network.

The tick simulator (:mod:`repro.sim`) is the paper-scale vehicle; this
module closes the loop by executing the exact same
:class:`~repro.core.strategy.Strategy` objects against real protocol
nodes — joins are actual Chord joins, key hand-off rides the
notify/transfer path, queries and announcements are RPCs counted by the
network fabric.  It validates that the simulator's abstractions (instant
acquisition of a range, lossless hand-off) are implementable, and powers
the ``chord_protocol_demo`` example and the cross-layer integration
tests.

Scale guidance: protocol runs are O(messages); keep them at ≲200 hosts /
≲50k tasks.  The measured runtime factors agree with the tick simulator
within trial noise (see ``tests/test_cross_layer.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.chord.node import ChordNode
from repro.chord.ring import ChordRing
from repro.config import SimulationConfig
from repro.core.registry import make_strategy
from repro.core.strategy import NetworkView, RoundStats
from repro.errors import IdSpaceError, ProtocolError, SimulationError
from repro.hashspace.idspace import IdSpace
from repro.util.rng import make_rng

__all__ = ["ProtocolSimulation", "ProtocolView"]

#: value stored under every task key
_TASK = "task"


@dataclass
class _Host:
    """A physical machine: one main protocol node plus its Sybils."""

    index: int
    main_id: int
    strength: int
    rate: int
    sybil_cap: int
    sybil_ids: list[int] = field(default_factory=list)
    in_network: bool = True

    @property
    def node_ids(self) -> list[int]:
        if not self.in_network:
            return []
        return [self.main_id, *self.sybil_ids]


class ProtocolView(NetworkView):
    """NetworkView over live protocol nodes.

    "Slots" are protocol node *identifiers* (they are plain ints, which
    the strategy code treats opaquely).  Topology queries use only what a
    node knows locally: its successor list, predecessor list, and the
    arcs derivable from them.
    """

    def __init__(self, sim: "ProtocolSimulation"):
        self._sim = sim
        self._stats = RoundStats()
        self._loads: np.ndarray | None = None

    def begin_round(self) -> RoundStats:
        self._loads = self._sim.host_loads()
        self._stats = RoundStats()
        return self._stats

    # -- static context -------------------------------------------------
    @property
    def config(self) -> SimulationConfig:
        return self._sim.config

    @property
    def rng(self) -> np.random.Generator:
        return self._sim.rng

    @property
    def total_tasks(self) -> int:
        return self._sim.config.n_tasks

    @property
    def initial_nodes(self) -> int:
        return self._sim.config.n_nodes

    # -- owner census ------------------------------------------------------
    def network_owners(self) -> np.ndarray:
        return np.array(
            [h.index for h in self._sim.hosts if h.in_network],
            dtype=np.int64,
        )

    def owner_loads(self) -> np.ndarray:
        if self._loads is None:
            self._loads = self._sim.host_loads()
        return self._loads

    def live_owner_load(self, owner: int) -> int:
        return self._sim.host_load(owner)

    def n_sybils(self, owner: int) -> int:
        return len(self._sim.hosts[owner].sybil_ids)

    def can_add_sybil(self, owner: int) -> bool:
        host = self._sim.hosts[owner]
        return len(host.sybil_ids) < host.sybil_cap

    # -- topology (local info only) ------------------------------------
    def main_slot(self, owner: int) -> int:
        return self._sim.hosts[owner].main_id

    def heaviest_slot(self, owner: int) -> int:
        host = self._sim.hosts[owner]
        node_of = self._sim.ring.network.node
        return max(
            host.node_ids, key=lambda nid: node_of(nid).store.primary_count
        )

    def successor_window(
        self, slot: int, k: int, *, counts: bool = False
    ) -> tuple[list[int], ...]:
        network = self._sim.ring.network
        slots = self._live(network.node(slot).successor_list, slot, k)
        owners = [self._sim.owner_of(s) for s in slots]
        # a successor's arc runs from its own predecessor pointer
        space, node = self._sim.space, network.node
        gaps = []
        for s in slots:
            pred = node(s).predecessor
            gaps.append(0 if pred is None else space.distance(pred, s))
        if counts:
            loads = [network.rpc(s, "rpc_report_load") for s in slots]
            return slots, owners, gaps, loads
        return slots, owners, gaps

    def predecessor_window(
        self, slot: int, k: int
    ) -> tuple[list[int], list[int]]:
        node = self._sim.ring.network.node(slot)
        slots = self._live(node.predecessor_list, slot, k)
        return slots, [self._sim.owner_of(p) for p in slots]

    def _live(self, neighbours: list[int], slot: int, k: int) -> list[int]:
        """The first ``k`` of ``neighbours`` that are live and not
        ``slot`` itself."""
        alive = self._sim.ring.network.is_alive
        return [s for s in neighbours if s != slot and alive(s)][:k]

    def slot_id(self, slot: int) -> int:
        return slot

    # -- actions -----------------------------------------------------------
    def create_sybil_random(self, owner: int) -> int:
        ident = self._free_random_id()
        return self._spawn_sybil(owner, ident)

    def create_sybil_in_slot_arc(self, owner: int, slot: int) -> int | None:
        node = self._sim.ring.network.node(slot)
        pred = node.predecessor
        if pred is None:
            return None
        space = self._sim.space
        for _ in range(8):
            try:
                ident = space.random_in_interval(self.rng, pred, slot)
            except IdSpaceError:
                return None
            if not self._sim.ring.network.has_node(ident):
                return self._spawn_sybil(owner, ident)
        return None

    def retire_sybils(self, owner: int) -> int:
        host = self._sim.hosts[owner]
        retired = 0
        for sid in list(host.sybil_ids):
            self._sim.ring.leave_node(sid)
            self._sim.ring.network.deregister(sid)
            host.sybil_ids.remove(sid)
            self._sim.forget_owner(sid)
            retired += 1
        self._stats.sybils_retired += retired
        return retired

    def owner_strength(self, owner: int) -> int:
        return self._sim.hosts[owner].strength

    def relocate_main(self, owner: int, target_slot: int) -> int | None:
        """Protocol-level identity relocation: a real leave + rejoin."""
        host = self._sim.hosts[owner]
        node = self._sim.ring.network.node(target_slot)
        pred = node.predecessor
        if pred is None:
            return None
        space = self._sim.space
        ident = None
        for _ in range(8):
            try:
                candidate = space.random_in_interval(self.rng, pred, target_slot)
            except IdSpaceError:
                return None
            if not self._sim.ring.network.has_node(candidate):
                ident = candidate
                break
        if ident is None:
            return None
        old_id = host.main_id
        new_node = ChordNode(
            ident,
            space,
            self._sim.ring.network,
            n_successors=self._sim.config.num_successors,
        )
        try:
            new_node.join(old_id)
        except ProtocolError:
            self._sim.ring.network.deregister(ident)
            return None
        self._sim.ring.leave_node(old_id)
        self._sim.ring.network.deregister(old_id)
        self._sim.forget_owner(old_id)
        host.main_id = ident
        self._sim.set_owner(ident, owner)
        acquired = new_node.store.primary_count
        self._stats.relocations += 1
        self._stats.tasks_acquired += acquired
        return acquired

    def count_messages(self, n: int = 1) -> None:
        self._stats.messages += n

    @property
    def stats(self) -> RoundStats:
        return self._stats

    # -- internals -------------------------------------------------------
    def _free_random_id(self) -> int:
        space = self._sim.space
        for _ in range(64):
            ident = space.random_id(self.rng)
            if not self._sim.ring.network.has_node(ident):
                return ident
        raise SimulationError("could not find a free protocol identifier")

    def _spawn_sybil(self, owner: int, ident: int) -> int:
        host = self._sim.hosts[owner]
        node = ChordNode(
            ident,
            self._sim.space,
            self._sim.ring.network,
            n_successors=self._sim.config.num_successors,
        )
        try:
            node.join(host.main_id)
        except ProtocolError:
            # Join races a burst of Sybil retirements; one stabilization
            # round repairs the neighbourhood (a real node would simply
            # retry after a timeout).  Skip the action if it still fails.
            self._sim.ring.maintenance_round()
            try:
                node.join(host.main_id)
            except ProtocolError:
                self._sim.ring.network.deregister(ident)
                self._stats.actions_skipped += 1
                return 0
        host.sybil_ids.append(ident)
        self._sim.set_owner(ident, owner)
        acquired = node.store.primary_count
        self._stats.sybils_created += 1
        self._stats.tasks_acquired += acquired
        return acquired


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
        self._owner_of: dict[int, int] = {}
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
        self._initial_hosts = len(self.hosts)
        self.ideal_ticks = config.n_tasks / sum(h.rate for h in self.hosts)
        if config.churn_rate > 0:
            for offset in range(config.n_nodes):
                index = len(self.hosts)
                if config.heterogeneous:
                    strength = int(self.rng.integers(1, config.max_sybils + 1))
                else:
                    strength = 1
                rate = (
                    strength if config.work_measurement == "strength" else 1
                )
                cap = strength if config.heterogeneous else config.max_sybils
                self.hosts.append(
                    _Host(
                        index=index,
                        main_id=-1,
                        strength=strength,
                        rate=rate,
                        sybil_cap=cap,
                        in_network=False,
                    )
                )

        self.strategy = make_strategy(config)
        self.view = ProtocolView(self)
        self.strategy.on_attach(self.view)
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
        first = ChordNode(
            ids[0], self.space, self.ring.network,
            n_successors=cfg.num_successors,
        )
        first.create()
        for ident in ids[1:]:
            ChordNode(
                ident, self.space, self.ring.network,
                n_successors=cfg.num_successors,
            ).join(first.id)
        self.ring.converge(max_rounds=max(converge_rounds, 2 * cfg.n_nodes))

        for index, ident in enumerate(ids):
            if cfg.heterogeneous:
                strength = int(self.rng.integers(1, cfg.max_sybils + 1))
            else:
                strength = 1
            rate = strength if cfg.work_measurement == "strength" else 1
            cap = strength if cfg.heterogeneous else cfg.max_sybils
            self.hosts.append(
                _Host(
                    index=index,
                    main_id=ident,
                    strength=strength,
                    rate=rate,
                    sybil_cap=cap,
                )
            )
            self._owner_of[ident] = index

        # scatter the job's tasks over the ring
        if self._items is not None:
            for key, value in self._items.items():
                self.ring.put(key, value)
        else:
            for _ in range(cfg.n_tasks):
                key = self.space.random_id(self.rng)
                self.ring.put(key, _TASK)

    # ------------------------------------------------------------------
    # host bookkeeping used by the view
    # ------------------------------------------------------------------
    def owner_of(self, node_id: int) -> int:
        return self._owner_of[node_id]

    def set_owner(self, node_id: int, owner: int) -> None:
        self._owner_of[node_id] = owner

    def forget_owner(self, node_id: int) -> None:
        self._owner_of.pop(node_id, None)

    def host_load(self, owner: int) -> int:
        node_of = self.ring.network.node
        return sum(
            node_of(nid).store.primary_count
            for nid in self.hosts[owner].node_ids
        )

    def host_loads(self) -> np.ndarray:
        return np.array(
            [self.host_load(h.index) for h in self.hosts], dtype=np.int64
        )

    def remaining(self) -> int:
        return int(self.host_loads().sum())

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def step(self) -> int:
        """One tick: strategy round, churn, one maintenance round,
        consumption — the same phase order as the tick engine."""
        self.tick += 1
        cfg = self.config
        if cfg.decision_interval and self.tick % cfg.decision_interval == 0:
            stats = self.view.begin_round()
            self.strategy.decide(self.view)
            stats.merge_into(self.counters)
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
            if crash_fraction > 0 and self.rng.random() < crash_fraction:
                for sid in list(host.sybil_ids):
                    self.ring.network.crash(sid)
                    self.forget_owner(sid)
                host.sybil_ids.clear()
                self.ring.network.crash(host.main_id)
                self.forget_owner(host.main_id)
                host.in_network = False
                host.main_id = -1
                self.counters["churn_leaves"] += 1
                self.counters["crashes"] += 1
                continue
            for sid in list(host.sybil_ids):
                self.ring.leave_node(sid)
                self.ring.network.deregister(sid)
                self.forget_owner(sid)
            host.sybil_ids.clear()
            self.ring.leave_node(host.main_id)
            self.ring.network.deregister(host.main_id)
            self.forget_owner(host.main_id)
            host.in_network = False
            host.main_id = -1
            self.counters["churn_leaves"] += 1
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
            host.in_network = True
            host.main_id = ident
            self.set_owner(ident, host.index)
            self.counters["churn_joins"] += 1

    def _consume(self) -> int:
        consumed = 0
        node_of = self.ring.network.node
        for host in self.hosts:
            if not host.in_network:
                continue
            budget = host.rate
            # heaviest identity first, like the tick engine
            nodes = sorted(
                (node_of(nid) for nid in host.node_ids),
                key=lambda n: -n.store.primary_count,
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
