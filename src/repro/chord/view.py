"""One host's :class:`~repro.core.strategy.NetworkView` over Chord nodes.

Each host of a :class:`~repro.chord.balance.ProtocolSimulation` and
each live :class:`~repro.net.node.LiveNode` owns one :class:`ChordView`,
and a decision round is ``make_strategy(config).decide(view)``: the same
:mod:`repro.core` code the tick simulator runs through ``SimView``.
"""

from __future__ import annotations

import threading  # reprolint: disable=R002 (round lock; one thread in sims)
from typing import Any, Callable, Hashable

import numpy as np

from repro.chord.node import ChordNode
from repro.config import SimulationConfig
from repro.core.registry import make_strategy
from repro.core.strategy import NetworkView, RoundStats
from repro.errors import IdSpaceError, ProtocolError

__all__ = ["ChordView"]

#: the census of a peer that does not answer: it cannot help
_NO_REPLY = {"load": 0, "n_sybils": 0, "max_sybils": 0, "strength": 1}

#: identifier draws an injection makes before it gives up
_DRAWS = 8


class ChordView(NetworkView):
    """What one host's strategy may see and do on a Chord ring.

    Owner ``0`` is the host: its main identity plus its Sybils, the only
    nodes the view reads directly.  Every other read is an RPC over the
    surface ``SimNetwork`` and ``RemoteNetwork`` share (``node`` for the
    host's own identities, ``rpc_retry``, ``is_alive``, ``deregister``),
    and another host is an owner interned from the key the host object
    gives a remote id.  Everything that differs between the protocol
    simulation and a live ring goes through that host object:

    * ``network``, ``space``, ``main``, ``identities()``, ``sybils()``,
      ``adopt_sybil(node)`` and ``drop_sybil(id)``: its identities;
    * ``peer(id)``: the key of the host a remote id belongs to;
    * ``census(key)``: that host's load, Sybil count and cap and
      strength (§IV-D's reply to an announcement), None when it fails;
    * ``invite(key, slot)``: that host's :meth:`accept_invite`;
    * ``rng``, ``total_tasks``, ``initial_nodes``, ``strength`` and
      ``sybil_cap``;
    * ``book(stats)``: files a closed round's :class:`RoundStats`;
    * ``relocate(id, join)``: moves the main identity to ``id``.

    One rule holds on both layers where they could differ, and none of
    them reads remote state:

    * a gap is the distance between consecutive ids of the slot's own
      successor list;
    * a free id is one of at most 8 draws that ``is_alive`` denies, and
      none found skips the action;
    * a Sybil whose join fails is deregistered and its action skipped,
      with no ring-wide repair round (no host can run one);
    * strength comes from the host object (live hosts report 1);
    * only a protocol host can relocate; a live one raises
      :class:`~repro.errors.ConfigError`.

    One lock covers a round and :meth:`accept_invite`, which refuses
    rather than waits, so two hosts inviting each other mid-round never
    deadlock.
    """

    def __init__(self, host: Any, config: SimulationConfig) -> None:
        self._host = host
        self._config = config
        self.strategy = make_strategy(config)
        self._lock = threading.Lock()
        self._stats = RoundStats()
        self._load = 0
        self._owners: dict[Hashable, int] = {}
        self._peers: list[Hashable] = [None]
        self._census: dict[int, dict[str, Any]] = {}

    def run_round(self) -> None:
        """One decision round of this host's strategy."""
        with self._lock:
            self._begin()
            try:
                self.strategy.decide(self)
            finally:
                self._host.book(self._stats)

    def accept_invite(self, slot: int) -> int | None:
        """A Sybil in ``slot``'s arc, or None when this host is above
        threshold, out of budget or mid-round."""
        if not self._lock.acquire(blocking=False):
            return None
        try:
            self._begin()
            if self._load > self._config.sybil_threshold or (
                not self.can_add_sybil(0)
            ):
                return None
            return self.create_sybil_in_slot_arc(0, slot)
        finally:
            self._host.book(self._stats)
            self._lock.release()

    def census(self) -> dict[str, int]:
        """This host's answer to a peer's ``census``."""
        host = self._host
        return {
            "load": self.live_owner_load(0),
            "n_sybils": len(host.sybils()),
            "max_sybils": host.sybil_cap,
            "strength": host.strength,
        }

    def _begin(self) -> None:
        self._stats, self._census = RoundStats(), {}
        self._load = self.live_owner_load(0)

    # -- static context -------------------------------------------------
    @property
    def config(self) -> SimulationConfig:
        return self._config

    @property
    def rng(self) -> np.random.Generator:
        return self._host.rng

    @property
    def total_tasks(self) -> int:
        return self._host.total_tasks

    @property
    def initial_nodes(self) -> int:
        return self._host.initial_nodes

    # -- owner census ----------------------------------------------------
    def network_owners(self) -> np.ndarray:
        return np.zeros(1, dtype=np.int64)

    def owner_loads(self) -> np.ndarray:
        return np.array([self._load], dtype=np.int64)

    def live_owner_load(self, owner: int) -> int:
        if owner:
            return int(self._reply(owner)["load"])
        return sum(n.store.primary_count for n in self._host.identities())

    def n_sybils(self, owner: int) -> int:
        if owner:
            return int(self._reply(owner)["n_sybils"])
        return len(self._host.sybils())

    def can_add_sybil(self, owner: int) -> bool:
        if owner:
            reply = self._reply(owner)
            return int(reply["n_sybils"]) < int(reply["max_sybils"])
        return len(self._host.sybils()) < self._host.sybil_cap

    def owner_strength(self, owner: int) -> int:
        if owner:
            return int(self._reply(owner)["strength"])
        return self._host.strength

    def _reply(self, owner: int) -> dict[str, Any]:
        if owner not in self._census:
            reply = self._host.census(self._peers[owner])
            self._census[owner] = reply or _NO_REPLY
        return self._census[owner]

    def _owner(self, ident: int) -> int:
        if self._local(ident) is not None:
            return 0
        key = self._host.peer(ident)
        if key not in self._owners:
            self._owners[key] = len(self._peers)
            self._peers.append(key)
        return self._owners[key]

    # -- topology (local only) -------------------------------------------
    def main_slot(self, owner: int) -> int:
        return self._host.main.id

    def heaviest_slot(self, owner: int) -> int:
        nodes = self._host.identities()
        return max(nodes, key=lambda n: n.store.primary_count).id

    def successor_window(
        self, slot: int, k: int, *, counts: bool = False
    ) -> tuple[list[int], ...]:
        net = self._host.network
        slots = self._known(net.node(slot).successor_list, slot, k)
        owners = [self._owner(s) for s in slots]
        space = self._host.space
        gaps = [space.distance(a, b) for a, b in zip([slot] + slots, slots)]
        if not counts:
            return slots, owners, gaps
        loads = [int(net.rpc_retry(s, "rpc_report_load")) for s in slots]
        return slots, owners, gaps, loads

    def predecessor_window(
        self, slot: int, k: int
    ) -> tuple[list[int], list[int]]:
        preds = self._read(slot, "predecessor_list") or []
        slots = self._known(preds, slot, k)
        return slots, [self._owner(s) for s in slots]

    def _local(self, slot: int) -> ChordNode | None:
        """This host's node at ``slot``, or None for another host's."""
        return next(
            (n for n in self._host.identities() if n.id == slot), None
        )

    def _read(self, slot: int, field: str) -> Any:
        """A slot's own ``field``: a local read, or one RPC to its host
        (None when the slot has left)."""
        node = self._local(slot)
        if node is not None:
            return getattr(node, field)
        try:
            return self._host.network.rpc_retry(slot, f"rpc_get_{field}")
        except ProtocolError:
            return None

    def _known(self, neighbours: list[int], slot: int, k: int) -> list[int]:
        """The first ``k`` of ``neighbours``, bar ``slot``, that are
        alive as far as this host knows."""
        known = self._host.network.is_alive
        return [s for s in neighbours if s != slot and known(s)][:k]

    def slot_id(self, slot: int) -> int:
        return slot

    # -- actions -----------------------------------------------------------
    def create_sybil_random(self, owner: int) -> int:
        space = self._host.space
        ident = self._free_id(lambda: space.random_id(self.rng))
        if ident is None:
            self._stats.actions_skipped += 1
            return 0
        return self._spawn(ident)

    def create_sybil_in_slot_arc(self, owner: int, slot: int) -> int | None:
        if owner:
            return self._host.invite(self._peers[owner], slot)
        ident = self._arc_id(slot)
        return None if ident is None else self._spawn(ident)

    def _arc_id(self, slot: int) -> int | None:
        """A free id strictly inside ``slot``'s arc, or None."""
        pred = self._read(slot, "predecessor")
        if pred is None:
            return None
        space = self._host.space
        try:
            return self._free_id(
                lambda: space.random_in_interval(self.rng, int(pred), slot)
            )
        except IdSpaceError:
            return None  # arc too tight to split

    def _free_id(self, draw: Callable[[], int]) -> int | None:
        is_alive = self._host.network.is_alive
        for _ in range(_DRAWS):
            ident = draw()
            if not is_alive(ident):
                return ident
        return None

    def _join(self, ident: int) -> ChordNode | None:
        """A new node at ``ident`` joined through the main identity, or
        None (deregistered again) when the join fails."""
        host = self._host
        node = ChordNode(
            ident, host.space, host.network,
            n_successors=self._config.num_successors,
        )
        try:
            node.join(host.main.id)
        except ProtocolError:
            host.network.deregister(ident)
            return None
        return node

    def _spawn(self, ident: int) -> int:
        sybil = self._join(ident)
        if sybil is None:
            self._stats.actions_skipped += 1
            return 0
        self._host.adopt_sybil(sybil)
        acquired = sybil.store.primary_count
        self._stats.sybils_created += 1
        self._stats.tasks_acquired += acquired
        return acquired

    def retire_sybils(self, owner: int) -> int:
        host = self._host
        sybils = host.sybils()
        for sybil in sybils:
            sybil.leave()
            host.network.deregister(sybil.id)
            host.drop_sybil(sybil.id)
        self._stats.sybils_retired += len(sybils)
        return len(sybils)

    def relocate_main(self, owner: int, target_slot: int) -> int | None:
        """A real leave and rejoin of the main identity inside
        ``target_slot``'s arc."""
        ident = self._arc_id(target_slot)
        main = None if ident is None else self._host.relocate(
            ident, self._join
        )
        if main is None:
            return None
        acquired = main.store.primary_count
        self._stats.relocations += 1
        self._stats.tasks_acquired += acquired
        return acquired

    # -- accounting ----------------------------------------------------
    def count_messages(self, n: int = 1) -> None:
        self._stats.messages += n

    @property
    def stats(self) -> RoundStats:
        return self._stats
