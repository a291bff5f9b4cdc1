"""The tick simulator's implementation of the strategy-facing view.

:class:`SimView` adapts (:class:`~repro.sim.state.RingState`,
:class:`~repro.sim.owners.OwnerRegistry`) to the
:class:`~repro.core.strategy.NetworkView` interface.  It also owns the
per-round accounting (Sybils created/retired, tasks acquired, messages),
and realizes the paper's placement assumption: Sybil identifiers are
*searched for* inside a target range, not chosen exactly.

Round semantics
---------------

A decision round's Sybil creations and retirements are *deferred*: the
first action of a round opens a :class:`_RoundOverlay`, a merged view of
the ring at round start plus the round's pending joins and departures,
kept as plain Python lists in ring order.  Every read a strategy makes
afterwards — slot indices, arcs, gaps, owners, counts, ``id_exists``,
``heaviest_slot``, ``live_owner_load`` — answers from the overlay
exactly as the ring would after applying each action on the spot.  The
engine calls :meth:`SimView.end_round` after ``decide``; it commits the
round through one :class:`~repro.sim.state.BatchRemoval` and one
:class:`~repro.sim.state.BatchInsertion`, so the slab is restructured
once per round instead of once per Sybil.

Deferral is exact because neither half draws randomness:

* **splits** only partition the enclosing slot's keys, in order, so the
  final layout depends on the set of new identifiers, not on when they
  joined;
* **retirements are deferred only when they move no keys** — every
  retired slot held no remaining tasks at round start (true of every
  retirement the paper's strategies make: an owner retires only when
  its whole load is zero).  A keyless departure never reaches the
  merge reshuffle, so the shared RNG stream is untouched.

An action the overlay cannot replay exactly — a retirement that would
move keys (or retire a Sybil created this round), and every
``relocate_main`` — first commits the overlay, then runs the ring's
per-slot primitive.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.core.strategy import NetworkView, RoundStats
from repro.errors import IdSpaceError
from repro.config import SimulationConfig
from repro.sim.arcops import count_in_arc, in_arc_mask
from repro.sim.owners import OwnerRegistry
from repro.sim.state import RingState, median_in_arc
from repro.sim.workload import draw_new_node_id

__all__ = ["SimView"]


class _RoundOverlay:
    """The ring as the current round's deferred actions have left it.

    ``ids``/``owner``/``counts`` describe the merged ring in ring order.
    The ring state itself is untouched until :meth:`commit`, so its
    arrays remain the round-start ("base") ring: a slot's remaining keys
    are always a contiguous run of the keys of the base slot responsible
    for its identifier, and counts come from range queries on those.
    """

    def __init__(self, state: RingState, loads: np.ndarray):
        self.state = state
        self.size = state.space.size
        self.base_ids: list[int] = state.ids.tolist()
        self.base_counts: list[int] = state.counts.tolist()
        self.ids = self.base_ids.copy()
        self.owner: list[int] = state.owner.tolist()
        self.counts = self.base_counts.copy()
        # live owner load = start-of-overlay load + this round's transfers
        self.loads = loads
        self.load_delta: dict[int, int] = {}
        # base positions of each owner's main identity and Sybils, built
        # on first use: a round with few actions may need neither
        self._main_pos: dict[int, int] | None = None
        self._base_sybils: dict[int, list[int]] | None = None
        # pending Sybil creations: ident -> owner, and owner -> idents
        self.pending: dict[int, int] = {}
        self.pending_by_owner: dict[int, list[int]] = {}
        # owners whose base Sybils retired, and those Sybils' identifiers
        self.retiring: list[int] = []
        self.retired_ids: set[int] = set()

    # -- reads -----------------------------------------------------------
    def id_exists(self, ident: int) -> bool:
        ids = self.ids
        i = bisect_left(ids, ident)
        return i < len(ids) and ids[i] == ident

    def slot_arc(self, slot: int) -> tuple[int, int]:
        ids = self.ids
        return ids[slot - 1], ids[slot]  # slot 0 wraps to the last id

    def live_load(self, owner: int) -> int:
        return int(self.loads[owner]) + self.load_delta.get(owner, 0)

    def _base_keys(self, ident: int) -> np.ndarray:
        """Remaining keys of the base slot responsible for ``ident``."""
        r = bisect_left(self.base_ids, ident)
        if r == len(self.base_ids):
            r = 0
        return self.state.keys[r][: self.base_counts[r]]

    def median_key(self, slot: int) -> int | None:
        start, end = self.slot_arc(slot)
        keys = self._base_keys(end)
        keys = keys[in_arc_mask(keys, start, end)]
        return median_in_arc(keys, start, self.state.space)

    def main_slot(self, owner: int) -> int:
        if self._main_pos is None:
            state = self.state
            mains = np.flatnonzero(state.is_main)
            self._main_pos = dict(
                zip(state.owner[mains].tolist(), mains.tolist())
            )
            if len(self._main_pos) != mains.size:
                self._main_pos = {}  # a doubled main: let the ring raise
        p = self._main_pos.get(owner)
        if p is None:
            p = self.state.main_slot_of(owner)  # raises: no single main
        return bisect_left(self.ids, self.base_ids[p])

    def owner_slots(self, owner: int) -> list[int]:
        """Merged positions of the owner's slots, ascending."""
        base = self.base_ids
        retired = self.retired_ids
        idents = [
            base[p]
            for p in self.state.slots_of_owner(owner).tolist()
            if base[p] not in retired
        ]
        idents.extend(self.pending_by_owner.get(owner, ()))
        ids = self.ids
        return sorted(bisect_left(ids, i) for i in idents)

    # -- deferred actions ------------------------------------------------
    def insert(self, ident: int, owner: int) -> int:
        """Add a pending Sybil; returns the keys it acquires."""
        ids = self.ids
        pos = bisect_left(ids, ident)
        succ = pos if pos < len(ids) else 0
        keys = self._base_keys(ident)
        acquired = (
            count_in_arc(keys, ids[succ - 1], ident, self.size)
            if keys.size
            else 0
        )
        if acquired:
            self.counts[succ] -= acquired
            delta = self.load_delta
            loser = self.owner[succ]
            delta[loser] = delta.get(loser, 0) - acquired
            delta[owner] = delta.get(owner, 0) + acquired
        ids.insert(pos, ident)
        self.owner.insert(pos, owner)
        self.counts.insert(pos, acquired)
        self.pending[ident] = owner
        self.pending_by_owner.setdefault(owner, []).append(ident)
        return acquired

    def retire(self, owner: int) -> int | None:
        """Remove the owner's Sybils; None when that would move keys.

        Deferred only if every Sybil is a base slot that held no keys
        at round start and the ring keeps a slot; otherwise the caller
        commits and retires on the ring itself.
        """
        if self.pending_by_owner.get(owner):
            return None  # a Sybil created this round may hold keys
        if self._base_sybils is None:
            state = self.state
            sybils = np.flatnonzero(~state.is_main)
            self._base_sybils = {}
            for p, o in zip(sybils.tolist(), state.owner[sybils].tolist()):
                self._base_sybils.setdefault(o, []).append(p)
        targets = self._base_sybils.pop(owner, None)
        if not targets:
            return 0
        ids = self.ids
        if len(ids) <= len(targets):
            return None
        counts = self.base_counts
        for p in targets:
            if counts[p]:
                return None
        base = self.base_ids
        for p in reversed(targets):
            m = bisect_left(ids, base[p])
            del ids[m], self.owner[m], self.counts[m]
            self.retired_ids.add(base[p])
        self.retiring.append(owner)
        return len(targets)

    def commit(self) -> None:
        """Apply the round to the ring: one batch removal, one insertion."""
        state = self.state
        if self.retiring:
            removal = state.begin_batch_removal(self.retiring)
            for owner in self.retiring:
                removal.retire_sybils(owner)
            removal.commit()
        if self.pending:
            insertion = state.begin_batch_insertion()
            insertion.add_many(
                self.pending.keys(), self.pending.values(), is_main=False
            )
            insertion.commit()


class SimView(NetworkView):
    """Local-information window onto the simulated network."""

    def __init__(
        self,
        config: SimulationConfig,
        state: RingState,
        owners: OwnerRegistry,
        rng: np.random.Generator,
        *,
        event_sink=None,
    ):
        self._config = config
        self._state = state
        self._owners = owners
        self._rng = rng
        self._loads: np.ndarray | None = None
        self._stats = RoundStats()
        self._round: _RoundOverlay | None = None
        # hoisted flag: the hot create path skips building event fields
        # when no sink is attached
        self._tracing = event_sink is not None
        self._emit = event_sink if event_sink is not None else (
            lambda kind, **fields: None
        )

    # ------------------------------------------------------------------
    # round lifecycle (driven by the engine)
    # ------------------------------------------------------------------
    def begin_round(self) -> RoundStats:
        """Snapshot owner loads and reset round accounting.

        All nodes decide "simultaneously" from the workloads observed at
        the start of the round, as in the paper's Figure 7 description of
        a single load-balancing operation.
        """
        self.end_round()
        self._loads = self._state.owner_loads(self._owners.n_total)
        self._stats = RoundStats()
        return self._stats

    def end_round(self) -> None:
        """Commit the round's deferred actions to the ring.

        Until this runs, ``RingState`` still holds the round-start ring;
        the engine calls it right after ``Strategy.decide``.
        """
        overlay = self._round
        if overlay is not None:
            self._round = None
            overlay.commit()

    def _open_round(self) -> _RoundOverlay:
        overlay = self._round
        if overlay is None:
            overlay = self._round = _RoundOverlay(
                self._state, self._state.owner_loads(self._owners.n_total)
            )
        return overlay

    # ------------------------------------------------------------------
    # NetworkView: static context
    # ------------------------------------------------------------------
    @property
    def config(self) -> SimulationConfig:
        return self._config

    @property
    def rng(self) -> np.random.Generator:
        return self._rng

    @property
    def total_tasks(self) -> int:
        return self._config.n_tasks

    @property
    def initial_nodes(self) -> int:
        return self._config.n_nodes

    # ------------------------------------------------------------------
    # NetworkView: owner census
    # ------------------------------------------------------------------
    def network_owners(self) -> np.ndarray:
        # Honest owners only: adversarial identities never run the
        # balancing protocol (they are not cooperating peers).  With no
        # adversaries configured this is the plain network view.
        return self._owners.honest_network_indices

    def owner_loads(self) -> np.ndarray:
        if self._loads is None:
            self._loads = self._state.owner_loads(self._owners.n_total)
        return self._loads

    def live_owner_load(self, owner: int) -> int:
        if self._round is None:
            return self._state.owner_load(owner)
        return self._round.live_load(owner)

    def n_sybils(self, owner: int) -> int:
        return int(self._owners.n_sybils[owner])

    def can_add_sybil(self, owner: int) -> bool:
        return self._owners.can_add_sybil(owner)

    def join_budget_remaining(self, owner: int) -> int | None:
        return self._owners.join_budget_remaining(owner)

    # ------------------------------------------------------------------
    # NetworkView: topology
    # ------------------------------------------------------------------
    def main_slot(self, owner: int) -> int:
        if self._round is None:
            return self._state.main_slot_of(owner)
        return self._round.main_slot(owner)

    def heaviest_slot(self, owner: int) -> int:
        overlay = self._round
        if overlay is None:
            slots = self._state.slots_of_owner(owner)
            counts = self._state.counts[slots]
            return int(slots[int(np.argmax(counts))])
        # max() keeps the first of equal counts, like np.argmax
        return max(overlay.owner_slots(owner), key=overlay.counts.__getitem__)

    def successor_slots(self, slot: int, k: int) -> np.ndarray:
        if self._round is None:
            k = min(k, self._state.n_slots - 1)
            return self._state.successor_slots(slot, k)
        n = len(self._round.ids)
        return (slot + 1 + np.arange(min(k, n - 1))) % n

    def predecessor_slots(self, slot: int, k: int) -> np.ndarray:
        if self._round is None:
            k = min(k, self._state.n_slots - 1)
            return self._state.predecessor_slots(slot, k)
        n = len(self._round.ids)
        return (slot - 1 - np.arange(min(k, n - 1))) % n

    def slot_owner(self, slot: int) -> int:
        if self._round is None:
            return int(self._state.owner[slot])
        return self._round.owner[slot]

    def slot_count(self, slot: int) -> int:
        if self._round is None:
            return int(self._state.counts[slot])
        return self._round.counts[slot]

    def slot_gap(self, slot: int) -> int:
        if self._round is None:
            return self._state.slot_gap(slot)
        ids = self._round.ids
        if len(ids) == 1:
            return self._round.size - 1  # saturated full circle
        return (ids[slot] - ids[slot - 1]) % self._round.size

    def slot_id(self, slot: int) -> int:
        if self._round is None:
            return int(self._state.ids[slot])
        return self._round.ids[slot]

    # ------------------------------------------------------------------
    # NetworkView: actions
    # ------------------------------------------------------------------
    def create_sybil_random(self, owner: int) -> int:
        overlay = self._open_round()
        ident = draw_new_node_id(
            self._state.space, self._rng, overlay.id_exists
        )
        return self._create_sybil(overlay, owner, ident)

    def create_sybil_in_slot_arc(self, owner: int, slot: int) -> int | None:
        overlay = self._open_round()
        ident = self._place_in_slot(slot)
        if ident is None:
            return None
        return self._create_sybil(overlay, owner, ident)

    def retire_sybils(self, owner: int) -> int:
        removed = self._open_round().retire(owner)
        if removed is None:
            # the departure moves keys: only the ring can replay its
            # merge reshuffle, so commit the round so far and retire there
            self.end_round()
            removed = self._state.retire_sybils(owner)
        self._owners.unregister_sybils(owner, removed)
        self._stats.sybils_retired += removed
        if removed and self._tracing:
            # int() coercion: strategies pass numpy-scalar owners, and
            # trace sinks JSON-serialize these fields
            self._emit("sybils_retired", owner=int(owner), count=int(removed))
        return removed

    def owner_strength(self, owner: int) -> int:
        return int(self._owners.strength[owner])

    def relocate_main(self, owner: int, target_slot: int) -> int | None:
        """Move the owner's main identity into ``target_slot``'s arc
        (§VII "choose your own ID" extension).

        The new identity is inserted first (acquiring its share of the
        target's keys), then the old main slot is removed — its leftover
        tasks flow to its old successor, like any graceful departure.
        A main-identity move is not deferred: the round so far is
        committed and the move applied to the ring directly.
        """
        self.end_round()
        state = self._state
        ident = self._place_in_slot(target_slot)
        if ident is None:
            return None
        old_main = state.main_slot_of(owner)
        pos, acquired = state.insert_slot(ident, owner, is_main=True)
        old_idx = old_main + 1 if pos <= old_main else old_main
        state.remove_slot(old_idx)
        self._owners.main_id[owner] = np.uint64(ident)
        self._stats.relocations += 1
        self._stats.tasks_acquired += acquired
        self._stats.messages += 2  # leave handshake + join handshake
        self._emit("relocation", owner=int(owner), ident=int(ident),
                   acquired=int(acquired))
        return acquired

    def count_messages(self, n: int = 1) -> None:
        self._stats.messages += n

    @property
    def stats(self) -> RoundStats:
        return self._stats

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _create_sybil(
        self, overlay: _RoundOverlay, owner: int, ident: int
    ) -> int:
        self._owners.register_sybil(owner)  # validates the budget
        acquired = overlay.insert(ident, owner)
        self._stats.sybils_created += 1
        self._stats.tasks_acquired += acquired
        # joining is at least one message (the join handshake)
        self._stats.messages += 1
        if self._tracing:
            self._emit("sybil_created", owner=int(owner), ident=int(ident),
                       acquired=int(acquired))
        return acquired

    def _place_in_slot(self, slot: int) -> int | None:
        """Choose an unoccupied identifier inside ``slot``'s arc, honouring
        ``config.placement`` (random / midpoint / median-split)."""
        space = self._state.space
        # the overlay answers the same three queries as the ring
        ring = self._round if self._round is not None else self._state
        start, end = ring.slot_arc(slot)
        id_exists = ring.id_exists
        placement = self._config.placement
        if placement == "median":
            ident = ring.median_key(slot)
            if ident is not None and not id_exists(ident):
                return ident
            placement = "random"  # fall back when the slot is nearly empty
        if placement == "midpoint":
            ident = space.midpoint(start, end)
            if not id_exists(ident) and space.in_interval(
                ident, start, end, closed_right=False
            ):
                return ident
            placement = "random"
        for _ in range(8):
            try:
                ident = space.random_in_interval(self._rng, start, end)
            except IdSpaceError:
                return None  # arc too small to host a new identity
            if ident != end and not id_exists(ident):
                return ident
        return None
