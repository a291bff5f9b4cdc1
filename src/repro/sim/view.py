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
first action of a round opens the round (:meth:`SimView._open_round`),
which copies the round-start ring into per-slot Python lists — ids,
owners, counts — and links them into a ring of successor/predecessor
handles, as a Chord node keeps its ring.  A slot's handle is its index
into those lists: a slot of the round-start ring keeps its ring
position (so a read made before the round opened stays valid inside
it), and a Sybil created in the round gets the next free index.  No
list element ever moves: a retirement unlinks its Sybils, and a
creation appends one entry per list and links it before the slot whose
arc it splits.  Every read a strategy makes afterwards — windows, arcs,
gaps, owners, counts, ``heaviest_slot``, ``live_owner_load`` — answers
from those lists exactly as the ring would after applying each action
on the spot; a window walks the links (or slices the ring's arrays
while no round is open; a read never opens one).  ``main_slot`` is the
owner's round-start position.  A random creation bisects the
round-start ids once and walks back past the few Sybils created in that
arc.  The per-round indexes — each owner's main position and its
round-start Sybils — are owner-indexed lists filled from numpy on first
use, and the three link lists share one list of handle ints.  A handle
is valid until the round commits.

Each action is one frame of this class under the strategy's call: a
retirement finds, unlinks and books its owner's Sybils in
:meth:`SimView.retire_sybils`; a creation places or draws its id and
hands it, with the handle of the slot whose arc it splits, to
:meth:`SimView._join_sybil`, which books the census, counts the keys it
takes and links the new slot.  Each slot records its base slot — the
round-start slot whose keys its own remaining keys are a run of — so a
keyed join reads those keys without a search, and records the selection
mask of what it took under that base slot.

The engine calls :meth:`SimView.end_round` after ``decide``.  It hands
:meth:`~repro.sim.state.RingState.commit_round` what the round
recorded, so the commit searches for nothing again: the dropped base
positions, the new Sybils' ids and owners in handle order, and for each
base slot that new Sybils took keys from, each such join's index and
mask.  A Sybil that took no keys when it joined never gains any, so
only those base arcs split, by their masks alone; the retired Sybils
leave in the same slab pass that splices in the new ones.  Against a
commit that found each new Sybil's arc again and recomputed its split,
``repro profile`` (1000 nodes, 100k tasks, seed 1; medians of 8
alternating runs, each pinned to one CPU of a shared 2-vCPU host) read
neighbor injection's commit going from 0.112 to 0.061 s and random
injection's from 0.073 to 0.041 s.

The round's Sybil census (``n_sybils``, ``can_add_sybil`` and the
booking behind every creation and retirement) reads and writes Python
lists taken from the :class:`~repro.sim.owners.OwnerRegistry` on the
round's first census read; when the round commits, the counts of the
owners it booked are written back, and only those.  With the join-cost
defense on, those calls go to the registry instead.

Deferral is exact because neither half draws randomness:

* **splits** only partition the enclosing slot's keys, in order, so the
  final layout depends on the set of new identifiers, not on when they
  joined;
* **retirements are deferred only when they move no keys** — every
  retired slot held no remaining tasks at round start (true of every
  retirement the paper's strategies make: an owner retires only when
  its whole load is zero), and only while the round-start ring keeps a
  slot.  A keyless departure never reaches the merge reshuffle, so the
  shared RNG stream is untouched.

An action the round cannot replay exactly — a retirement that would
move keys (or retire a Sybil created this round), and every
``relocate_main`` — first commits the round, then runs the ring's
per-slot primitive; ``relocate_main`` carries its target handle across
that commit as the slot's identifier.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import sub

import numpy as np

from repro.core.strategy import NetworkView, RoundStats
from repro.config import SimulationConfig
from repro.sim.arcops import arc_mask, in_arc_mask
from repro.sim.owners import OwnerRegistry
from repro.sim.state import RingState, median_in_arc
from repro.sim.workload import draw_new_node_id
from repro.util.rng import bounded_int

__all__ = ["SimView"]

_U64 = np.uint64


def _ring_slice(seq, lo: int, hi: int, n: int) -> list[int]:
    """``seq[lo:hi]`` of a ring of ``n`` slots as a list, wrapping past
    either end (``-n <= lo <= hi <= 2 * n``, ``hi - lo <= n``)."""
    if lo < 0:
        return _ring_slice(seq, lo + n, n, n) + _ring_slice(seq, 0, hi, n)
    if hi > n:
        return _ring_slice(seq, lo, n, n) + _ring_slice(seq, 0, hi - n, n)
    part = seq[lo:hi]
    return part if type(part) is list else part.tolist()


class SimView(NetworkView):
    """Local-information window onto the simulated network."""

    #: the open round's state beside ``_ids``: set by :meth:`_open_round`
    #: and released by :meth:`end_round`, so no round outlives its commit
    _ROUND_STATE = (
        "_base_counts", "_owner", "_counts", "_next", "_prev", "_base",
        "_live_loads", "_load_delta", "_main_slots", "_sybil_index",
        "_pending_by_owner", "_keyed", "_dropped",
    )

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
        self._size = state.space.size
        self._loads: np.ndarray | None = None
        self._stats = RoundStats()
        # the open round (see _open_round): each slot's id, by handle;
        # None while no round is open
        self._ids: list[int] | None = None
        # per-round owner census: (Sybil counts, Sybil room) as lists,
        # taken on the round's first census read (see _take_census), and
        # the owners whose count a booking has changed since
        self._census: tuple[list[int], list[int], set[int]] | None = None
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
        """Commit the round's deferred actions to the ring, and its Sybil
        census to the owner registry; then release the round's state.

        Until this runs, ``RingState`` still holds the round-start ring;
        the engine calls it right after ``Strategy.decide``.
        """
        ids = self._ids
        if ids is not None:
            self._ids = None
            n = len(self._base_counts)
            if self._dropped or len(ids) > n:
                # the new Sybils are the handles past the base slots
                self._state.commit_round(
                    self._dropped, ids[n:], self._owner[n:], self._keyed
                )
            for name in self._ROUND_STATE:
                delattr(self, name)
        self._flush_census()

    def _open_round(self) -> None:
        """Open the round: copy the round-start ring into per-handle
        lists and link them in ring order.

        The ring itself is untouched until :meth:`end_round`, so its
        arrays stay the round-start ("base") ring: a slot's remaining
        keys are always a contiguous run of the keys of its base slot.
        The first ``n`` handles are the base slots, at their ring
        positions; ``_ids[:n]`` stays the sorted round-start ids.
        """
        state = self._state
        self._ids = ids = state.ids.tolist()
        n = len(ids)
        self._base_counts: list[int] = state.counts.tolist()
        self._owner: list[int] = state.owner.tolist()
        self._counts = self._base_counts.copy()
        # each slot's base slot: its own position for a base slot, the
        # base slot of the arc it split for a new one
        self._base: list[int] = list(range(n))
        # ring order: successor and predecessor handles, a retired
        # slot's successor being -1; slices of _base, so the three
        # lists share one set of handle ints
        self._next: list[int] = self._base[1:] + self._base[:1]
        self._prev: list[int] = self._base[-1:] + self._base[:-1]
        # live owner load = round-start load + this round's transfers
        self._live_loads = state.owner_loads(self._owners.n_total)
        self._load_delta: dict[int, int] = {}
        # owner-indexed: each owner's main position, and the base
        # positions of its Sybils (see _index_sybils); built on first
        # use: a round with few actions may need neither
        self._main_slots: list[int] | None = None
        self._sybil_index: tuple[list[int], list[int]] | None = None
        # owner -> handles of its new Sybils, and for each base slot
        # that new Sybils took keys from, (index among the new Sybils,
        # mask of the base slot's keys it took) per Sybil, in join order
        self._pending_by_owner: dict[int, list[int]] = {}
        self._keyed: dict[int, list[tuple[int, np.ndarray]]] = {}
        # base positions of the retired (keyless) Sybils
        self._dropped: list[int] = []

    @property
    def _pending(self) -> dict[int, int]:
        """The open round's new Sybils, identifier -> owner, in join
        order (empty while no round is open); for inspection."""
        ids = self._ids
        if ids is None:
            return {}
        n = len(self._base_counts)
        return dict(zip(ids[n:], self._owner[n:]))

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
        if self._ids is None:
            return self._state.owner_load(owner)
        return int(self._live_loads[owner]) + self._load_delta.get(owner, 0)

    def _take_census(self) -> tuple[list[int], list[int], set[int]] | None:
        """The round's Sybil census as Python lists — each owner's Sybil
        count, and how many more it may add (0 outside the network) —
        read and booked by the round's actions, plus the set of owners
        booked, whose counts :meth:`end_round` writes back.  None with
        the join-cost defense on: the round then reads and books through
        the registry."""
        owners = self._owners
        if owners.join_budget is not None:
            return None
        n = owners.n_sybils
        room = np.where(owners.in_network, owners.sybil_cap - n, 0)
        self._census = (n.tolist(), room.tolist(), set())
        return self._census

    def n_sybils(self, owner: int) -> int:
        census = self._census or self._take_census()
        if census is None:
            return int(self._owners.n_sybils[owner])
        return census[0][owner]

    def can_add_sybil(self, owner: int) -> bool:
        census = self._census or self._take_census()
        if census is None:
            return self._owners.can_add_sybil(owner)
        return census[1][owner] > 0

    def _flush_census(self) -> None:
        """Write the census back in one registry write: the Sybil counts
        of the owners the round booked, or, when it booked a quarter of
        them or more (random and neighbor injection do), the whole list,
        which is then the cheaper write."""
        census = self._census
        self._census = None
        if census is not None and census[2]:
            counts, _, booked = census
            k = len(booked)
            if 4 * k < len(counts):
                self._owners.n_sybils[np.fromiter(booked, np.intp, k)] = (
                    np.fromiter(map(counts.__getitem__, booked), np.int64, k)
                )
            else:
                self._owners.n_sybils[:] = counts

    def _register_sybil(self, owner: int) -> None:
        """Book a creation the census cannot: write the census back, and
        the registry validates (and raises) and books it."""
        self._flush_census()
        self._owners.register_sybil(owner)

    def _unregister_sybils(self, owner: int, count: int) -> None:
        """:meth:`_register_sybil` for a retirement of ``count``."""
        self._flush_census()
        self._owners.unregister_sybils(owner, count)

    # ------------------------------------------------------------------
    # NetworkView: topology
    # ------------------------------------------------------------------
    def main_slot(self, owner: int) -> int:
        if self._ids is None:
            return self._state.main_slot_of(owner)
        # a main identity is never retired or created in a round: its
        # handle is its round-start position
        mains = self._main_slots
        if mains is None:
            state = self._state
            at = np.flatnonzero(state.is_main)
            slots = np.full(self._owners.n_total, -1, dtype=np.intp)
            slots[state.owner[at]] = at
            if np.count_nonzero(slots >= 0) != at.size:
                slots.fill(-1)  # a doubled main: let the ring raise
            mains = self._main_slots = slots.tolist()
        slot = mains[owner]
        if slot < 0:
            return self._state.main_slot_of(owner)  # raises: no single main
        return slot

    def heaviest_slot(self, owner: int) -> int:
        if self._ids is None:
            slots = self._state.slots_of_owner(owner)
            counts = self._state.counts[slots]
            return int(slots[int(np.argmax(counts))])
        # the owner's live handles in ring order from slot 0; max()
        # keeps the first of equal counts, like np.argmax
        nxt = self._next
        slots = [
            p for p in self._state.slots_of_owner(owner).tolist()
            if nxt[p] >= 0
        ]
        mine = self._pending_by_owner.get(owner)
        if mine:
            slots += mine
            slots.sort(key=self._ids.__getitem__)
        return max(slots, key=self._counts.__getitem__)

    def successor_window(
        self, slot: int, k: int, *, counts: bool = False
    ) -> tuple[list[int], ...]:
        ids = self._ids
        if ids is not None:
            # the open round: walk the successor links
            nxt, owner, count = self._next, self._owner, self._counts
            slots: list[int] = []
            owners: list[int] = []
            gaps: list[int] = []
            tallies: list[int] = []
            s = slot
            a = first = ids[s]
            # a ring of n live slots has n - 1 others
            for _ in range(min(k, len(ids) - len(self._dropped) - 1)):
                s = nxt[s]
                b = ids[s]
                slots.append(s)
                owners.append(owner[s])
                gaps.append(b - a)
                if counts:
                    tallies.append(count[s])
                a = b
            if a < first:  # the window wraps past the top id
                gaps = [g % self._size for g in gaps]
            if counts:
                return slots, owners, gaps, tallies
            return slots, owners, gaps
        # no round open: the ring's own arrays
        state = self._state
        ids, owner, count = state.ids, state.owner, state.counts
        n = len(ids)
        hi = slot + 1 + min(k, n - 1)
        arc = _ring_slice(ids, slot, hi, n)
        gaps = list(map(sub, arc[1:], arc))
        if hi <= n:
            slots = list(range(slot + 1, hi))
        else:  # the window wraps: reduce slots and the wrapped gap
            slots = [s % n for s in range(slot + 1, hi)]
            gaps = [g % self._size for g in gaps]
        window = (slots, _ring_slice(owner, slot + 1, hi, n), gaps)
        if counts:
            return (*window, _ring_slice(count, slot + 1, hi, n))
        return window

    def predecessor_window(
        self, slot: int, k: int
    ) -> tuple[list[int], list[int]]:
        ids = self._ids
        if ids is not None:
            # the open round: walk the predecessor links
            prv, owner = self._prev, self._owner
            slots: list[int] = []
            owners: list[int] = []
            s = slot
            for _ in range(min(k, len(ids) - len(self._dropped) - 1)):
                s = prv[s]
                slots.append(s)
                owners.append(owner[s])
            return slots, owners
        owner = self._state.owner
        n = len(owner)
        lo = slot - min(k, n - 1)
        owners = _ring_slice(owner, lo, slot, n)
        owners.reverse()
        slots = [s + n if s < 0 else s for s in range(slot - 1, lo - 1, -1)]
        return slots, owners

    def slot_id(self, slot: int) -> int:
        if self._ids is None:
            return int(self._state.ids[slot])
        return self._ids[slot]

    # ------------------------------------------------------------------
    # NetworkView: actions
    # ------------------------------------------------------------------
    def create_sybil_random(self, owner: int) -> int:
        if self._ids is None:
            self._open_round()
        ident = draw_new_node_id(self._state.space, self._rng, self._probe)
        return self._join_sybil(owner, ident, self._probed)

    def create_sybil_in_slot_arc(self, owner: int, slot: int) -> int | None:
        if self._ids is None:
            self._open_round()
        ident = self._place_in_slot(slot)
        if ident is None:
            return None
        return self._join_sybil(owner, ident, slot)

    def retire_sybils(self, owner: int) -> int:
        """Retire the owner's Sybils.  Deferred when every one is a base
        slot that held no keys at round start and the round-start ring
        keeps a slot once the round's retirements are dropped; otherwise
        the round commits and the ring retires them itself."""
        if self._ids is None:
            self._open_round()
        removed = None
        # a Sybil created this round may hold keys
        if owner not in self._pending_by_owner:
            slots, start = self._sybil_index or self._index_sybils()
            targets = slots[start[owner] : start[owner + 1]]
            dropped = self._dropped
            nxt = self._next
            # none, or all retired earlier this round
            if not targets or nxt[targets[0]] < 0:
                removed = 0
            elif len(self._base_counts) - len(dropped) > len(targets):
                base_counts = self._base_counts
                for p in targets:
                    if base_counts[p]:
                        break
                else:
                    prv = self._prev
                    for p in targets:  # unlink
                        a, b = prv[p], nxt[p]
                        nxt[a] = b
                        prv[b] = a
                        nxt[p] = -1
                    dropped.extend(targets)
                    removed = len(targets)
        if removed is None:
            # the departure moves keys: only the ring can replay its
            # merge reshuffle, so commit the round so far and retire there
            self.end_round()
            removed = self._state.retire_sybils(owner)
        if not removed:
            return 0
        census = self._census or self._take_census()
        if census is not None and removed <= census[0][owner]:
            census[0][owner] -= removed
            census[1][owner] += removed
            census[2].add(owner)
        else:
            self._unregister_sybils(owner, removed)
        self._stats.sybils_retired += removed
        if self._tracing:
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
        ids = self._ids
        self.end_round()
        state = self._state
        if ids is not None:
            # the handle names a slot of the committed round: find it on
            # the ring by its identifier
            target_slot = int(state.ids.searchsorted(_U64(ids[target_slot])))
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
    def _probe(self, ident: int) -> bool:
        """Whether ``ident`` is on the open round's ring; the handle of
        its live successor is left in ``_probed``."""
        ids = self._ids
        n = len(self._base_counts)
        # the first live base slot at or past ident: the round keeps one
        r = bisect_left(ids, ident, 0, n)
        if r == n:
            r = 0
        nxt = self._next
        while nxt[r] < 0:
            r = r + 1 if r < n - 1 else 0
        # between ident and it lie only Sybils created this round: walk
        # back past those at or past ident, clockwise
        size = self._size
        d = (ids[r] - ident) % size
        prv = self._prev
        p = prv[r]
        while p >= n:
            dp = (ids[p] - ident) % size
            if dp >= d:
                break
            r, d = p, dp
            p = prv[p]
        self._probed = r
        return not d

    def _index_sybils(self) -> tuple[list[int], list[int]]:
        """Index the round-start Sybils by owner: ``(slots, start)``,
        owner ``o``'s base positions, ascending, being
        ``slots[start[o]:start[o + 1]]``."""
        state = self._state
        at = np.flatnonzero(~state.is_main)
        owner = state.owner[at]
        start = np.zeros(self._owners.n_total + 1, dtype=np.intp)
        np.cumsum(
            np.bincount(owner, minlength=self._owners.n_total),
            out=start[1:],
        )
        self._sybil_index = (
            at[np.argsort(owner, kind="stable")].tolist(), start.tolist()
        )
        return self._sybil_index

    def _join_sybil(self, owner: int, ident: int, succ: int) -> int:
        """Join the free identifier ``ident`` as a Sybil of ``owner`` in
        the open round, in the arc of the slot ``succ``; returns the keys
        it acquires."""
        census = self._census or self._take_census()
        if census is not None and census[1][owner] > 0:
            census[0][owner] += 1
            census[1][owner] -= 1
            census[2].add(owner)
        else:
            self._register_sybil(owner)  # validates the budget
        ids, counts, prv = self._ids, self._counts, self._prev
        pred = prv[succ]
        base = self._base[succ]
        h = len(ids)
        acquired = 0
        # the new arc (pred, ident] is part of the successor's: an empty
        # successor has nothing to hand over
        if counts[succ]:
            # its keys are a run of its base slot's: select those past
            # the predecessor
            keys = self._state.keys[base][: self._base_counts[base]]
            taken = arc_mask(keys, ids[pred], ident, self._size)
            acquired = int(np.count_nonzero(taken))
            if acquired:
                counts[succ] -= acquired
                delta = self._load_delta
                loser = self._owner[succ]
                delta[loser] = delta.get(loser, 0) - acquired
                delta[owner] = delta.get(owner, 0) + acquired
                # the commit splits the base slot's arc by what it took
                join = (h - len(self._base_counts), taken)
                keyed = self._keyed.get(base)
                if keyed is None:
                    self._keyed[base] = [join]
                else:
                    keyed.append(join)
        # link the new handle between pred and succ
        ids.append(ident)
        self._owner.append(owner)
        counts.append(acquired)
        self._base.append(base)
        self._next.append(succ)
        prv.append(pred)
        self._next[pred] = h
        prv[succ] = h
        mine = self._pending_by_owner.get(owner)
        if mine is None:
            self._pending_by_owner[owner] = [h]
        else:
            mine.append(h)
        stats = self._stats
        stats.sybils_created += 1
        stats.tasks_acquired += acquired
        # joining is at least one message (the join handshake)
        stats.messages += 1
        if self._tracing:
            self._emit("sybil_created", owner=int(owner), ident=int(ident),
                       acquired=int(acquired))
        return acquired

    def _place_in_slot(self, slot: int) -> int | None:
        """Choose an unoccupied identifier inside ``slot``'s arc, honouring
        ``config.placement`` (random / midpoint / median-split), on the
        open round or, with none open, on the ring.

        Every candidate lies in the arc ``(start, end]`` between two
        adjacent identities, so the only one it can collide with is
        ``end``: no candidate needs a membership probe, and a random
        draw, strictly inside the arc, is always free.
        """
        ids = self._ids
        if ids is None:
            start, end = self._state.slot_arc(slot)
        else:
            start, end = ids[self._prev[slot]], ids[slot]
        placement = self._config.placement
        if placement == "median":
            # the arc's keys: a run of those of its base slot (between
            # rounds, the slot itself)
            state = self._state
            r = slot if ids is None else self._base[slot]
            keys = state.keys[r][: state.counts.item(r)]
            ident = median_in_arc(
                keys[in_arc_mask(keys, start, end)], start, state.space
            )
            if ident is not None and ident != end:
                return ident
            # fall back when the slot is nearly empty
        elif placement == "midpoint":
            space = self._state.space
            ident = space.midpoint(start, end)
            if space.in_interval(ident, start, end, closed_right=False):
                return ident
        size = self._size
        span = (end - start) % size or size
        if span <= 1:
            return None  # arc too small to host a new identity
        if span - 1 <= 1 << 63:
            # IdSpace.random_in_interval's own draw, inlined: the same
            # helper with the same bound, so the same stream
            return (start + 1 + bounded_int(self._rng, span - 1)) % size
        return self._state.space.random_in_interval(self._rng, start, end)
