"""Per-call ``SimView`` actions: the differential oracle for deferred rounds.

:class:`PerCallSimView` applies every Sybil action to the ring the
moment a strategy takes it — one ``RingState.insert_slot`` per creation,
one ``RingState.retire_sybils`` per retiring owner — which is how the
simulator worked before ``SimView`` deferred a round's actions into
round lists committed once by ``end_round``.  Its reads are
``SimView``'s own, answered from the round they open; each action first
ends that read-only round (it commits nothing), so a read after the
action opens a round on the changed ring.  ``tests/test_round_overlay.py``
runs each strategy through both views and requires identical results.
"""

from __future__ import annotations

import numpy as np

from repro.errors import IdSpaceError
from repro.sim.view import SimView
from repro.sim.workload import draw_new_node_id

__all__ = ["PerCallSimView"]


class PerCallSimView(SimView):
    """``SimView`` whose actions mutate the ring immediately, and whose
    Sybil census reads and writes the owner registry directly."""

    def n_sybils(self, owner: int) -> int:
        return int(self._owners.n_sybils[owner])

    def can_add_sybil(self, owner: int) -> bool:
        return self._owners.can_add_sybil(owner)

    def create_sybil_random(self, owner: int) -> int:
        self.end_round()
        ident = draw_new_node_id(
            self._state.space, self._rng, self._state.id_exists
        )
        return self._create_sybil_now(owner, ident)

    def create_sybil_in_slot_arc(self, owner: int, slot: int) -> int | None:
        self.end_round()
        ident = self._place_now(slot)
        if ident is None:
            return None
        return self._create_sybil_now(owner, ident)

    def retire_sybils(self, owner: int) -> int:
        self.end_round()
        removed = self._state.retire_sybils(owner)
        self._owners.unregister_sybils(owner, removed)
        self._stats.sybils_retired += removed
        if removed:
            self._emit("sybils_retired", owner=int(owner), count=int(removed))
        return removed

    def relocate_main(self, owner: int, target_slot: int) -> int | None:
        self.end_round()
        state = self._state
        ident = self._place_now(target_slot)
        if ident is None:
            return None
        old_main = state.main_slot_of(owner)
        pos, acquired = state.insert_slot(ident, owner, is_main=True)
        old_idx = old_main + 1 if pos <= old_main else old_main
        state.remove_slot(old_idx)
        self._owners.main_id[owner] = np.uint64(ident)
        self._stats.relocations += 1
        self._stats.tasks_acquired += acquired
        self._stats.messages += 2
        self._emit("relocation", owner=int(owner), ident=int(ident),
                   acquired=int(acquired))
        return acquired

    # ------------------------------------------------------------------
    def _create_sybil_now(self, owner: int, ident: int) -> int:
        self._owners.register_sybil(owner)
        _, acquired = self._state.insert_slot(ident, owner, is_main=False)
        self._stats.sybils_created += 1
        self._stats.tasks_acquired += acquired
        self._stats.messages += 1
        self._emit("sybil_created", owner=int(owner), ident=int(ident),
                   acquired=int(acquired))
        return acquired

    def _place_now(self, slot: int) -> int | None:
        state = self._state
        start, end = state.slot_arc(slot)
        placement = self._config.placement
        if placement == "median":
            ident = state.median_key(slot)
            if ident is not None and not state.id_exists(ident):
                return ident
            placement = "random"
        if placement == "midpoint":
            ident = state.space.midpoint(start, end)
            if not state.id_exists(ident) and state.space.in_interval(
                ident, start, end, closed_right=False
            ):
                return ident
            placement = "random"
        for _ in range(8):
            try:
                ident = state.space.random_in_interval(self._rng, start, end)
            except IdSpaceError:
                return None
            if ident != end and not state.id_exists(ident):
                return ident
        return None
