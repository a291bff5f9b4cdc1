"""Neighbor Injection strategies (§IV-C).

**Neighbor Injection** restricts Sybil placement to a node's tracked
successors, trading balance quality for locality (much less join churn,
no long-range traffic).  An under-utilized node estimates which of its
``numSuccessors`` successors has the most work — *without querying* — by
assuming the successor with the **largest responsibility range** received
the most tasks, and injects a Sybil into that range.

**Smart Neighbor Injection** replaces the estimate with actual workload
*queries* to each successor (one message each, counted) and splits the
successor holding the most remaining tasks.  The paper finds this
improves the runtime factor by ≈1.2 on average at the price of messages.

Both variants honour the Sybil budget, create at most one Sybil per node
per round, and retire Sybils of idle nodes (same local rule as random
injection — a node with Sybils but no work pulls them back).

The optional ``avoid_failed_ranges`` config implements the paper's
suggestion to "mark that range as invalid ... to prevent repeated
attempts in the same range": a (owner → arc-start ids) memory of ranges
whose injection acquired nothing.
"""

from __future__ import annotations

from repro.core.strategy import NetworkView, Strategy

__all__ = ["NeighborInjection", "SmartNeighborInjection"]


class NeighborInjection(Strategy):
    """Inject into the successor with the largest *estimated* workload."""

    name = "neighbor_injection"
    smart = False

    def __init__(self) -> None:
        # owner -> set of arc-start ids where an injection acquired nothing
        self._failed_ranges: dict[int, set[int]] = {}

    # ------------------------------------------------------------------
    def decide(self, view: NetworkView) -> None:
        k = view.config.num_successors
        avoid = view.config.avoid_failed_ranges
        # per-actor calls, looked up once per round
        n_sybils, can_add = view.n_sybils, view.can_add_sybil
        retire, create = view.retire_sybils, view.create_sybil_in_slot_arc
        pick = self._pick_target
        for owner, load in self.underloaded_actors(view):
            if load == 0 and n_sybils(owner) > 0:
                retire(owner)
            if not can_add(owner):
                continue
            target = pick(view, owner, k)
            if target is None:
                view.stats.actions_skipped += 1
                continue
            # the arc's start id, read before the Sybil splits the arc
            start = self._arc_start(view, target) if avoid else None
            acquired = create(owner, target)
            if acquired is None:
                view.stats.actions_skipped += 1
            elif acquired == 0 and start is not None:
                # remember the arc (by its start id) as a dead end
                self._failed_ranges.setdefault(owner, set()).add(start)

    # ------------------------------------------------------------------
    def _candidate_slots(
        self, view: NetworkView, owner: int, k: int | None = None,
        window: tuple[list[int], ...] | None = None,
    ) -> tuple[list[int], list[int]]:
        """``(slots, weights)`` of the owner's ``k`` tracked successors
        (default ``num_successors``) bar its own identities and ranges
        marked invalid, from one successor window (``window``, when
        already read); a weight is the gap or, when smart, the remaining
        tasks."""
        if window is None:
            window = view.successor_window(
                view.main_slot(owner),
                view.config.num_successors if k is None else k,
                counts=self.smart,
            )
        slots, owners, weights = window[0], window[1], window[-1]
        # ranges are only ever marked when avoid_failed_ranges is on
        failed = self._failed_ranges.get(owner)
        if owner in owners or failed:
            keep = [i for i, s in enumerate(slots) if owners[i] != owner and (
                not failed or self._arc_start(view, s) not in failed)]
            slots = [slots[i] for i in keep]
            weights = [weights[i] for i in keep]
        return slots, weights

    @staticmethod
    def _arc_start(view: NetworkView, slot: int) -> int | None:
        """The id that opens ``slot``'s arc: its predecessor's, or None
        while the view knows no predecessor of ``slot``."""
        pred = view.predecessor_window(slot, 1)[0]
        return view.slot_id(pred[0]) if pred else None

    def _pick_target(
        self, view: NetworkView, owner: int, k: int | None = None
    ) -> int | None:
        """The candidate with the largest estimated (or, when smart,
        queried) workload; the first of equal maxima wins.  One window
        read, filtered through :meth:`_candidate_slots` only when it
        holds the owner's own identities or the owner marked a range."""
        if k is None:
            k = view.config.num_successors
        window = view.successor_window(
            view.main_slot(owner), k, counts=self.smart
        )
        candidates, owners, weights = window[0], window[1], window[-1]
        if owner in owners or self._failed_ranges.get(owner):
            candidates, weights = self._candidate_slots(
                view, owner, k, window
            )
        if not candidates:
            return None
        if self.smart:
            # one workload query per successor, then split the heaviest
            view.count_messages(len(candidates))
            best = max(weights)
            if best <= 0:
                return None
            return candidates[weights.index(best)]
        # estimate: biggest range <=> most potential tasks; no messages.
        # Gaps compare as float64: two arcs closer than float resolution
        # tie, and the first one wins (max keeps the first float-maximal
        # gap, and index finds that same one).
        return candidates[weights.index(max(weights, key=float))]


class SmartNeighborInjection(NeighborInjection):
    """Neighbor injection that *queries* successors' true workloads."""

    name = "smart_neighbor_injection"
    smart = True
