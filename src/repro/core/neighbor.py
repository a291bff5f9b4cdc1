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
        for owner, load in self.underloaded_actors(view):
            if load == 0 and view.n_sybils(owner) > 0:
                view.retire_sybils(owner)
            if not view.can_add_sybil(owner):
                continue
            target = self._pick_target(view, owner)
            if target is None:
                view.stats.actions_skipped += 1
                continue
            acquired = view.create_sybil_in_slot_arc(owner, target)
            if acquired is None:
                view.stats.actions_skipped += 1
            elif acquired == 0 and view.config.avoid_failed_ranges:
                # remember the arc (by its start id) as a dead end
                pred_slot = view.predecessor_slots(target, 1)[0]
                self._failed_ranges.setdefault(owner, set()).add(
                    view.slot_id(pred_slot)
                )

    # ------------------------------------------------------------------
    def _candidate_slots(self, view: NetworkView, owner: int) -> list[int]:
        """The owner's tracked successors, minus its own identities and
        any ranges previously marked invalid.  Slots are ring indices in
        the tick simulator but full-width node identifiers in the
        protocol adapter: plain ints either way."""
        succ = view.successor_slots(
            view.main_slot(owner), view.config.num_successors
        )
        slot_owner = view.slot_owner
        keep = [s for s in succ if slot_owner(s) != owner]
        if view.config.avoid_failed_ranges and owner in self._failed_ranges:
            failed = self._failed_ranges[owner]
            keep = [
                s
                for s in keep
                if view.slot_id(view.predecessor_slots(s, 1)[0]) not in failed
            ]
        return keep

    def _pick_target(self, view: NetworkView, owner: int) -> int | None:
        """The candidate with the largest estimated (or, when smart,
        queried) workload; the first of equal maxima wins."""
        candidates = self._candidate_slots(view, owner)
        if not candidates:
            return None
        if self.smart:
            # one workload query per successor, then split the heaviest
            view.count_messages(len(candidates))
            counts = [view.slot_count(s) for s in candidates]
            best = max(counts)
            if best <= 0:
                return None
            return candidates[counts.index(best)]
        # estimate: biggest range <=> most potential tasks; no messages.
        # Gaps compare as float64: two arcs closer than float resolution
        # tie, and the first one wins.
        slot_gap = view.slot_gap
        gaps = [float(slot_gap(s)) for s in candidates]
        return candidates[gaps.index(max(gaps))]


class SmartNeighborInjection(NeighborInjection):
    """Neighbor injection that *queries* successors' true workloads."""

    name = "smart_neighbor_injection"
    smart = True
