"""Invitation strategy (§IV-D) — the reactive counterpart.

Where random/neighbor injection are *proactive* (idle nodes hunt for
work), Invitation is *reactive*: a node that finds itself **overburdened**
announces it needs help to its tracked predecessors — the very nodes that
would be injecting Sybils at it under Neighbor Injection.  Among the
predecessors whose workload is at or below ``sybilThreshold`` (and who
still have Sybil budget), the **least loaded** one creates a Sybil inside
the inviter's range and takes over part of it.  If no predecessor
qualifies, the invitation is refused and nothing happens.

Overburden test: the paper says nodes use the ``sybilThreshold`` parameter
to decide they are overburdened, while also assuming every node knows the
job's task count and the rough network size (§V).  We therefore treat a
node as overburdened when its workload exceeds
``invite_factor × (total_tasks / initial_nodes)`` — i.e. it holds more
than its fair share (``invite_factor`` defaults to 1; see DESIGN.md).

Messages are only spent when someone is actually overloaded — one
announcement per overburdened node per round plus one reply per contacted
predecessor — which is why the paper credits this strategy with the
lowest maintenance cost of the Sybil family.
"""

from __future__ import annotations

from repro.core.strategy import NetworkView, Strategy

__all__ = ["Invitation"]


class Invitation(Strategy):
    """Overburdened nodes invite their least-loaded predecessor to help."""

    name = "invitation"

    @staticmethod
    def overburden_threshold(view: NetworkView) -> float:
        """``invite_factor`` x the fair share, read each round: a live
        host's job-size estimate moves, the simulator's does not."""
        fair_share = view.total_tasks / max(view.initial_nodes, 1)
        return view.config.invite_factor * fair_share

    # ------------------------------------------------------------------
    def decide(self, view: NetworkView) -> None:
        threshold = view.config.sybil_threshold
        k = view.config.num_successors
        loads = view.owner_loads()
        helped_this_round: set[int] = set()

        overloaded = view.network_owners()
        overloaded = overloaded[
            loads[overloaded] > self.overburden_threshold(view)
        ]
        for inviter in self.shuffled(view, overloaded).tolist():
            target = view.heaviest_slot(inviter)
            preds, pred_owners = view.predecessor_window(target, k)
            # the announcement reaches every tracked predecessor
            view.count_messages(len(preds))
            view.stats.invitations_sent += 1

            helper = self._pick_helper(
                view, inviter, pred_owners, threshold, helped_this_round
            )
            if helper is None:
                view.stats.invitations_refused += 1
                continue
            acquired = view.create_sybil_in_slot_arc(helper, target)
            if acquired is None:
                view.stats.invitations_refused += 1
                continue
            helped_this_round.add(helper)

    # ------------------------------------------------------------------
    def _pick_helper(
        self,
        view: NetworkView,
        inviter: int,
        pred_owners: list[int],
        threshold: int,
        helped: set[int],
    ) -> int | None:
        """The predecessor owner with the least :meth:`_helper_key` (the
        first of equals) among those at/below the threshold with Sybil
        budget, other than the inviter, that have not helped this round."""
        best_owner: int | None = None
        best_key = None
        for owner in dict.fromkeys(pred_owners):  # distinct, in order
            if owner == inviter or owner in helped or not (
                view.can_add_sybil(owner)
            ):
                continue
            load = view.live_owner_load(owner)
            if load <= threshold:
                key = self._helper_key(view, owner, load)
                if best_key is None or key < best_key:
                    best_owner, best_key = owner, key
        return best_owner

    def _helper_key(self, view: NetworkView, owner: int, load: int):
        """Invitation asks the least-loaded qualifying predecessor."""
        return load
