"""Extension strategies implementing the paper's §VII future work.

The conclusion sketches two avenues we implement and evaluate:

1. *"An avenue for future work could consider the node strength as a
   factor."*  Two strength-aware variants:

   * :class:`StrengthAwareInvitation` — the inviter still picks among
     qualifying predecessors, but prefers the **strongest** helper
     (ties broken by least load), so work migrates toward machines that
     can actually chew through it.
   * :class:`StrengthProportionalInjection` — random injection where a
     node volunteers with probability ``strength / maxSybils`` each
     round; weak nodes stop vacuuming up work they will sit on.

2. *"if we removed the assumption that nodes cannot choose their own ID
   ... this presents even more strategies"* — realized as
   :class:`Relocation`: an idle node **moves its main identity** into
   the largest responsibility arc among its tracked successors instead
   of adding a Sybil.  No extra identities, no Sybil budget: the ring
   itself re-spaces toward the work.

The ``ext_future_work`` experiment compares all three against the
paper's strategies.  Honest headline: in this simulation model strength
awareness mainly *stabilizes* heterogeneous runtimes (markedly lower
trial variance) rather than improving the mean — evidence that the
heterogeneity penalty the paper observed is largely structural (the
capacity-weighted ideal is simply harder to hit when per-node rates
differ), not a fixable helper-selection artifact.  Relocation, by
contrast, is an unqualified win homogeneously: within ~0.3x of random
injection with zero Sybil identities.
"""

from __future__ import annotations

from repro.core.neighbor import NeighborInjection
from repro.core.invitation import Invitation
from repro.core.strategy import NetworkView, Strategy

__all__ = [
    "StrengthAwareInvitation",
    "StrengthProportionalInjection",
    "Relocation",
]


class StrengthAwareInvitation(Invitation):
    """Invitation that prefers the strongest qualifying helper."""

    name = "strength_invitation"

    def _helper_key(self, view: NetworkView, owner: int, load: int):
        # maximize strength, then minimize load
        return (-float(view.owner_strength(owner)), float(load))


class StrengthProportionalInjection(Strategy):
    """Random injection gated by relative strength.

    Each decision round an under-utilized node volunteers a Sybil with
    probability ``strength / maxSybils`` (1.0 for the strongest tier).
    In a homogeneous deployment every node is the "strongest tier", so
    the strategy reduces exactly to RandomInjection.
    """

    name = "proportional_injection"

    def decide(self, view: NetworkView) -> None:
        scale = (
            float(max(view.config.max_sybils, 1))
            if view.config.heterogeneous
            else 1.0
        )
        for owner, load in self.underloaded_actors(view):
            if load == 0 and view.n_sybils(owner) > 0:
                view.retire_sybils(owner)
            if not view.can_add_sybil(owner):
                continue
            p = view.owner_strength(owner) / scale
            # short-circuit at p >= 1 so the homogeneous case consumes no
            # extra randomness and is bit-identical to RandomInjection
            if p >= 1.0 or view.rng.random() <= p:
                view.create_sybil_random(owner)


class Relocation(NeighborInjection):
    """Idle nodes *move* (choose a new ID) instead of adding Sybils.

    Reuses NeighborInjection's target selection (largest estimated range
    among tracked successors) but relocates the node's main identity
    there.  The node's current tasks are handed to its successor first —
    with a zero ``sybilThreshold`` the mover is idle anyway, so nothing
    transfers in practice.
    """

    name = "relocation"
    smart = False

    def decide(self, view: NetworkView) -> None:
        k = view.config.num_successors
        for owner, _ in self.underloaded_actors(view):
            target = self._pick_target(view, owner, k)
            if target is None:
                view.stats.actions_skipped += 1
                continue
            moved = view.relocate_main(owner, target)
            if moved is None:
                view.stats.actions_skipped += 1
