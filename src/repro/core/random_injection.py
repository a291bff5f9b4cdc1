"""Random Injection strategy (§IV-B) — the paper's best performer.

Every decision round (the paper checks every 5 ticks), each node compares
its total workload (across its main identity and its Sybils) against
``sybilThreshold``:

* a node with **at least one Sybil but no work** has its Sybils quit the
  network — they were not helping where they were;
* a node at or below the threshold that still has Sybil budget
  (``maxSybils`` in a homogeneous network, ``strength`` in a heterogeneous
  one) creates **one** Sybil at a uniformly **random** identifier, taking
  over whatever unfinished work falls between the Sybil and its new
  predecessor.

Creating at most one Sybil per round "avoid[s] overwhelming the network".
A retired-then-idle node immediately probes a fresh random address next
round, which is exactly the roaming behaviour that lets under-utilized
nodes find the remaining hot spots.
"""

from __future__ import annotations

from repro.core.strategy import NetworkView, Strategy

__all__ = ["RandomInjection"]


class RandomInjection(Strategy):
    """Under-utilized nodes inject Sybils at random identifiers."""

    name = "random_injection"

    def decide(self, view: NetworkView) -> None:
        for owner, load in self.underloaded_actors(view):
            if load == 0 and view.n_sybils(owner) > 0:
                view.retire_sybils(owner)
            if view.can_add_sybil(owner):
                view.create_sybil_random(owner)
