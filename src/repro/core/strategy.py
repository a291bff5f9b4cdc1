"""Strategy interface for autonomous DHT load balancing.

A strategy encodes how individual nodes decide — *from local information
only* — when and where to create Sybil identities (or do nothing and let
churn act).  Strategies never see global state directly; they interact
with the network through a :class:`NetworkView`, whose API deliberately
exposes only what the paper's §V assumptions grant a node:

* its own workload and Sybil census,
* the identities/ranges/loads of its tracked successors and predecessors,
  read in one call each — :meth:`NetworkView.successor_window` (slots,
  owners, range lengths and, on request, loads) and
  :meth:`NetworkView.predecessor_window` (slots, owners); loads are
  explicit *queries*, which the caller counts as messages,
* the ability to search out an unoccupied identifier in a range and join
  there with a Sybil (shown to be cheap in the authors' prior work).

The same interface is implemented twice — by the fast tick simulator
(:class:`repro.sim.view.SimView`) and by one Chord host
(:class:`repro.chord.view.ChordView`), which each host of the protocol
simulation and each live node owns — so all three layers run the same
decision logic.  A SybilControl-style join budget is the simulator's
defense, not a node's view: it lives on
:class:`repro.sim.owners.OwnerRegistry`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, fields
from typing import ClassVar, Iterator

import numpy as np

from repro.config import SimulationConfig

__all__ = ["NetworkView", "Strategy", "RoundStats"]


@dataclass
class RoundStats:
    """Bookkeeping for one decision round (every ``decision_interval`` ticks).

    These feed the maintenance-cost accounting the paper discusses
    qualitatively: proactive strategies spend messages probing; reactive
    ones only talk when overloaded.
    """

    sybils_created: int = 0
    sybils_retired: int = 0
    tasks_acquired: int = 0
    messages: int = 0
    invitations_sent: int = 0
    invitations_refused: int = 0
    actions_skipped: int = 0
    relocations: int = 0

    def merge_into(self, totals: dict[str, int]) -> None:
        for f in fields(self):
            totals[f.name] = totals.get(f.name, 0) + getattr(self, f.name)


class NetworkView(abc.ABC):
    """What a deciding node may see and do.  See module docstring.

    A *slot* — what ``main_slot``, ``heaviest_slot`` and the windows
    return, and what ``slot_id``, the windows and the arc actions take
    — is an opaque handle naming one identity: a strategy compares it
    only for equality and never does arithmetic on it.  A handle is
    valid until the round commits; an action that cannot be deferred
    (a retirement that moves keys, a ``relocate_main`` whose old main
    holds keys) may commit it, so read slots again after one.
    """

    # -- static context ------------------------------------------------
    @property
    @abc.abstractmethod
    def config(self) -> SimulationConfig: ...

    @property
    @abc.abstractmethod
    def rng(self) -> np.random.Generator: ...

    @property
    @abc.abstractmethod
    def total_tasks(self) -> int:
        """Job size — §V assumes nodes know the task count for a job."""

    @property
    @abc.abstractmethod
    def initial_nodes(self) -> int:
        """Initial network size (used for the invite-threshold estimate)."""

    # -- owner census ----------------------------------------------------
    @abc.abstractmethod
    def network_owners(self) -> np.ndarray:
        """Indices of physical nodes currently in the network."""

    @abc.abstractmethod
    def owner_loads(self) -> np.ndarray:
        """Per-owner remaining workload snapshot for this decision round."""

    @abc.abstractmethod
    def live_owner_load(self, owner: int) -> int:
        """Current (post-actions) workload of one owner."""

    @abc.abstractmethod
    def n_sybils(self, owner: int) -> int: ...

    @abc.abstractmethod
    def can_add_sybil(self, owner: int) -> bool: ...

    # -- topology (local only) -------------------------------------------
    @abc.abstractmethod
    def main_slot(self, owner: int) -> int: ...

    @abc.abstractmethod
    def heaviest_slot(self, owner: int) -> int:
        """The owner's slot holding the most remaining tasks."""

    @abc.abstractmethod
    def successor_window(
        self, slot: int, k: int, *, counts: bool = False
    ) -> tuple[list[int], ...]:
        """``(slots, owners, gaps[, counts])`` of the slots clockwise
        after ``slot``, nearest first, as parallel lists of at most
        ``k`` entries that never include ``slot`` itself (a ring of
        ``n`` slots yields at most ``n - 1``).

        A gap is the slot's responsibility-arc length, observable for
        free from the successor list (ids are known locally).  A count
        is the slot's remaining tasks: reading another owner's count
        models a workload *query*, which the caller counts with
        :meth:`count_messages`."""

    @abc.abstractmethod
    def predecessor_window(
        self, slot: int, k: int
    ) -> tuple[list[int], list[int]]:
        """``(slots, owners)`` of the slots counter-clockwise before
        ``slot``, nearest first, under the same list contract as
        :meth:`successor_window`."""

    @abc.abstractmethod
    def slot_id(self, slot: int) -> int: ...

    # -- actions -----------------------------------------------------------
    @abc.abstractmethod
    def create_sybil_random(self, owner: int) -> int:
        """Inject a Sybil at a uniformly random free identifier.

        Returns the number of tasks acquired.
        """

    @abc.abstractmethod
    def create_sybil_in_slot_arc(self, owner: int, slot: int) -> int | None:
        """Inject a Sybil inside ``slot``'s responsibility arc, placed per
        ``config.placement``.  Returns tasks acquired, or None when the
        arc has no free identifier (action skipped)."""

    @abc.abstractmethod
    def retire_sybils(self, owner: int) -> int:
        """Remove all of the owner's Sybils; returns how many quit."""

    @abc.abstractmethod
    def owner_strength(self, owner: int) -> int:
        """The deciding node's own strength (local information)."""

    @abc.abstractmethod
    def relocate_main(self, owner: int, target_slot: int) -> int | None:
        """Move the owner's *main identity* into ``target_slot``'s arc
        (the §VII "choose your own ID" extension).  Returns tasks
        acquired at the new position, or None when no identifier was
        available."""

    # -- accounting ----------------------------------------------------
    @abc.abstractmethod
    def count_messages(self, n: int = 1) -> None:
        """Record ``n`` strategy-related messages (queries, invitations)."""

    @property
    @abc.abstractmethod
    def stats(self) -> RoundStats: ...


class Strategy(abc.ABC):
    """Base class for the paper's load-balancing strategies.

    Subclasses implement :meth:`decide`, invoked by the engine every
    ``decision_interval`` ticks.  A strategy must only use the
    :class:`NetworkView` API — the engine enforces per-owner Sybil caps
    and the one-new-Sybil-per-round rule is the strategy's duty (all
    shipped strategies honour it).
    """

    #: registry key; subclasses override
    name: ClassVar[str] = "abstract"

    def on_attach(self, view: NetworkView) -> None:
        """One-time hook before the first tick (e.g. precompute thresholds)."""

    @abc.abstractmethod
    def decide(self, view: NetworkView) -> None:
        """Run one decision round: every node checks its local state and acts."""

    # ------------------------------------------------------------------
    @staticmethod
    def shuffled(view: NetworkView, owners: np.ndarray) -> np.ndarray:
        """Randomize actor order — nodes act concurrently in reality, so no
        deterministic priority should leak into the simulation."""
        return view.rng.permutation(owners)

    def underloaded_actors(
        self, view: NetworkView
    ) -> Iterator[tuple[int, int]]:
        """``(owner, load)`` pairs, as Python ints, of the owners at or
        below ``sybil_threshold``, in one shuffled order of the whole
        network (a single :meth:`shuffled` draw over
        ``network_owners()``, loads from the round-start snapshot).

        Owners above the threshold are dropped up front: they neither
        inject (that needs ``load <= threshold``) nor retire (that needs
        ``load == 0``, and the threshold is validated ``>= 0``).
        """
        loads = view.owner_loads()
        order = self.shuffled(view, view.network_owners())
        order_loads = loads[order]
        keep = order_loads <= view.config.sybil_threshold
        return zip(order[keep].tolist(), order_loads[keep].tolist())

