"""Registry of physical nodes ("owners") behind ring slots.

The paper distinguishes *physical* nodes from the (possibly several)
*virtual* identities they present on the ring: a node's main identity
plus any Sybils it has injected.  The tick simulator mirrors this split:

* a **slot** is one position on the ring (see :mod:`repro.sim.state`);
* an **owner** is the physical machine behind one or more slots.

Owners carry the per-machine attributes from §V-B of the paper — strength
(heterogeneity), per-tick consumption rate (work measurement), and the
Sybil budget — plus churn bookkeeping (in-network vs. waiting pool).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.config import SimulationConfig

__all__ = [
    "OwnerRegistry",
    "PROV_HONEST",
    "PROV_BENEVOLENT",
    "PROV_ADVERSARIAL",
]

#: Slot/owner provenance codes (int8): who is behind an identity.
#: ``PROV_BENEVOLENT`` marks Sybil slots created by the paper's
#: balancing strategies; ``PROV_ADVERSARIAL`` marks attacker identities
#: injected by the adversary plane (see repro.sim.adversary).
PROV_HONEST = 0
PROV_BENEVOLENT = 1
PROV_ADVERSARIAL = 2


class OwnerRegistry:
    """Array-of-attributes store for all physical nodes in an experiment.

    Owners are identified by dense integer indices ``0 .. n_owners-1``.
    In churn experiments the registry holds *both* the initial network and
    the waiting pool (the paper starts the pool at network size); the
    ``in_network`` flag tracks which side each owner currently sits on.
    """

    def __init__(self, config: SimulationConfig, rng: np.random.Generator):
        n = config.n_nodes
        # The waiting pool only exists when churn can occur.
        self.pool_size = n if config.churn_rate > 0 else 0
        #: first adversarial owner index; == n_total when none exist.
        #: Honest owners occupy [0, adversary_start), adversarial owners
        #: the tail — honest views are cheap prefix slices.
        self.adversary_start = n + self.pool_size
        n_adv = config.adversary.n_adversaries if config.adversary.enabled else 0
        total = self.adversary_start + n_adv

        if config.heterogeneous:
            # strength drawn uniformly from 1..maxSybils (§V-B Homogeneity)
            self.strength = rng.integers(
                1, config.max_sybils + 1, size=total, dtype=np.int64
            )
            self.strength[self.adversary_start:] = 1
        else:
            self.strength = np.ones(total, dtype=np.int64)

        if config.work_measurement == "strength":
            self.rate = self.strength.copy()
        else:
            self.rate = np.ones(total, dtype=np.int64)
        # Adversaries accept keys but never consume: rate 0.  The rate
        # array is write-once after this.
        self.rate[self.adversary_start:] = 0

        if config.heterogeneous:
            # a heterogeneous node may have up to `strength` Sybils (§IV-B)
            self.sybil_cap = self.strength.copy()
        else:
            self.sybil_cap = np.full(total, config.max_sybils, dtype=np.int64)
        # Attackers ignore the benevolent Sybil cap; the eclipse owner
        # needs room for its whole coordinated arc (budget still gates).
        self.sybil_cap[self.adversary_start:] = config.adversary.eclipse_sybils

        self.in_network = np.zeros(total, dtype=bool)
        self.in_network[:n] = True
        #: live Sybil count per owner (main identity excluded)
        self.n_sybils = np.zeros(total, dtype=np.int64)
        #: ring id of the owner's main identity (valid while in_network)
        self.main_id = np.zeros(total, dtype=np.uint64)
        #: owner provenance (PROV_HONEST / PROV_ADVERSARIAL)
        self.provenance = np.zeros(total, dtype=np.int8)
        self.provenance[self.adversary_start:] = PROV_ADVERSARIAL

        # SybilControl-style join-cost accounts (None when disabled).
        # Accounts start full so the first Sybil/join is affordable;
        # the adversary plane refills them each tick.
        cost = config.adversary.join_cost
        self.join_budget: np.ndarray | None = (
            np.full(total, cost, dtype=np.int64) if cost > 0 else None
        )

        self._config = config
        # flatnonzero caches over ``in_network``; invalidated by the two
        # membership mutators (leave_network / join_network).  Callers
        # must treat the returned arrays as read-only.
        self._network_cache: np.ndarray | None = None
        self._waiting_cache: np.ndarray | None = None
        self._honest_network_cache: np.ndarray | None = None
        self._honest_waiting_cache: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def n_total(self) -> int:
        """All physical nodes, in-network plus waiting."""
        return self.strength.shape[0]

    @property
    def network_indices(self) -> np.ndarray:
        """Indices of owners currently participating in the network."""
        if self._network_cache is None:
            self._network_cache = np.flatnonzero(self.in_network)
            self._network_cache.setflags(write=False)
        return self._network_cache

    @property
    def waiting_indices(self) -> np.ndarray:
        """Indices of owners currently in the waiting pool."""
        if self._waiting_cache is None:
            self._waiting_cache = np.flatnonzero(~self.in_network)
            self._waiting_cache.setflags(write=False)
        return self._waiting_cache

    @property
    def honest_network_indices(self) -> np.ndarray:
        """In-network owners excluding the adversarial tail segment.

        Strategies balance over these (adversaries do not cooperate),
        and churn departures are drawn from them (adversaries do not
        leave voluntarily).  When no adversaries exist this *is* the
        plain network view — same array, no copy.
        """
        net = self.network_indices
        if self.adversary_start == self.n_total:
            return net
        if self._honest_network_cache is None:
            cut = int(np.searchsorted(net, self.adversary_start))
            self._honest_network_cache = net[:cut]
        return self._honest_network_cache

    @property
    def honest_waiting_indices(self) -> np.ndarray:
        """Waiting-pool owners excluding adversaries.

        Churn joins draw from these: un-joined (or evicted) adversaries
        must never re-enter the ring through the benign waiting pool.
        """
        waiting = self.waiting_indices
        if self.adversary_start == self.n_total:
            return waiting
        if self._honest_waiting_cache is None:
            cut = int(np.searchsorted(waiting, self.adversary_start))
            self._honest_waiting_cache = waiting[:cut]
        return self._honest_waiting_cache

    @property
    def n_in_network(self) -> int:
        return self.network_indices.size

    def network_capacity(self) -> int:
        """Aggregate tasks consumed per tick by the current network."""
        return int(self.rate[self.in_network].sum())

    def initial_capacity(self) -> int:
        """Aggregate per-tick rate of the *initial* network (owners 0..n-1).

        This is the denominator of the ideal runtime: the paper's ideal is
        computed from the starting network composition, before any churn
        or Sybil activity.
        """
        n = self._config.n_nodes
        return int(self.rate[:n].sum())

    # ------------------------------------------------------------------
    def can_add_sybil(self, owner: int) -> bool:
        """Whether ``owner`` may inject one more Sybil right now.

        Folds the join-cost defense in: an owner whose budget cannot
        cover one join is not eligible, so strategies respect the knob
        without any strategy-code changes (and without wasting RNG
        draws on placements that would be refused).
        """
        return bool(
            self.in_network[owner]
            and self.n_sybils[owner] < self.sybil_cap[owner]
            and (
                self.join_budget is None
                or self.join_budget[owner]
                >= self._config.adversary.join_cost
            )
        )

    def register_sybil(self, owner: int) -> None:
        if not self.can_add_sybil(owner):
            raise SimulationError(
                f"owner {owner} cannot add a Sybil "
                f"(in_network={bool(self.in_network[owner])}, "
                f"sybils={int(self.n_sybils[owner])}/"
                f"{int(self.sybil_cap[owner])})"
            )
        if self.join_budget is not None:
            self.join_budget[owner] -= self._config.adversary.join_cost
        self.n_sybils[owner] += 1

    def spend_join_budget(self, owner: int) -> bool:
        """Pay the join cost for a *main-identity* join, if affordable.

        Used by the adversary plane for attack joins (free-riders and
        the eclipse owner's entry).  Returns False — join refused this
        tick — when the account cannot cover the cost.
        """
        if self.join_budget is None:
            return True
        cost = self._config.adversary.join_cost
        if self.join_budget[owner] < cost:
            return False
        self.join_budget[owner] -= cost
        return True

    def refill_join_budgets(self) -> None:
        """Tick refill: add ``join_budget_refill``, capped at the cost."""
        if self.join_budget is None:
            return
        adv = self._config.adversary
        np.minimum(
            self.join_budget + adv.join_budget_refill,
            adv.join_cost,
            out=self.join_budget,
        )

    def join_budget_remaining(self, owner: int) -> int | None:
        """Current join-cost account balance (None when disabled)."""
        if self.join_budget is None:
            return None
        return int(self.join_budget[owner])

    def unregister_sybils(self, owner: int, count: int) -> None:
        if count < 0 or count > self.n_sybils[owner]:
            raise SimulationError(
                f"owner {owner} cannot drop {count} Sybils "
                f"(has {int(self.n_sybils[owner])})"
            )
        self.n_sybils[owner] -= count

    def leave_network(self, owner: int) -> None:
        """Move an owner to the waiting pool (its slots must be removed
        separately by the ring state)."""
        if not self.in_network[owner]:
            raise SimulationError(f"owner {owner} is not in the network")
        self.in_network[owner] = False
        self.n_sybils[owner] = 0
        self._network_cache = None
        self._waiting_cache = None
        self._honest_network_cache = None
        self._honest_waiting_cache = None

    def join_network(self, owner, main_id) -> None:
        """Move waiting owners into the network with fresh main ids.

        ``owner`` is one index or an array of distinct indices, and
        ``main_id`` the id (or ids, aligned) each joins with: a churn
        tick books all its joins in one write.  Raises before booking
        any if one is already in the network.
        """
        if self.in_network[owner].any():
            raise SimulationError(f"owner {owner} is already in the network")
        self.in_network[owner] = True
        self.n_sybils[owner] = 0
        self.main_id[owner] = main_id
        self._network_cache = None
        self._waiting_cache = None
        self._honest_network_cache = None
        self._honest_waiting_cache = None

    def validate(self) -> None:
        """Internal consistency checks (used by tests)."""
        if (self.strength < 1).any():
            raise ConfigError("owner strengths must be >= 1")
        if (self.n_sybils < 0).any() or (
            self.n_sybils > self.sybil_cap
        ).any():
            raise SimulationError("sybil counts out of bounds")
        if (self.n_sybils[~self.in_network] != 0).any():
            raise SimulationError("waiting owners must have no sybils")
