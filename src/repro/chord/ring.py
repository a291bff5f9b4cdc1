"""Ring orchestration: build, converge, churn and verify Chord networks.

:class:`ChordRing` is the operator's console for the protocol layer —
tests, examples and the protocol-level balancing demo drive whole
networks through it.  It owns no protocol state itself; everything is in
the nodes and the :class:`~repro.chord.network.SimNetwork`.
"""

from __future__ import annotations

import numpy as np

from repro.chord.network import SimNetwork
from repro.chord.node import ChordNode
from repro.errors import RingError
from repro.hashspace.hashing import sha1_ids
from repro.hashspace.idspace import SPACE_160, IdSpace
from repro.util.rng import make_rng

__all__ = ["ChordRing"]


class ChordRing:
    """A convenience wrapper around a whole protocol-level Chord network."""

    def __init__(
        self,
        space: IdSpace = SPACE_160,
        *,
        n_successors: int = 5,
        seed: int | None = 0,
    ):
        self.space = space
        self.n_successors = n_successors
        self.network = SimNetwork()
        self.rng = make_rng(seed)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        n_nodes: int,
        *,
        space: IdSpace = SPACE_160,
        n_successors: int = 5,
        seed: int | None = 0,
        converge: bool = True,
    ) -> "ChordRing":
        """Build an ``n_nodes`` ring with SHA-1 node ids and converge it."""
        ring = cls(space, n_successors=n_successors, seed=seed)
        ids = ring._draw_ids(n_nodes)
        first = ChordNode(
            ids[0], space, ring.network, n_successors=n_successors
        )
        first.create()
        for ident in ids[1:]:
            node = ChordNode(
                ident, space, ring.network, n_successors=n_successors
            )
            node.join(first.id)
        if converge:
            ring.converge(max_rounds=max(64, 2 * n_nodes))
        return ring

    def _draw_ids(self, count: int) -> list[int]:
        ids: list[int] = []
        seen: set[int] = set()
        while len(ids) < count:
            for ident in sha1_ids(count - len(ids), self.space, self.rng):
                if ident not in seen and not self.network.has_node(ident):
                    seen.add(ident)
                    ids.append(ident)
        return ids

    # ------------------------------------------------------------------
    # membership operations
    # ------------------------------------------------------------------
    def join_node(self, node_id: int | None = None) -> ChordNode:
        """Add one node (random SHA-1 id unless given) via a random peer."""
        if node_id is None:
            node_id = self._draw_ids(1)[0]
        bootstrap = self.random_alive_id()
        node = ChordNode(
            node_id, self.space, self.network, n_successors=self.n_successors
        )
        node.join(bootstrap)
        return node

    def fail_node(self, node_id: int) -> None:
        self.network.node(node_id).fail()

    def leave_node(self, node_id: int) -> None:
        self.network.node(node_id).leave()

    def random_alive_id(self) -> int:
        ids = self.network.alive_ids()
        if not ids:
            raise RingError("no live nodes")
        return int(ids[self.rng.integers(0, len(ids))])

    # ------------------------------------------------------------------
    # maintenance driving
    # ------------------------------------------------------------------
    def maintenance_round(self) -> None:
        """One cycle on every live node, in random order (as reality would)."""
        ids = self.network.alive_ids()
        for ident in self.rng.permutation(len(ids)):
            node = self.network.node(ids[int(ident)])
            if node.alive:
                node.maintenance_cycle()

    def converge(self, max_rounds: int = 64) -> int:
        """Run maintenance until the ring verifies and every successor
        list is complete, then fix all fingers.

        A ring whose successor pointers already cycle can still hold
        lists that skip a live node (a late joiner the list's tail has
        not seen yet); a window read from such a list credits the next
        node with the skipped node's arc.  Returns the number of rounds
        used; raises :class:`RingError` when the ring fails to stabilize
        within ``max_rounds``.
        """
        for round_no in range(1, max_rounds + 1):
            self.maintenance_round()
            if self.is_consistent() and self.successor_lists_complete():
                for ident in self.network.alive_ids():
                    self.network.node(ident).fix_all_fingers()
                return round_no
        raise RingError(f"ring did not converge in {max_rounds} rounds")

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def is_consistent(self) -> bool:
        try:
            self.verify()
            return True
        except RingError:
            return False

    def successor_lists_complete(self) -> bool:
        """Whether every live node's successor list names the next
        ``min(r, n - 1)`` live ids, in ring order."""
        alive = self.network.alive_ids()
        n = len(alive)
        for i, ident in enumerate(alive):
            node = self.network.node(ident)
            want = min(node.n_successors, n - 1)
            nxt = [alive[(i + k) % n] for k in range(1, want + 1)]
            if node.successor_list[:want] != nxt:
                return False
        return True

    def verify(self) -> None:
        """Check the successor cycle and predecessor agreement.

        * following ``successor`` pointers from any node visits every
          live node exactly once before returning;
        * each node's successor names it as predecessor.
        """
        alive = self.network.alive_ids()
        if not alive:
            raise RingError("no live nodes")
        start = alive[0]
        visited = [start]
        current = start
        for _ in range(len(alive)):
            nxt = self.network.node(current).successor
            if nxt == start:
                break
            if not self.network.is_alive(nxt):
                raise RingError(f"{current} points at dead successor {nxt}")
            visited.append(nxt)
            current = nxt
        else:
            raise RingError("successor walk did not cycle")
        if sorted(visited) != list(alive):
            missing = set(alive) - set(visited)
            raise RingError(f"cycle misses nodes: {sorted(missing)[:5]}...")
        for ident in alive:
            node = self.network.node(ident)
            succ = self.network.node(node.successor)
            if len(alive) > 1 and succ.predecessor != ident:
                raise RingError(
                    f"{node.successor}.predecessor is {succ.predecessor}, "
                    f"expected {ident}"
                )

    def ground_truth_holder(self, key: int) -> int:
        """The id that *should* be responsible for ``key`` (sorted-ids oracle)."""
        alive = self.network.alive_ids()
        if not alive:
            raise RingError("no live nodes")
        for ident in alive:
            if ident >= key:
                return ident
        return alive[0]

    # ------------------------------------------------------------------
    # data and measurement helpers
    # ------------------------------------------------------------------
    def put(self, key: int, value) -> tuple[int, int]:
        node = self.network.node(self.random_alive_id())
        return node.put(key, value)

    def get(self, key: int) -> tuple[object, int]:
        node = self.network.node(self.random_alive_id())
        return node.get(key)

    def primary_loads(self) -> dict[int, int]:
        """Primary item count per live node — the protocol-level workload."""
        return {
            ident: self.network.node(ident).store.primary_count
            for ident in self.network.alive_ids()
        }

    def total_primaries(self) -> int:
        return sum(self.primary_loads().values())

    def lookup_hops_sample(self, n_lookups: int = 100) -> np.ndarray:
        """Hop counts for ``n_lookups`` random-key lookups from random nodes."""
        hops = np.empty(n_lookups, dtype=np.int64)
        for i in range(n_lookups):
            key = self.space.random_id(self.rng)
            node = self.network.node(self.random_alive_id())
            _, h = node.find_successor(key)
            hops[i] = h
        return hops
