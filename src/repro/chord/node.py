"""Protocol-level Chord node (Stoica et al.) with ChordReduce extensions.

Implements the full Chord maintenance protocol — successor lists,
predecessor checks, stabilize/notify, finger repair, iterative lookup —
plus the **active backup** behaviour the paper's simulations assume:
every maintenance cycle a node replicates its primary data to its
successor list and promotes any replicas that have fallen into its own
responsibility range (absorbing dead predecessors losslessly).

All inter-node calls travel through :class:`~repro.chord.network.SimNetwork`
(``rpc_*`` methods are the node's wire surface); a failed RPC is treated
as a detected failure, as a timeout would be.
"""

from __future__ import annotations

from typing import Any

from repro.chord.fingers import FingerTable
from repro.chord.network import SimNetwork
from repro.chord.storage import NodeStore
from repro.errors import ProtocolError
from repro.hashspace.idspace import IdSpace

__all__ = ["ChordNode"]


class ChordNode:
    """One Chord participant.

    Parameters
    ----------
    node_id:
        Identifier on the ring (already hashed).
    space:
        The identifier space shared by the whole network.
    network:
        RPC fabric; the node registers itself on :meth:`create` / :meth:`join`.
    n_successors:
        Length of the successor (and replication) list — the paper's
        ``Successors`` variable, default 5.
    """

    def __init__(
        self,
        node_id: int,
        space: IdSpace,
        network: SimNetwork,
        *,
        n_successors: int = 5,
    ):
        space.validate(node_id)
        self.id = node_id
        self.space = space
        self.network = network
        self.n_successors = n_successors

        self.alive = False
        self.predecessor: int | None = None
        self.successor_list: list[int] = []
        #: §V-B: "Nodes also keep track of the same number of predecessors"
        self.predecessor_list: list[int] = []
        # replica promotion is gated on the predecessor pointer holding
        # still for a couple of cycles (see promote_replicas)
        self._pred_seen: int | None = None
        self._pred_stable = 0
        self.fingers = FingerTable(node_id, space)
        self.store = NodeStore(space)
        self._next_finger = 0
        # lossy-transport aware send: transparently re-sends after
        # injected drops (bounded by the network's transient_retries);
        # identical to network.rpc on a loss-free fabric
        self._rpc = network.rpc_retry

    # ------------------------------------------------------------------
    # dunder / convenience
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ChordNode({self.id}, alive={self.alive})"

    @property
    def successor(self) -> int:
        if not self.successor_list:
            raise ProtocolError(f"node {self.id} has no successor")
        return self.successor_list[0]

    def responsibility_arc(self) -> tuple[int, int]:
        """The arc this node currently believes it is responsible for."""
        start = self.predecessor if self.predecessor is not None else self.id
        return start, self.id

    # ------------------------------------------------------------------
    # ring membership
    # ------------------------------------------------------------------
    def create(self) -> None:
        """Bootstrap a brand-new ring containing only this node."""
        self.alive = True
        self.predecessor = None
        self.successor_list = [self.id]
        self.network.register(self)

    def join(self, bootstrap_id: int) -> None:
        """Join an existing ring via any live node.

        The node finds its successor through the bootstrap, registers,
        and immediately runs one stabilize cycle so the successor learns
        about it and hands over its key range — the paper's assumption
        that "when a node joins, it acquires all the work it is
        responsible for".
        """
        succ, _ = self._lookup_via(bootstrap_id, self.id)
        self.alive = True
        self.predecessor = None
        self.successor_list = [succ]
        self.network.register(self)
        # Stabilize to a fixpoint: each cycle walks the successor pointer
        # one node closer (via successor.predecessor), so looping until it
        # stops moving lands us on our true immediate successor even when
        # the lookup resolved against stale pointers mid-churn.
        for _ in range(self.network.node_count() + 1):
            before = self.successor
            self.stabilize()
            if self.successor == before:
                break

    def leave(self) -> None:
        """Graceful departure: hand primaries to the successor and unlink."""
        if not self.alive:
            return
        if self.successor != self.id:
            # Final replica sync: without it, successors may still hold
            # replicas of items this node completed since its last
            # maintenance cycle, and would wrongly resurrect them when
            # they promote our range after we are gone.
            self.replicate()
            items = self.store.primary_items()
            if items:
                # the successor pointer can be stale under crash-stop
                # churn; walk the successor list until one handoff
                # lands.  If every successor is unreachable the items
                # stay behind as replicas — promotion recovers them.
                for sid in self.successor_list:
                    if sid == self.id:
                        continue
                    try:
                        self._rpc(sid, "rpc_receive_primaries", items)
                        break
                    except ProtocolError:
                        continue
            # link predecessor and successor to each other
            if self.predecessor is not None:
                try:
                    self._rpc(
                        self.successor, "rpc_notify", self.predecessor
                    )
                except ProtocolError:
                    pass
                # actively repair the predecessor's successor list so a
                # burst of graceful leaves cannot strand it behind a wall
                # of dead entries before its next stabilize cycle
                try:
                    self._rpc(
                        self.predecessor,
                        "rpc_replace_successor",
                        self.id,
                        self.successor,
                    )
                except ProtocolError:
                    pass
        self.alive = False

    def fail(self) -> None:
        """Abrupt crash: no goodbye, data recovered from replicas."""
        self.alive = False

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def find_successor(self, key: int) -> tuple[int, int]:
        """Iteratively resolve the node responsible for ``key``.

        Returns ``(node_id, hops)``.  Hops count the nodes contacted
        beyond this one, the metric for the O(log N) routing property.
        """
        return self._lookup_via(self.id, key)

    def find_successor_traced(
        self, key: int
    ) -> tuple[int, int, list[int]]:
        """Like :meth:`find_successor`, also returning the sequence of
        nodes contacted (for latency accounting)."""
        path: list[int] = []
        holder, hops = self._lookup_via(self.id, key, path=path)
        return holder, hops, path

    def find_successor_recursive(self, key: int) -> tuple[int, int]:
        """Recursive-style lookup (the Chord paper's alternative mode).

        The query is forwarded node-to-node instead of the originator
        iterating; each forward is one hop.  Same result as the
        iterative lookup, different message pattern — the protocol
        benchmarks compare the two.
        """
        return self.rpc_forward_lookup(key, 0)

    def rpc_forward_lookup(self, key: int, hops: int) -> tuple[int, int]:
        limit = max(4 * self.space.bits, 2 * self.network.node_count() + 16)
        if hops > limit:
            raise ProtocolError(
                f"recursive lookup for {key} exceeded {limit} hops"
            )
        succ = self.successor
        if self.space.in_interval(key, self.id, succ):
            return self._first_live_of(self.successor_list, hops)
        nxt = self.rpc_closest_preceding(key)
        if nxt == self.id:
            return self._first_live_of(self.successor_list, hops)
        try:
            return self._rpc(
                nxt, "rpc_forward_lookup", key, hops + 1
            )
        except ProtocolError:
            self.fingers.clear_entry(nxt)
            if succ != self.id and succ != nxt:
                return self._rpc(
                    succ, "rpc_forward_lookup", key, hops + 1
                )
            raise

    def _first_live_of(
        self, candidates: list[int], hops: int
    ) -> tuple[int, int]:
        """First live id from a successor list, as a lookup answer.

        The true holder may have just died; its live successor holds the
        replicas and will promote them, so it is the correct answer.
        """
        for sid in candidates:
            if sid == self.id:
                return sid, hops
            try:
                self._rpc(sid, "rpc_ping")
                return sid, hops
            except ProtocolError:
                continue
        raise ProtocolError(f"node {self.id}: no live successor to answer")

    def _lookup_via(
        self, start_id: int, key: int, path: list[int] | None = None
    ) -> tuple[int, int]:
        current = start_id
        hops = 0
        avoid: set[int] = set()  # nodes found dead during this lookup
        # Safety valve, not a protocol constant: even a fully linear walk
        # (fingers decayed after heavy churn) must be allowed to finish.
        limit = max(4 * self.space.bits, 2 * self.network.node_count() + 16)
        while hops <= limit:
            try:
                succ = self._live_successor_of(current, avoid)
            except ProtocolError:
                # ``current`` is unusable (dead, or every successor it
                # knows is dead): route around it from a live anchor.
                stuck = current
                avoid.add(current)
                self.fingers.clear_entry(current)
                anchor = self._pick_anchor(start_id, avoid, stuck)
                if anchor is None:
                    raise ProtocolError(
                        f"lookup for {key}: no live anchor left"
                    ) from None
                current = anchor
                hops += 1
                continue
            if self.space.in_interval(key, current, succ):
                return succ, hops
            if current == self.id:
                nxt = self.rpc_closest_preceding(key)
            else:
                try:
                    nxt = self._rpc(current, "rpc_closest_preceding", key)
                except ProtocolError as exc:
                    if not getattr(exc, "transport_failure", False):
                        raise
                    # ``current`` left after naming its successor (a
                    # retiring Sybil): walk on from that live successor
                    avoid.add(current)
                    nxt = succ
            if nxt == current or nxt in avoid:
                nxt = succ  # linear fallback keeps the lookup moving
            if nxt == current:
                return succ, hops
            current = nxt
            if path is not None:
                path.append(current)
            hops += 1
        raise ProtocolError(
            f"lookup for {key} exceeded {limit} hops (broken ring?)"
        )

    def _pick_anchor(
        self, start_id: int, avoid: set[int], stuck: int
    ) -> int | None:
        """Find a live node to resume a lookup from after ``stuck`` proved
        unusable: ourselves, the original start, or — like a real client
        walking its contact list — any live contact ``stuck`` still knows."""
        if self.alive and self.successor_list and self.id not in avoid:
            return self.id
        if start_id not in avoid and start_id != stuck:
            try:
                self._rpc(start_id, "rpc_ping")
                return start_id
            except ProtocolError:
                avoid.add(start_id)
        try:
            contacts = self._rpc(stuck, "rpc_known_contacts")
        except ProtocolError:
            return None
        for cid in contacts:
            if cid in avoid or cid == stuck:
                continue
            try:
                self._rpc(cid, "rpc_ping")
                return cid
            except ProtocolError:
                avoid.add(cid)
        return None

    def _live_successor_of(self, node_id: int, avoid: set[int]) -> int:
        """First live entry of ``node_id``'s successor list (skipping
        nodes already found dead during this lookup)."""
        if node_id == self.id:
            candidates = list(self.successor_list)
        else:
            candidates = self._rpc(node_id, "rpc_get_successor_list")
        for sid in candidates:
            if sid in avoid:
                continue
            if sid == node_id:
                return sid
            try:  # liveness is only knowable by talking to the node
                self._rpc(sid, "rpc_ping")
                return sid
            except ProtocolError:
                avoid.add(sid)
        raise ProtocolError(
            f"node {node_id} has no live successor during lookup"
        )

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def put(self, key: int, value: Any) -> tuple[int, int]:
        """Store ``value`` at the node responsible for ``key``.

        Returns ``(holder_id, hops)``.  If the resolved holder proves
        unreachable (crashed mid-operation, or the send was dropped
        beyond the retry budget), the lookup is re-run — it routes
        around the corpse via the successor list — and the store is
        retried once at the surviving holder.
        """
        holder, hops = self.find_successor(key)
        try:
            if holder == self.id:
                self.rpc_store(key, value)
            else:
                self._rpc(holder, "rpc_store", key, value)
            return holder, hops
        except ProtocolError as exc:
            holder, extra = self._holder_fallback(exc, key, holder)
            if holder == self.id:
                self.rpc_store(key, value)
            else:
                self._rpc(holder, "rpc_store", key, value)
            return holder, hops + extra

    def get(self, key: int) -> tuple[Any, int]:
        """Fetch the value for ``key``; returns ``(value, hops)``.

        Same successor-fallback as :meth:`put`: an unreachable holder
        triggers one re-resolution against the live ring (the crashed
        holder's successor has the replicas and will answer)."""
        holder, hops = self.find_successor(key)
        try:
            if holder == self.id:
                return self.rpc_fetch(key), hops
            return self._rpc(holder, "rpc_fetch", key), hops
        except ProtocolError as exc:
            holder, extra = self._holder_fallback(exc, key, holder)
            if holder == self.id:
                return self.rpc_fetch(key), hops + extra
            return self._rpc(holder, "rpc_fetch", key), hops + extra

    def _holder_fallback(
        self, exc: ProtocolError, key: int, failed: int
    ) -> tuple[int, int]:
        """Resolve a replacement holder after a transport failure.

        Application-level errors (the callee answered, e.g. "key not
        held") and lookups that re-resolve to the same unreachable node
        re-raise the original error — there is nothing to route around.
        """
        if not getattr(exc, "transport_failure", False):
            raise exc
        holder, hops = self.find_successor(key)
        if holder == failed:
            raise exc
        self.network.fallbacks += 1
        return holder, hops

    # ------------------------------------------------------------------
    # maintenance (one cycle == what fits in one paper tick)
    # ------------------------------------------------------------------
    def maintenance_cycle(self) -> None:
        """check-predecessor → stabilize → fix a finger → replicate/promote."""
        if not self.alive:
            return
        self.check_predecessor()
        self.stabilize()
        self.refresh_predecessor_list()
        self.fix_next_finger()
        if self.predecessor == self._pred_seen and self.predecessor is not None:
            self._pred_stable += 1
        else:
            self._pred_seen = self.predecessor
            self._pred_stable = 0
        self.promote_replicas()
        self.replicate()

    def check_predecessor(self) -> None:
        if self.predecessor is None or self.predecessor == self.id:
            return
        try:
            self._rpc(self.predecessor, "rpc_ping")
        except ProtocolError:
            self.predecessor = None

    def stabilize(self) -> None:
        """Repair the successor pointer and refresh the successor list."""
        succ = self._first_live_successor()
        try:
            x = self._rpc(succ, "rpc_get_predecessor")
            if (
                x is not None
                and x != succ
                and self.network.is_alive(x)
                and self.space.in_interval(
                    x, self.id, succ, closed_right=False
                )
            ):
                succ = x
            self._rpc(succ, "rpc_notify", self.id)
            their_list = self._rpc(succ, "rpc_get_successor_list")
        except ProtocolError:
            # successor died mid-cycle; next cycle will repair further
            return
        merged = [succ] + [s for s in their_list if s != self.id]
        self.successor_list = self._dedupe(merged)[: self.n_successors]

    def _first_live_successor(self) -> int:
        """Skip dead entries in the successor list (failure recovery)."""
        for sid in self.successor_list:
            if sid == self.id or self.network.is_alive(sid):
                if sid != self.id:
                    self.successor_list = self.successor_list[
                        self.successor_list.index(sid) :
                    ]
                return sid
            self.fingers.clear_entry(sid)
        # Everyone we knew is gone; point at ourselves and wait for a
        # notify to relink us (single-node ring semantics).
        self.successor_list = [self.id]
        return self.id

    @staticmethod
    def _dedupe(ids: list[int]) -> list[int]:
        seen: set[int] = set()
        out: list[int] = []
        for i in ids:
            if i not in seen:
                seen.add(i)
                out.append(i)
        return out

    def refresh_predecessor_list(self) -> None:
        """Maintain k predecessors by chaining predecessor pointers —
        the counter-clockwise mirror of the successor list (§V-B)."""
        if self.predecessor is None:
            self.predecessor_list = []
            return
        plist = [self.predecessor]
        try:
            theirs = self._rpc(
                self.predecessor, "rpc_get_predecessor_list"
            )
        except ProtocolError:
            theirs = []
        for pid in theirs:
            if pid != self.id and pid not in plist:
                plist.append(pid)
        self.predecessor_list = plist[: self.n_successors]

    def fix_next_finger(self) -> None:
        """Repair one finger per cycle (round-robin), as in the paper."""
        k = self._next_finger
        self._next_finger = (self._next_finger + 1) % len(self.fingers)
        try:
            target, _ = self.find_successor(self.fingers.starts[k])
            self.fingers.set(k, target)
        except ProtocolError:
            self.fingers.set(k, None)

    def fix_all_fingers(self) -> None:
        """Repair the whole table at once (used to converge test rings fast)."""
        for k in range(len(self.fingers)):
            try:
                target, _ = self.find_successor(self.fingers.starts[k])
                self.fingers.set(k, target)
            except ProtocolError:
                self.fingers.set(k, None)

    # ------------------------------------------------------------------
    # replication (active backup model)
    # ------------------------------------------------------------------
    def _replication_targets(self) -> list[int]:
        """Backup recipients: the successor list, clamped to the
        network-wide replication factor (None keeps the paper's
        full-list active-backup idealization; 0 disables backups)."""
        r = self.network.replication_factor
        if r is None:
            return self.successor_list
        return self.successor_list[:r]

    def replicate(self) -> None:
        """Push the primary set to every replication target.

        Uses arc-scoped *sync* semantics: each backup makes its replicas
        of our responsibility arc identical to what we hold, so completed
        or deleted keys cannot be resurrected by a later promotion.
        """
        items = self.store.primary_items()
        if self.predecessor is None:
            # Unknown arc: a full-circle sync would clobber other origins'
            # replicas, so push non-destructively until stabilized.
            if not items:
                return
            for sid in self._replication_targets():
                if sid == self.id:
                    continue
                try:
                    self._rpc(sid, "rpc_accept_replicas", items)
                except ProtocolError:
                    continue
            return
        start, end = self.responsibility_arc()
        for sid in self._replication_targets():
            if sid == self.id:
                continue
            try:
                self._rpc(
                    sid, "rpc_sync_replicas", start, end, items
                )
            except ProtocolError:
                continue

    def promote_replicas(self) -> int:
        """Adopt replicas that now fall in our responsibility range.

        Gated on a *stable* predecessor pointer: right after churn the
        pointer can be transiently wrong (a node with ``predecessor is
        None`` adopts any notifier, per Chord), and promoting against a
        wrong arc would resurrect data another node still owns.  Two
        quiet cycles are enough for stabilization to settle the pointer.
        """
        if self.predecessor is None or self._pred_stable < 2:
            return 0
        start, end = self.responsibility_arc()
        return self.store.promote_range(start, end)

    # ------------------------------------------------------------------
    # RPC surface (what other nodes may invoke through the network)
    # ------------------------------------------------------------------
    def rpc_ping(self) -> bool:
        return True

    def rpc_get_predecessor(self) -> int | None:
        return self.predecessor

    def rpc_get_successor(self) -> int:
        return self.successor

    def rpc_get_successor_list(self) -> list[int]:
        return list(self.successor_list)

    def rpc_closest_preceding(self, key: int) -> int:
        candidate = self.fingers.closest_preceding(key)
        # also consider the successor list (Chord's standard refinement)
        for sid in reversed(self.successor_list):
            if sid != self.id and self.space.in_interval(
                sid, self.id, key, closed_right=False
            ):
                if candidate is None or self.space.in_interval(
                    sid, candidate, key, closed_right=False
                ):
                    candidate = sid
                break
        return candidate if candidate is not None else self.id

    def rpc_notify(self, candidate: int) -> None:
        """A node believes it is our predecessor; adopt it if it improves
        our view, handing over the key range it is now responsible for."""
        if candidate == self.id:
            return
        adopt = (
            self.predecessor is None
            or not self.network.is_alive(self.predecessor)
            or self.space.in_interval(
                candidate, self.predecessor, self.id, closed_right=False
            )
        )
        if not adopt:
            return
        old_pred = self.predecessor
        self.predecessor = candidate
        if self.successor == self.id:
            # We were alone (or lost everyone): the notifier is also our
            # best-known successor.  Without this, a bootstrap node stays
            # self-looped for the whole network build and every later
            # join resolves against a stale full-circle range.  Complete
            # the handshake so the notifier learns we are its predecessor
            # — that seeds the predecessor chain the push-repair below
            # relies on.
            self.successor_list = [candidate]
            try:
                self._rpc(candidate, "rpc_notify", self.id)
            except ProtocolError:
                pass
        if old_pred is not None and old_pred != candidate:
            # Push-based repair (the paper's "active, aggressive"
            # maintenance): the old predecessor's successor pointer is now
            # stale — point it at the newcomer immediately instead of
            # waiting for its next stabilize cycle.  Without this,
            # building an n-node ring needs O(n) stabilization rounds.
            try:
                self._rpc(
                    old_pred, "rpc_replace_successor", self.id, candidate
                )
            except ProtocolError:
                pass
        # Transfer every primary key not in our new responsibility arc
        # (candidate, self] — i.e. keys in (self, candidate] — to the new
        # predecessor.  They remain here as replicas.
        moved = self.store.pop_primary_range(self.id, candidate)
        if moved:
            try:
                self._rpc(candidate, "rpc_receive_primaries", moved)
            except ProtocolError:
                # hand-off failed: take the keys back
                for k, v in moved.items():
                    self.store.put_primary(k, v)

    def rpc_receive_primaries(self, items: dict[int, Any]) -> None:
        for key, value in items.items():
            self.store.put_primary(key, value)

    def rpc_store(self, key: int, value: Any) -> None:
        self.store.put_primary(key, value)

    def complete_task(self, key: int) -> Any:
        """Finish (delete) a primary item and purge its backups now.

        The active/aggressive backup model: completion is propagated to
        the successor list synchronously, so no later promotion can
        resurrect a finished task (exactly-once under graceful churn).
        """
        value = self.store.remove_primary(key)
        # purge the FULL successor list, not just the replication
        # targets: predecessor hand-offs leave demoted replicas behind
        # irrespective of the replication factor, and an unpurged one
        # would be promoted later and run the task twice
        for sid in self.successor_list:
            if sid == self.id:
                continue
            try:
                self._rpc(sid, "rpc_remove_replica", key)
            except ProtocolError:
                continue
        return value

    def rpc_remove_replica(self, key: int) -> None:
        self.store.remove_replica(key)

    def rpc_fetch(self, key: int) -> Any:
        if not self.store.has(key):
            raise ProtocolError(f"node {self.id} does not hold key {key}")
        return self.store.get(key)

    def rpc_accept_replicas(self, items: dict[int, Any]) -> None:
        self.store.accept_replicas(items)

    def rpc_sync_replicas(
        self, start: int, end: int, items: dict[int, Any]
    ) -> None:
        self.store.sync_replica_range(start, end, items)

    def rpc_get_predecessor_list(self) -> list[int]:
        return list(self.predecessor_list)

    def rpc_known_contacts(self) -> list[int]:
        """Every peer this node currently knows about (lookup re-anchoring)."""
        contacts = list(self.successor_list)
        if self.predecessor is not None:
            contacts.append(self.predecessor)
        contacts.extend(self.predecessor_list)
        contacts.extend(self.fingers.known_ids())
        return [c for c in self._dedupe(contacts) if c != self.id]

    def rpc_replace_successor(self, old_id: int, new_id: int) -> None:
        """A departing successor (or one that just adopted a closer
        predecessor) hands us its replacement."""
        changed = old_id in self.successor_list
        self.fingers.clear_entry(old_id)
        replaced = [new_id if s == old_id else s for s in self.successor_list]
        self.successor_list = self._dedupe(
            [s for s in replaced if s != self.id] or [new_id]
        )[: self.n_successors]
        if changed and self.successor == new_id:
            # Introduce ourselves to the new successor right away so its
            # predecessor pointer is never left unset — later joins in
            # its range rely on it for their own push repair.
            try:
                self._rpc(new_id, "rpc_notify", self.id)
            except ProtocolError:
                pass

    def rpc_report_load(self) -> int:
        """Workload query used by smart neighbor injection / invitation."""
        return self.store.primary_count
