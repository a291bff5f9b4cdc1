"""A live asyncio Chord node hosting `repro.chord` logic on real sockets.

The protocol brain is the unmodified :class:`~repro.chord.node.ChordNode`
— the same class the in-memory tests drive.  What this module adds is a
body for it to live in:

* :class:`PeerDirectory` — the id → TCP address map.  Every request and
  response carries the sender's address snapshot, so the directory is
  gossip-maintained; removals are tombstoned so a peer's stale snapshot
  cannot resurrect a retired identity.
* :class:`RemoteNetwork` — a drop-in for the ``SimNetwork`` surface
  ``ChordNode`` uses (``rpc``/``rpc_retry``/``is_alive``/``register``/
  ``node_count``/``fallbacks``/``replication_factor``).  Local targets
  (the node's main identity and its Sybils share one process) dispatch
  as direct calls; remote targets go over :mod:`repro.net.transport`.
  ``rpc`` sends exactly once and ``rpc_retry`` owns the resend budget,
  so the drops/retries/messages accounting matches the in-memory fabric
  count for count.
* :class:`LiveBalancer` — the paper's strategy hooks driven from the
  stabilize loop: every ``decision_interval`` maintenance cycles the
  node compares its total load against ``sybil_threshold`` and spawns /
  retires Sybil identities (`none`, `random_injection`,
  `neighbor_injection`, `invitation`).
* :class:`LiveNode` — the asyncio shell: a TCP server for incoming
  frames, plus maintenance and gossip-heartbeat tasks with seeded
  jitter.  Blocking protocol work runs on a small thread pool so the
  event loop stays responsive; Chord's own stabilization absorbs the
  occasional interleaving between a served RPC and a maintenance cycle.

Determinism note: wall-clock time never feeds protocol *decisions* —
jitter and Sybil placement come from generators seeded by ``--seed``.
Wall-clock only appears in measurements (the stress layer's latency
numbers), which is exactly the live/tick split ROADMAP item 1 asks for.
"""

from __future__ import annotations

import asyncio
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

from repro import sanitize
from repro.chord.node import ChordNode
from repro.errors import IdSpaceError, ProtocolError, TransientNetworkError
from repro.hashspace.hashing import sha1_id
from repro.hashspace.idspace import IdSpace
from repro.net.transport import (
    Address,
    RetryPolicy,
    decode_payload,
    encode_payload,
    read_frame,
    request,
    write_frame,
)
from repro.obs.metrics import MetricsRegistry
from repro.util.rng import make_rng, spawn_seeds

__all__ = [
    "LiveBalancer",
    "LiveNode",
    "LiveNodeConfig",
    "PeerDirectory",
    "RemoteNetwork",
    "STRATEGY_NAMES",
]

#: Strategy names the live balancer accepts (mirrors the sim registry).
STRATEGY_NAMES = ("none", "random_injection", "neighbor_injection", "invitation")

#: How many peers an invitation poll samples per decision round.
_POLL_SAMPLE = 16


class PeerDirectory:
    """Gossip-maintained map of ring identity → TCP address.

    Identities hosted by one process (a main node plus its Sybils) all
    map to the same address.  :meth:`remove` tombstones the id so that
    later gossip merges from peers with a stale view cannot re-add it —
    Sybil retirement would otherwise flap forever.

    Tombstones are bounded: each carries the logical operation count at
    which it was written, and on every mutation the set is pruned to
    ``max_tombstones`` entries no older than ``tombstone_ttl_ops``
    operations.  Unbounded growth would otherwise leak on long-lived
    nodes (every Sybil ever retired, forever); the bounds are generous
    enough that a stale gossip snapshot has long stopped circulating by
    the time its tombstone ages out.  Ages are counted in directory
    operations, not wall-clock, so behaviour stays deterministic.
    """

    def __init__(
        self,
        *,
        max_tombstones: int = 1024,
        tombstone_ttl_ops: int = 100_000,
    ) -> None:
        self._addrs: dict[int, Address] = {}
        #: id → logical op count at tombstoning time
        self._tombstones: dict[int, int] = {}
        self._ops = 0
        self.max_tombstones = max_tombstones
        self.tombstone_ttl_ops = tombstone_ttl_ops

    def _prune(self) -> None:
        """Enforce the age and size bounds (runs after every mutation)."""
        if not self._tombstones:
            return
        horizon = self._ops - self.tombstone_ttl_ops
        if horizon > 0:
            self._tombstones = {
                i: born
                for i, born in self._tombstones.items()
                if born > horizon
            }
        overflow = len(self._tombstones) - self.max_tombstones
        if overflow > 0:
            # evict the oldest; dict preserves insertion order and
            # stones are only ever appended, so the first entries are
            # the oldest
            for ident in list(self._tombstones)[:overflow]:
                del self._tombstones[ident]

    def add(self, node_id: int, addr: Address) -> None:
        self._ops += 1
        self._tombstones.pop(node_id, None)
        self._addrs[node_id] = (addr[0], int(addr[1]))
        self._prune()

    def remove(self, node_id: int) -> None:
        self._ops += 1
        if self._addrs.pop(node_id, None) is not None:
            self._tombstones[node_id] = self._ops
        self._prune()

    def get(self, node_id: int) -> Address:
        try:
            return self._addrs[node_id]
        except KeyError:
            err = ProtocolError(f"no address known for id {node_id}")
            err.transport_failure = True
            raise err from None

    def knows(self, node_id: int) -> bool:
        return node_id in self._addrs

    def ids(self) -> list[int]:
        return sorted(self._addrs)

    def __len__(self) -> int:
        return len(self._addrs)

    def snapshot(self) -> dict[int, list[Any]]:
        """JSON-ready ``{id: [host, port]}`` copy for gossip envelopes."""
        return {i: [a[0], a[1]] for i, a in self._addrs.items()}

    def merge(self, snapshot: dict[int, Any]) -> None:
        """Adopt a peer's snapshot (tombstoned ids stay dead)."""
        self._ops += 1
        for node_id, addr in snapshot.items():
            ident = int(node_id)
            if ident in self._tombstones:
                continue
            host, port = addr
            self._addrs.setdefault(ident, (str(host), int(port)))
        self._prune()


class RemoteNetwork:
    """The ``SimNetwork`` facade backed by TCP instead of a dict.

    Implements exactly the surface :class:`~repro.chord.node.ChordNode`
    touches.  The accounting contract is the in-memory one: every send
    is a message, every transit failure a drop, every ``rpc_retry``
    resend a retry, every holder re-resolution a fallback — so live
    ``fault_stats()`` are comparable with simulated ones.
    """

    def __init__(
        self,
        directory: PeerDirectory,
        local_addr: Address,
        *,
        policy: RetryPolicy | None = None,
        transient_retries: int = 2,
    ) -> None:
        self.directory = directory
        self.local_addr = local_addr
        # one attempt per rpc(): the resend budget lives in rpc_retry,
        # exactly where SimNetwork keeps it
        self._policy = (policy or RetryPolicy()).single_shot()
        self._local: dict[int, ChordNode] = {}
        self.messages: Counter[str] = Counter()
        self.transient_retries = transient_retries
        self.replication_factor: int | None = None
        self.drops = 0
        self.retries = 0
        self.fallbacks = 0

    # ------------------------------------------------------------------
    # membership (local identities only; remote ones arrive via gossip)
    # ------------------------------------------------------------------
    def register(self, node: ChordNode) -> None:
        if node.id in self._local and self._local[node.id].alive:
            raise ProtocolError(f"id {node.id} already hosted and alive")
        self._local[node.id] = node
        self.directory.add(node.id, self.local_addr)

    def deregister(self, node_id: int) -> None:
        self._local.pop(node_id, None)
        self.directory.remove(node_id)

    def node(self, node_id: int) -> ChordNode:
        try:
            return self._local[node_id]
        except KeyError:
            raise ProtocolError(f"id {node_id} is not hosted here") from None

    def local_ids(self) -> list[int]:
        return sorted(self._local)

    def has_node(self, node_id: int) -> bool:
        return node_id in self._local

    def is_alive(self, node_id: int) -> bool:
        """Optimistic liveness: a directory entry counts as alive.

        The refutation path is the same as a deployed DHT's — an RPC to
        a dead peer times out (or its host disowns the id), the entry is
        dropped, and stabilization routes around it.
        """
        node = self._local.get(node_id)
        if node is not None:
            return node.alive
        return self.directory.knows(node_id)

    def alive_ids(self) -> list[int]:
        return sorted(i for i, n in self._local.items() if n.alive)

    def __len__(self) -> int:
        return len(self.alive_ids())

    def node_count(self) -> int:
        """Known ring size (drives lookup hop limits, as in SimNetwork)."""
        return max(len(self.directory), len(self._local))

    # ------------------------------------------------------------------
    # the wire
    # ------------------------------------------------------------------
    def dispatch(self, target_id: int, method: str, args: list, kwargs: dict) -> Any:
        """Serve an incoming RPC addressed to a locally hosted identity."""
        if not method.startswith("rpc_"):
            raise ProtocolError(f"method {method!r} is not remotely callable")
        node = self._local.get(target_id)
        if node is None or not node.alive:
            err = ProtocolError(f"rpc {method} to dead/unknown id {target_id}")
            err.transport_failure = True
            raise err
        return getattr(node, method)(*args, **kwargs)

    def rpc(self, target_id: int, method: str, *args: Any, **kwargs: Any) -> Any:
        """One send (local direct call or one TCP exchange).

        Transit failures (timeout, refused, reset) count a drop and
        raise :class:`TransientNetworkError`; a peer that answers "not
        hosting that id" raises the transport-flavoured
        :class:`ProtocolError` and evicts the stale directory entry.
        """
        self.messages[method] += 1
        node = self._local.get(target_id)
        if node is not None:
            if not node.alive:
                err = ProtocolError(f"rpc {method} to dead id {target_id}")
                err.transport_failure = True
                raise err
            return getattr(node, method)(*args, **kwargs)
        addr = self.directory.get(target_id)
        envelope = {
            "op": "rpc",
            "to": target_id,
            "method": method,
            "args": encode_payload(list(args)),
            "kwargs": encode_payload(kwargs),
            "addrs": encode_payload(self.directory.snapshot()),
        }
        try:
            value = request(addr, envelope, policy=self._policy)
        except TransientNetworkError:
            self.drops += 1
            raise
        except ProtocolError as exc:
            if getattr(exc, "transport_failure", False):
                # the host answered but disowned the id — stale entry
                self.directory.remove(target_id)
            raise
        self.directory.merge(value.get("addrs", {}))
        return value.get("r")

    def rpc_retry(
        self, target_id: int, method: str, *args: Any, **kwargs: Any
    ) -> Any:
        """Bounded transparent resends on transient failures only.

        Same accounting invariant as ``SimNetwork.rpc_retry``: each
        resend is a message and a retry; dead endpoints never retry.
        """
        attempts = self.transient_retries
        while True:
            try:
                return self.rpc(target_id, method, *args, **kwargs)
            except TransientNetworkError:
                if attempts <= 0:
                    raise
                attempts -= 1
                self.retries += 1

    # ------------------------------------------------------------------
    def total_messages(self) -> int:
        return sum(self.messages.values())

    def fault_stats(self) -> dict[str, int]:
        return {
            "drops": self.drops,
            "retries": self.retries,
            "fallbacks": self.fallbacks,
        }


class LiveBalancer:
    """The paper's decision round, driven from the live stabilize loop.

    Each round the node sums primary load across its identities (main +
    Sybils) and applies the strategy:

    * any strategy: a node with Sybils but zero load retires them (they
      were not helping where they were);
    * ``random_injection``: at or below ``sybil_threshold`` with budget
      left → one Sybil at a seeded-random identifier;
    * ``neighbor_injection``: same trigger, but the Sybil lands inside
      the arc of the most loaded *successor* that is above threshold;
    * ``invitation``: same trigger, target chosen from a bounded poll of
      all known peers (the live stand-in for the paper's help adverts).

    At most one Sybil per round ("avoid overwhelming the network").
    """

    def __init__(
        self,
        live: "LiveNode",
        strategy: str,
        *,
        sybil_threshold: int = 0,
        max_sybils: int = 5,
        rng: Any = None,
    ) -> None:
        if strategy not in STRATEGY_NAMES:
            raise ProtocolError(
                f"unknown live strategy {strategy!r}; "
                f"expected one of {', '.join(STRATEGY_NAMES)}"
            )
        self.live = live
        self.strategy = strategy
        self.sybil_threshold = sybil_threshold
        self.max_sybils = max_sybils
        self.rng = rng if rng is not None else make_rng(None)

    # ------------------------------------------------------------------
    def decide(self) -> None:
        """One decision round (runs on the maintenance executor)."""
        if self.strategy == "none":
            return
        live = self.live
        load = sum(n.store.primary_count for n in live.identities())
        if load == 0 and live.sybils():
            self.retire_all()
        if load <= self.sybil_threshold and len(live.sybils()) < self.max_sybils:
            self.inject_one()

    def retire_all(self) -> None:
        for sybil in list(self.live.sybils()):
            sybil.leave()
            self.live.network.deregister(sybil.id)
            self.live.drop_sybil(sybil.id)
            self.live.metrics.inc("net.sybils_retired")

    def inject_one(self) -> None:
        target_id = self._pick_identifier()
        if target_id is None:
            return
        live = self.live
        sybil = ChordNode(
            target_id, live.space, live.network,
            n_successors=live.config.n_successors,
        )
        try:
            sybil.join(live.main.id)
        except ProtocolError:
            live.network.deregister(target_id)
            live.metrics.inc("net.sybil_join_failures")
            return
        live.adopt_sybil(sybil)
        live.metrics.inc("net.sybils_created")

    # ------------------------------------------------------------------
    def _pick_identifier(self) -> int | None:
        space = self.live.space
        if self.strategy == "random_injection":
            return self._free_random_id()
        target = self._pick_target()
        if target is None:
            return None  # nobody is overloaded: do not inject blindly
        try:
            pred = self.live.network.rpc_retry(target, "rpc_get_predecessor")
        except ProtocolError:
            return None
        if pred is None:
            return self._free_random_id()
        try:
            return space.random_in_interval(self.rng, int(pred), int(target))
        except IdSpaceError:
            return None  # arc too tight to split

    def _free_random_id(self) -> int | None:
        space, directory = self.live.space, self.live.network.directory
        for _ in range(8):
            candidate = space.random_id(self.rng)
            if not directory.knows(candidate):
                return candidate
        return None

    def _pick_target(self) -> int | None:
        """The most loaded overloaded peer among the polled candidates."""
        own = set(self.live.network.local_ids())
        if self.strategy == "neighbor_injection":
            candidates = [
                s for s in self.live.main.successor_list if s not in own
            ]
        else:  # invitation: bounded poll over everything gossip knows
            candidates = [
                i for i in self.live.network.directory.ids() if i not in own
            ][:_POLL_SAMPLE]
        best_id, best_load = None, self.sybil_threshold
        for peer in candidates:
            try:
                peer_load = int(
                    self.live.network.rpc_retry(peer, "rpc_report_load")
                )
            except ProtocolError:
                continue
            if peer_load > best_load:
                best_id, best_load = peer, peer_load
        return best_id


@dataclass
class LiveNodeConfig:
    """Everything a live node needs beyond its bind address."""

    seed: int = 0
    bits: int = 64
    n_successors: int = 5
    strategy: str = "none"
    sybil_threshold: int = 0
    max_sybils: int = 5
    #: maintenance cycles between balancer decision rounds (paper: 5)
    decision_interval: int = 5
    #: seconds between maintenance cycles (before seeded jitter)
    maintenance_interval: float = 0.2
    #: seconds between gossip heartbeats
    heartbeat_interval: float = 1.0
    policy: RetryPolicy = field(default_factory=RetryPolicy)
    #: worker threads serving blocking protocol work
    workers: int = 8


class LiveNode:
    """One process on the live ring: TCP server + maintenance tasks.

    Lifecycle::

        node = LiveNode("127.0.0.1", 0, config)
        await node.start(bootstrap=None)      # create or join the ring
        ...
        await node.stop()                     # graceful leave + close

    ``port=0`` binds an ephemeral port; :attr:`addr` holds the real one
    after :meth:`start`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        config: LiveNodeConfig | None = None,
        *,
        node_id: int | None = None,
    ) -> None:
        self.config = config or LiveNodeConfig()
        self.space = IdSpace(self.config.bits)
        self.host = host
        self.port = port
        self._requested_id = node_id
        self.addr: Address = (host, port)
        self.directory = PeerDirectory()
        self.network: RemoteNetwork = None  # type: ignore[assignment]
        self.main: ChordNode = None  # type: ignore[assignment]
        self.balancer: LiveBalancer | None = None
        self.metrics = MetricsRegistry()
        self.cycles = 0
        self._sybils: dict[int, ChordNode] = {}
        self._server: asyncio.base_events.Server | None = None
        self._tasks: list[asyncio.Task] = []
        self._executor: ThreadPoolExecutor | None = None
        self._stopping = asyncio.Event()
        jitter_seed, sybil_seed = spawn_seeds(self.config.seed, 2)
        self._jitter_rng = make_rng(jitter_seed)
        self._sybil_rng = make_rng(sybil_seed)

    # ------------------------------------------------------------------
    # identities
    # ------------------------------------------------------------------
    def identities(self) -> list[ChordNode]:
        """Main node plus live Sybils (the process's total presence)."""
        return [self.main] + self.sybils()

    def sybils(self) -> list[ChordNode]:
        return [s for s in self._sybils.values() if s.alive]

    def adopt_sybil(self, sybil: ChordNode) -> None:
        self._sybils[sybil.id] = sybil

    def drop_sybil(self, sybil_id: int) -> None:
        self._sybils.pop(sybil_id, None)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, bootstrap: Address | None = None) -> None:
        """Bind, create/join the ring, and launch the background tasks."""
        loop = asyncio.get_running_loop()
        if sanitize.enabled():
            # Blocked-loop watch (dynamic R007) + per-consumer stream
            # claims: jitter and Sybil decisions each own a spawned
            # stream; a future consumer grabbing either would alias.
            sanitize.install_asyncio_watch(loop)
            sanitize.track_rng(self._jitter_rng, f"node-jitter-{self.port}")
            sanitize.track_rng(self._sybil_rng, f"node-sybil-{self.port}")
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-net"
        )
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.addr = (self.host, int(sockname[1]))
        self.network = RemoteNetwork(
            self.directory,
            self.addr,
            policy=self.config.policy,
            transient_retries=self.config.policy.retries,
        )
        node_id = self._requested_id
        if node_id is None:
            # stable identity per endpoint, exactly the paper's hash rule
            node_id = sha1_id(f"{self.addr[0]}:{self.addr[1]}", self.space)
        self.main = ChordNode(
            node_id, self.space, self.network,
            n_successors=self.config.n_successors,
        )
        if self.config.strategy != "none":
            self.balancer = LiveBalancer(
                self,
                self.config.strategy,
                sybil_threshold=self.config.sybil_threshold,
                max_sybils=self.config.max_sybils,
                rng=self._sybil_rng,
            )
        if bootstrap is None:
            self.main.create()
        else:
            await loop.run_in_executor(self._executor, self._join_via, bootstrap)
        self._tasks = [
            loop.create_task(self._maintenance_loop(), name="repro-maint"),
            loop.create_task(self._heartbeat_loop(), name="repro-gossip"),
        ]

    def _join_via(self, bootstrap: Address) -> None:
        """Blocking join handshake (runs on the executor)."""
        hello = request(
            bootstrap,
            {
                "op": "hello",
                "addrs": encode_payload(self.directory.snapshot()),
            },
            policy=self.config.policy,
        )
        self.directory.merge(hello.get("addrs", {}))
        self.main.join(int(hello["id"]))

    async def stop(self, *, leave: bool = True) -> None:
        """Cancel tasks, optionally leave gracefully, close everything."""
        self._stopping.set()
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except Exception:  # reprolint: disable=R004 (shutdown boundary)
                pass
            except asyncio.CancelledError:
                pass
        self._tasks = []
        if leave and self.main is not None and self._executor is not None:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(self._executor, self._leave_all)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def _leave_all(self) -> None:
        for node in list(self.sybils()) + [self.main]:
            try:
                node.leave()
            except ProtocolError:
                pass
            self.network.deregister(node.id)

    # ------------------------------------------------------------------
    # background tasks
    # ------------------------------------------------------------------
    def _jitter(self, interval: float) -> float:
        """Seeded ±25% jitter so rings do not stabilize in lockstep."""
        return interval * (0.75 + 0.5 * float(self._jitter_rng.random()))

    async def _maintenance_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while not self._stopping.is_set():
            await loop.run_in_executor(self._executor, self._maintenance_once)
            self.cycles += 1
            if (
                self.balancer is not None
                and self.cycles % self.config.decision_interval == 0
            ):
                await loop.run_in_executor(
                    self._executor, self._decision_once
                )
            await asyncio.sleep(self._jitter(self.config.maintenance_interval))

    def _maintenance_once(self) -> None:
        for node in self.identities():
            try:
                node.maintenance_cycle()
            except ProtocolError:
                # a peer died mid-cycle; the next cycle repairs further
                self.metrics.inc("net.maintenance_errors")

    def _decision_once(self) -> None:
        try:
            assert self.balancer is not None
            self.balancer.decide()
        except ProtocolError:
            self.metrics.inc("net.decision_errors")

    async def _heartbeat_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while not self._stopping.is_set():
            await asyncio.sleep(self._jitter(self.config.heartbeat_interval))
            await loop.run_in_executor(self._executor, self._heartbeat_once)

    def _heartbeat_once(self) -> None:
        """Gossip the address book to one seeded-random remote peer."""
        own = set(self.network.local_ids())
        peers = [i for i in self.directory.ids() if i not in own]
        if not peers:
            return
        peer = peers[int(self._jitter_rng.integers(0, len(peers)))]
        try:
            value = request(
                self.directory.get(peer),
                {
                    "op": "hello",
                    "addrs": encode_payload(self.directory.snapshot()),
                },
                policy=self.config.policy,
            )
        except ProtocolError:
            self.directory.remove(peer)
            self.metrics.inc("net.heartbeat_failures")
            return
        self.directory.merge(value.get("addrs", {}))

    # ------------------------------------------------------------------
    # server side
    # ------------------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    payload = await read_frame(reader)
                except ProtocolError:
                    # peer sent garbage: count it, drop the connection
                    self.metrics.inc("net.bad_frames")
                    break
                if payload is None:
                    break
                response = await self._handle(payload)
                await write_frame(writer, response)
        except (ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            # server shutdown cancels in-flight handlers; close quietly
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _handle(self, payload: dict[str, Any]) -> dict[str, Any]:
        try:
            value = await self._handle_op(payload)
        except TransientNetworkError as exc:
            return {"ok": False, "kind": "transient", "error": str(exc)}
        except ProtocolError as exc:
            kind = (
                "transport"
                if getattr(exc, "transport_failure", False)
                else "app"
            )
            return {"ok": False, "kind": kind, "error": str(exc)}
        except Exception as exc:  # reprolint: disable=R004 (server boundary)
            return {"ok": False, "kind": "app", "error": repr(exc)}
        return {"ok": True, "value": encode_payload(value)}

    async def _handle_op(self, payload: dict[str, Any]) -> Any:
        op = payload.get("op")
        if op == "rpc":
            return await self._handle_rpc(payload)
        if op == "hello":
            self.directory.merge(decode_payload(payload.get("addrs", {})))
            return {
                "id": self.main.id,
                "addrs": self.directory.snapshot(),
            }
        if op == "stats":
            return self.stats()
        if op == "client_get":
            return await self._client_call("get", int(payload["key"]))
        if op == "client_put":
            return await self._client_call(
                "put", int(payload["key"]), decode_payload(payload.get("value"))
            )
        if op == "shutdown":
            # ack first; the serve loop tears the process down
            asyncio.get_running_loop().call_soon(self._stopping.set)
            return {"stopping": True}
        raise ProtocolError(f"unknown op {op!r}")

    async def _handle_rpc(self, payload: dict[str, Any]) -> dict[str, Any]:
        self.directory.merge(decode_payload(payload.get("addrs", {})))
        loop = asyncio.get_running_loop()
        args = decode_payload(payload.get("args", []))
        kwargs = decode_payload(payload.get("kwargs", {}))
        result = await loop.run_in_executor(
            self._executor,
            lambda: self.network.dispatch(
                int(payload["to"]), str(payload["method"]), args, kwargs
            ),
        )
        return {"r": result, "addrs": self.directory.snapshot()}

    async def _client_call(self, method: str, *args: Any) -> dict[str, Any]:
        """Serve a client get/put through the main identity."""
        loop = asyncio.get_running_loop()
        if method == "get":
            value, hops = await loop.run_in_executor(
                self._executor, self.main.get, *args
            )
            self.metrics.inc("net.client_gets")
            return {"value": value, "hops": hops}
        holder, hops = await loop.run_in_executor(
            self._executor, self.main.put, *args
        )
        self.metrics.inc("net.client_puts")
        return {"holder": holder, "hops": hops}

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Point-in-time node snapshot (cheap: no remote calls)."""
        identities = {
            node.id: {
                "load": node.store.primary_count,
                "sybil": node is not self.main,
                "successor": (
                    node.successor_list[0] if node.successor_list else None
                ),
            }
            for node in self.identities()
        }
        return {
            "id": self.main.id,
            "addr": [self.addr[0], self.addr[1]],
            "strategy": self.config.strategy,
            "cycles": self.cycles,
            "identities": identities,
            "load": sum(v["load"] for v in identities.values()),
            "n_sybils": len(self.sybils()),
            "known_peers": len(self.directory),
            "messages": self.network.total_messages(),
            "fault_stats": self.network.fault_stats(),
            "metrics": self.metrics.as_dict(),
        }

    def request_stop(self) -> None:
        """Ask the node to shut down (signal-handler safe)."""
        self._stopping.set()

    async def run_until_stopped(self) -> None:
        """Block until :meth:`stop` (or a shutdown op) is requested."""
        await self._stopping.wait()
