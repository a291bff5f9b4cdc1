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
* :class:`LiveNode` — the asyncio shell: a TCP server for incoming
  frames, plus maintenance and gossip-heartbeat tasks with seeded
  jitter, and a decision round every ``decision_interval`` maintenance
  cycles through the node's :class:`~repro.chord.view.ChordView`, the
  view each protocol-simulation host runs.  The node is that view's
  host object: a peer's census is a ``stats`` op and an invitation an
  ``invite`` op.  No strategy logic lives here; ``churn`` and
  ``relocation`` are the registry names a live node cannot run.
  Blocking protocol work runs on a small thread pool so the event loop
  stays responsive; Chord's own stabilization absorbs the occasional
  interleaving between a served RPC and a maintenance cycle.

Determinism note: wall-clock time never feeds protocol *decisions* —
jitter and Sybil placement come from generators seeded by ``--seed``.
Wall-clock only appears in measurements (the stress layer's latency
numbers), which is exactly the live/tick split ROADMAP item 1 asks for.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import sanitize
from repro.chord.network import MessagePlane
from repro.chord.node import ChordNode
from repro.chord.view import ChordView
from repro.config import SimulationConfig
from repro.core.registry import strategy_names
from repro.core.strategy import RoundStats
from repro.errors import ConfigError, ProtocolError, TransientNetworkError
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
    "LIVE_STRATEGIES",
    "LiveNode",
    "LiveNodeConfig",
    "PeerDirectory",
    "RemoteNetwork",
]

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

    def n_hosts(self) -> int:
        """Distinct addresses: the processes this directory knows."""
        return len(set(self._addrs.values()))

    def __len__(self) -> int:
        return len(self._addrs)

    def snapshot(self) -> dict[int, list[Any]]:
        """JSON-ready ``{id: [host, port]}`` copy for gossip envelopes."""
        return {i: [a[0], a[1]] for i, a in self._addrs.items()}

    def merge(
        self, snapshot: dict[int, Any], source: Address | None = None
    ) -> None:
        """Adopt a peer's snapshot (tombstoned ids stay dead).

        The snapshot of the process at ``source`` is authoritative for
        the ids it hosts: an id mapped to ``source`` that it no longer
        lists (a retired Sybil) is dropped, without a tombstone, so a
        snapshot older than this book can only delay an id, not bury it.
        """
        self._ops += 1
        adopted = {int(i): (str(a[0]), int(a[1])) for i, a in snapshot.items()}
        for ident, addr in list(self._addrs.items()):
            if addr == source and ident not in adopted:
                del self._addrs[ident]
        for ident, addr in adopted.items():
            if ident not in self._tombstones:
                self._addrs.setdefault(ident, addr)
        self._prune()


class RemoteNetwork(MessagePlane):
    """The ``SimNetwork`` facade backed by TCP instead of a dict.

    Implements exactly the surface :class:`~repro.chord.node.ChordNode`
    touches.  The accounting contract is the in-memory one, and
    :class:`~repro.chord.network.MessagePlane` holds it for both: every
    send is a message, every transit failure a drop, every
    ``rpc_retry`` resend a retry, every holder re-resolution a
    fallback — so live ``fault_stats()`` are comparable with simulated
    ones.
    """

    def __init__(
        self,
        directory: PeerDirectory,
        local_addr: Address,
        *,
        policy: RetryPolicy | None = None,
        transient_retries: int = 2,
    ) -> None:
        super().__init__(transient_retries)
        self.directory = directory
        self.local_addr = local_addr
        # one attempt per rpc(): the resend budget lives in the
        # rpc_retry both networks share
        self._policy = (policy or RetryPolicy()).single_shot()
        self._local: dict[int, ChordNode] = {}
        self.replication_factor: int | None = None

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
        self.directory.merge(value.get("addrs", {}), source=addr)
        return value.get("r")


#: Registry strategies a live node cannot run: ``relocation`` moves the
#: address-derived main id, ``churn`` needs an engine's churn phase.
EXCLUDED = ("churn", "relocation")
LIVE_STRATEGIES = tuple(n for n in strategy_names() if n not in EXCLUDED)


def strategy_config(cfg: LiveNodeConfig) -> SimulationConfig:
    """The strategy's view of a node config; raises :class:`ConfigError`
    for an excluded or unknown strategy or a bad threshold or budget."""
    if cfg.strategy in EXCLUDED:
        raise ConfigError(f"strategy {cfg.strategy!r} cannot run live")
    return SimulationConfig(
        strategy=cfg.strategy, sybil_threshold=cfg.sybil_threshold,
        max_sybils=cfg.max_sybils, num_successors=cfg.n_successors,
        seed=cfg.seed,
    )


@dataclass
class LiveNodeConfig:
    """Everything a live node needs beyond its bind address."""

    seed: int = 0
    bits: int = 64
    n_successors: int = 5
    #: a registry name other than ``churn`` / ``relocation``
    strategy: str = "none"
    sybil_threshold: int = 0
    max_sybils: int = 5
    #: maintenance cycles between strategy decision rounds (paper: 5)
    decision_interval: int = 5
    #: seconds between maintenance cycles (before seeded jitter)
    maintenance_interval: float = 0.2
    #: seconds between gossip heartbeats
    heartbeat_interval: float = 1.0
    policy: RetryPolicy = field(default_factory=RetryPolicy)
    #: worker threads serving blocking protocol work
    workers: int = 8

    def __post_init__(self) -> None:
        if self.strategy != "none":
            strategy_config(self)


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
        self.metrics = MetricsRegistry()
        self.cycles = 0
        self._sybils: dict[int, ChordNode] = {}
        self._server: asyncio.base_events.Server | None = None
        self._tasks: list[asyncio.Task] = []
        self._executor: ThreadPoolExecutor | None = None
        self._stopping = asyncio.Event()
        jitter_seed, sybil_seed = spawn_seeds(self.config.seed, 2)
        self._jitter_rng = make_rng(jitter_seed)
        #: Sybil placement draws (the view's ``rng``)
        self.rng = make_rng(sybil_seed)
        self.view: ChordView | None = (
            None
            if self.config.strategy == "none"
            else ChordView(self, strategy_config(self.config))
        )

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
    # the rest of what the view reads (see ChordView)
    # ------------------------------------------------------------------
    #: live hosts are homogeneous
    strength = 1

    @property
    def sybil_cap(self) -> int:
        return self.config.max_sybils

    @property
    def total_tasks(self) -> int:
        """Estimated from this host's load and the arcs it covers."""
        nodes = self.identities()
        load = sum(n.store.primary_count for n in nodes)
        covered = sum(
            self.space.distance(n.predecessor, n.id)
            for n in nodes if n.predecessor is not None
        )
        return load * self.space.size // covered if covered else load

    @property
    def initial_nodes(self) -> int:
        return self.directory.n_hosts()

    def peer(self, node_id: int) -> Address:
        return self.directory.get(node_id)

    def census(self, peer: Address) -> dict[str, Any] | None:
        return self._ask(peer, {"op": "stats"})

    def invite(self, peer: Address, slot: int) -> int | None:
        return self._ask(peer, {"op": "invite", "slot": slot})

    def _ask(self, addr: Address, payload: dict[str, Any]) -> Any:
        """One op to another host; None when it fails."""
        try:
            return request(addr, payload, policy=self.config.policy)
        except ProtocolError:
            return None

    def book(self, stats: RoundStats) -> None:
        """A round's counters land in the metrics as ``net.<field>``,
        the simulator's names."""
        totals: dict[str, int] = {}
        stats.merge_into(totals)
        self.metrics.merge_counters(totals, prefix="net.")

    def relocate(
        self, ident: int, join: Callable[[int], ChordNode | None]
    ) -> ChordNode | None:
        raise ConfigError("relocation cannot run live")

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
            sanitize.track_rng(self.rng, f"node-sybil-{self.port}")
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
        if bootstrap is None:
            self.main.create()
        else:
            await loop.run_in_executor(self._executor, self._join_via, bootstrap)
        if self.view is not None:
            self.view.strategy.on_attach(self.view)
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
                self.view is not None
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
            assert self.view is not None
            self.view.run_round()
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
        addr = self.directory.get(peer)
        try:
            value = request(
                addr,
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
        self.directory.merge(value.get("addrs", {}), source=addr)

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
        if op == "invite":
            return await asyncio.get_running_loop().run_in_executor(
                self._executor, self._accept_invite, int(payload["slot"])
            )
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

    def _accept_invite(self, slot: int) -> int | None:
        """A Sybil in ``slot``'s arc if this host's strategy helps, or
        None (refused)."""
        return None if self.view is None else self.view.accept_invite(slot)

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
            "max_sybils": self.sybil_cap,
            "strength": self.strength,
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
