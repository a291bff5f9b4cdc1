"""In-memory RPC fabric for the protocol-level Chord implementation.

Nodes never hold direct references to each other; every interaction goes
through :class:`SimNetwork.rpc`, which

* verifies the callee is alive (dead/unknown targets raise
  :class:`~repro.errors.ProtocolError`, which callers treat as a failure
  detection — exactly how a timeout behaves in a deployed DHT), and
* counts messages per method, giving the maintenance/lookup traffic
  numbers the paper discusses qualitatively ("the estimation based
  neighbor injection requires fewer messages in an actual
  implementation").

The fabric is synchronous and deterministic: latency is modelled by hop
counts, not wall-clock time, matching the paper's tick abstraction where
"a tick is enough time to accomplish at least one maintenance cycle".

Fault plane
-----------
Beyond the original one-shot :meth:`~SimNetwork.drop_next_rpc_to`, the
fabric carries a seeded probabilistic fault model (all default-off):

* a **global loss rate** and **per-link loss rates** — each RPC is
  dropped with the link's rate (falling back to the global one),
  raising :class:`~repro.errors.TransientNetworkError`;
* **crash-stop with delayed detection** — :meth:`crash` kills a node
  abruptly; for ``crash_detection_ticks`` of the network's logical
  clock, :meth:`is_alive` (the cheap oracle peers consult) still
  reports it alive while actual RPCs to it fail, modelling the window
  before timeouts refute a stale view;
* **bounded transparent retries** — :meth:`rpc_retry` re-sends on
  transient drops only (each resend counts as a message and a retry),
  never on dead endpoints.

``drops`` / ``retries`` / ``fallbacks`` counters join the per-method
message accounting (see :meth:`fault_stats`).
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Any

from repro.errors import ProtocolError, TransientNetworkError
from repro.util.rng import make_rng

if TYPE_CHECKING:  # pragma: no cover
    from repro.chord.node import ChordNode

__all__ = ["MessagePlane", "SimNetwork"]


class MessagePlane:
    """The resend loop and message accounting every RPC fabric shares.

    A subclass supplies ``rpc(target_id, method, *args, **kwargs)``: one
    send that counts itself in ``messages`` and, when it is lost in
    transit, counts a drop and raises :class:`TransientNetworkError`.
    :class:`SimNetwork` delivers through a dict and
    :class:`repro.net.node.RemoteNetwork` over TCP, so live
    ``fault_stats()`` compare count for count with simulated ones.
    """

    def __init__(self, transient_retries: int = 2) -> None:
        self.messages: Counter[str] = Counter()
        #: transparent resends :meth:`rpc_retry` may spend per call
        self.transient_retries = transient_retries
        self.drops = 0
        self.retries = 0
        self.fallbacks = 0

    def rpc_retry(
        self, target_id: int, method: str, *args: Any, **kwargs: Any
    ) -> Any:
        """Like ``rpc``, but re-send after transient drops.

        Spends at most ``transient_retries`` resends; each one counts a
        message (it is one) and a retry.  Dead/unknown endpoints are
        not retried — a timeout there is a detection, not noise.

        Exact accounting per call (pinned by tests): with ``k`` transit
        drops and budget ``b = transient_retries``,

        * ``k <= b`` (eventually delivered): ``k + 1`` messages,
          ``k`` retries, ``k`` drops;
        * ``k > b`` (budget exhausted, raises): ``b + 1`` messages,
          ``b`` retries, ``b + 1`` drops — the final failed send is a
          message and a drop but not a retry, because nothing is
          re-sent after it.
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

    def total_messages(self) -> int:
        return sum(self.messages.values())

    def fault_stats(self) -> dict[str, int]:
        """Fault-plane accounting alongside the message counts."""
        return {
            "drops": self.drops,
            "retries": self.retries,
            "fallbacks": self.fallbacks,
        }


class SimNetwork(MessagePlane):
    """Registry of protocol nodes plus the message accounting fabric."""

    def __init__(self) -> None:
        super().__init__()
        self._nodes: dict[int, "ChordNode"] = {}
        #: per-id count of pending forced drops: the next N RPCs to the
        #: id fail in transit.  A Counter (not a set) so repeated arming
        #: stacks — forcing a *chain* of drops is how the retry
        #: accounting is pinned by tests.
        self._drop_once: Counter[int] = Counter()
        # -- probabilistic fault plane (inert by default) ---------------
        #: probability that any RPC is dropped in transit
        self.loss_rate = 0.0
        #: per-target loss rates overriding the global one
        self._link_loss: dict[int, float] = {}
        self._fault_rng = None
        #: how long a crashed node still looks alive to :meth:`is_alive`
        self.crash_detection_ticks = 0
        #: successor backups kept by each node (None == full list)
        self.replication_factor: int | None = None
        #: logical clock (advanced by the driving simulation's ticks)
        self.clock = 0
        self._crashed_at: dict[int, int] = {}

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def register(self, node: "ChordNode") -> None:
        if node.id in self._nodes and self._nodes[node.id].alive:
            raise ProtocolError(f"id {node.id} already registered and alive")
        self._nodes[node.id] = node
        # A fresh node under a reused id must not inherit the previous
        # owner's fault state: crash bookkeeping, per-link loss rate, or
        # one-shot drops armed against the dead node.
        self._purge_fault_state(node.id)

    def deregister(self, node_id: int) -> None:
        self._nodes.pop(node_id, None)
        self._purge_fault_state(node_id)

    def _purge_fault_state(self, node_id: int) -> None:
        """Forget per-id fault-injection state (id removed or reused)."""
        self._crashed_at.pop(node_id, None)
        self._link_loss.pop(node_id, None)
        self._drop_once.pop(node_id, None)

    def node(self, node_id: int) -> "ChordNode":
        """Direct (non-RPC) access for orchestration and assertions."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise ProtocolError(f"no node with id {node_id}") from None

    def has_node(self, node_id: int) -> bool:
        return node_id in self._nodes

    def is_alive(self, node_id: int) -> bool:
        """Cheap liveness oracle peers consult between probes.

        A crash-stop node keeps *appearing* alive here for
        ``crash_detection_ticks`` after :meth:`crash` — the stale view a
        real peer holds until its timeouts refute it.  Actual RPCs to
        the node fail throughout.
        """
        node = self._nodes.get(node_id)
        if node is None:
            return False
        if node.alive:
            return True
        crashed = self._crashed_at.get(node_id)
        if crashed is not None:
            if self.clock - crashed < self.crash_detection_ticks:
                return True
            del self._crashed_at[node_id]
        return False

    def alive_ids(self) -> list[int]:
        return sorted(i for i, n in self._nodes.items() if n.alive)

    def __len__(self) -> int:
        return len(self.alive_ids())

    def node_count(self) -> int:
        """Registered node count (alive or not) — O(1)."""
        return len(self._nodes)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def drop_next_rpc_to(self, node_id: int, count: int = 1) -> None:
        """Make the next ``count`` RPCs to ``node_id`` fail in transit.

        Repeated calls stack (two arms == the next two RPCs drop), which
        is what lets tests force a drop *chain* through
        :meth:`rpc_retry` and assert its exact message/retry accounting.
        """
        if count < 1:
            raise ProtocolError(f"drop count must be >= 1, got {count}")
        self._drop_once[node_id] += count

    def configure_faults(
        self,
        *,
        loss_rate: float = 0.0,
        seed=None,
        crash_detection_ticks: int = 0,
        replication_factor: int | None = None,
        transient_retries: int | None = None,
    ) -> None:
        """Arm the probabilistic fault plane (seeded for determinism)."""
        if not 0.0 <= loss_rate <= 1.0:
            raise ProtocolError(f"loss_rate must be in [0, 1], got {loss_rate}")
        self.loss_rate = loss_rate
        self.crash_detection_ticks = crash_detection_ticks
        self.replication_factor = replication_factor
        if transient_retries is not None:
            if transient_retries < 0:
                raise ProtocolError(
                    f"transient_retries must be >= 0, got {transient_retries}"
                )
            self.transient_retries = transient_retries
        if loss_rate > 0 or self._link_loss:
            self._fault_rng = make_rng(seed)

    def set_link_loss(self, node_id: int, rate: float) -> None:
        """Per-link drop rate for RPCs *to* ``node_id`` (overrides the
        global ``loss_rate``; 0 restores the global behaviour)."""
        if not 0.0 <= rate <= 1.0:
            raise ProtocolError(f"link loss rate must be in [0, 1], got {rate}")
        if rate <= 0.0:
            self._link_loss.pop(node_id, None)
            return
        self._link_loss[node_id] = rate
        if self._fault_rng is None:
            self._fault_rng = make_rng(None)

    def crash(self, node_id: int) -> None:
        """Crash-stop ``node_id``: no goodbye, no hand-off.

        The node stays registered as a corpse so :meth:`is_alive` can
        keep up the pretence for ``crash_detection_ticks``.
        """
        node = self._nodes.get(node_id)
        if node is None:
            raise ProtocolError(f"cannot crash unknown id {node_id}")
        node.fail()
        if self.crash_detection_ticks > 0:
            self._crashed_at[node_id] = self.clock

    def tick(self) -> None:
        """Advance the logical clock (drives crash-detection aging)."""
        self.clock += 1

    # ------------------------------------------------------------------
    # the wire
    # ------------------------------------------------------------------
    def rpc(self, target_id: int, method: str, *args: Any, **kwargs: Any) -> Any:
        """Invoke ``method`` on the node that owns ``target_id``.

        Raises :class:`TransientNetworkError` for an in-transit drop
        (one-shot or probabilistic) and :class:`ProtocolError` when the
        target is missing or dead — callers interpret either as a
        detected failure, but only the former is worth retrying.
        """
        self.messages[method] += 1
        if self._drop_once.get(target_id, 0) > 0:
            self._drop_once[target_id] -= 1
            if self._drop_once[target_id] <= 0:
                del self._drop_once[target_id]
            self.drops += 1
            raise TransientNetworkError(
                f"rpc {method} to {target_id} dropped"
            )
        rate = self._link_loss.get(target_id, self.loss_rate)
        if (
            rate > 0.0
            and self._fault_rng is not None
            and self._fault_rng.random() < rate
        ):
            self.drops += 1
            raise TransientNetworkError(
                f"rpc {method} to {target_id} lost in transit"
            )
        node = self._nodes.get(target_id)
        if node is None or not node.alive:
            err = ProtocolError(
                f"rpc {method} to dead/unknown id {target_id}"
            )
            err.transport_failure = True
            raise err
        return getattr(node, method)(*args, **kwargs)

    # ------------------------------------------------------------------
    def reset_messages(self) -> None:
        """Zero the whole message plane: per-method counts *and* the
        fault counters (``drops``/``retries``/``fallbacks``).

        The fault counters are message accounting too — a drop is a
        message that died in transit, a retry is a resend.  Resetting
        only ``messages`` (the old behaviour) made ``fault_stats()``
        leak counts across trials that reset between phases, silently
        corrupting any per-phase fault measurement.
        """
        self.messages.clear()
        self.reset_fault_stats()

    def reset_fault_stats(self) -> None:
        """Zero ``drops``/``retries``/``fallbacks`` only (keep messages)."""
        self.drops = 0
        self.retries = 0
        self.fallbacks = 0
