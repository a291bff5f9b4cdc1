"""Wire transport for the live layer: length-prefixed JSON frames.

One frame is a 4-byte big-endian length followed by a UTF-8 JSON
document.  Both directions of every exchange are single frames, so the
protocol needs no streaming parser and any frame boundary error is
detected immediately.

Error split (mirrors :class:`repro.chord.network.SimNetwork`)
-------------------------------------------------------------
* :class:`~repro.errors.TransientNetworkError` — the message may never
  have reached the peer: connect/read timeout, refused or reset
  connection.  Worth retrying; :func:`request` / :func:`async_request`
  spend a bounded retry budget with exponential backoff before raising.
* :class:`~repro.errors.ProtocolError` with ``transport_failure=True`` —
  the peer answered but could not route (unknown/dead node id).  A
  detection, not noise: callers fall back, they do not resend.
* plain :class:`~repro.errors.ProtocolError` — an application-level
  error raised by the callee (e.g. "key not held").  Never retried.

Remote errors are carried in the response envelope::

    {"ok": true,  "value": <payload>}
    {"ok": false, "kind": "app" | "transport" | "transient", "error": "..."}

Payload codec
-------------
Chord RPC arguments include ``dict[int, value]`` item maps; JSON would
silently coerce the integer keys to strings.  :func:`encode_payload`
wraps every dict as ``{"__kv__": [[key, value], ...]}`` so key types
survive the round trip, and :func:`decode_payload` unwraps it.

Testability: both request functions accept an injectable ``sleep`` (and
the sync one a ``dial``), so timeout/backoff behaviour is unit-tested
with a fake clock — no test sleeps for real.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable

from repro.errors import ProtocolError, TransientNetworkError
from repro.obs.serialize import jsonable

__all__ = [
    "Address",
    "MAX_FRAME_BYTES",
    "RetryPolicy",
    "async_request",
    "decode_payload",
    "encode_frame",
    "encode_payload",
    "format_address",
    "parse_address",
    "read_frame",
    "read_frame_sync",
    "remote_error",
    "request",
    "write_frame",
    "write_frame_sync",
]

Address = tuple[str, int]

#: Hard cap on a single frame; a peer announcing more is a protocol
#: error (corrupt length prefix), not a bigger allocation.
MAX_FRAME_BYTES = 8 * 1024 * 1024

_LEN = struct.Struct(">I")


# ----------------------------------------------------------------------
# addresses
# ----------------------------------------------------------------------
def parse_address(spec: str) -> Address:
    """``"host:port"`` -> ``(host, port)``."""
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise ProtocolError(f"address must look like host:port, got {spec!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ProtocolError(f"bad port in address {spec!r}") from None


def format_address(addr: Address) -> str:
    return f"{addr[0]}:{addr[1]}"


# ----------------------------------------------------------------------
# payload codec (dict keys survive JSON)
# ----------------------------------------------------------------------
def encode_payload(obj: Any) -> Any:
    """JSON-safe encoding that preserves dict key types."""
    if isinstance(obj, dict):
        return {
            "__kv__": [
                [encode_payload(k), encode_payload(v)] for k, v in obj.items()
            ]
        }
    if isinstance(obj, (list, tuple)):
        return [encode_payload(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    # numpy scalars and friends
    return jsonable(obj)


def decode_payload(obj: Any) -> Any:
    """Inverse of :func:`encode_payload`."""
    if isinstance(obj, dict):
        if set(obj) == {"__kv__"}:
            return {
                decode_payload(k): decode_payload(v) for k, v in obj["__kv__"]
            }
        return {k: decode_payload(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [decode_payload(v) for v in obj]
    return obj


# ----------------------------------------------------------------------
# frames
# ----------------------------------------------------------------------
def encode_frame(payload: dict[str, Any]) -> bytes:
    """Serialize one envelope as a length-prefixed JSON frame."""
    body = json.dumps(jsonable(payload), sort_keys=True).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame too large: {len(body)} bytes")
    return _LEN.pack(len(body)) + body


def _decode_body(body: bytes) -> dict[str, Any]:
    """Parse a frame body; every malformed body is a :class:`ProtocolError`.

    All readers (async, sync, both clients) share this, so a peer that
    sends non-UTF-8 or non-JSON bytes is classified once, here, instead
    of escaping as a ``ValueError`` past servers that catch only
    protocol errors.
    """
    try:
        payload = json.loads(body.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
        raise ProtocolError(f"frame body is not UTF-8 JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("frame payload must be a JSON object")
    return payload


async def read_frame(reader: asyncio.StreamReader) -> dict[str, Any] | None:
    """Read one frame; ``None`` on clean EOF before a length prefix."""
    try:
        header = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("truncated frame header") from exc
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"peer announced oversized frame ({length} bytes)")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("truncated frame body") from exc
    return _decode_body(body)


async def write_frame(
    writer: asyncio.StreamWriter, payload: dict[str, Any]
) -> None:
    writer.write(encode_frame(payload))
    await writer.drain()


# ----------------------------------------------------------------------
# retry policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Per-message timeout / bounded-retry / backoff settings.

    ``retries`` counts *resends* beyond the first attempt, exactly like
    ``SimNetwork.transient_retries``.  The ``attempt``-th resend waits
    ``backoff * backoff_factor ** attempt`` seconds first.
    """

    timeout: float = 1.0
    retries: int = 2
    backoff: float = 0.05
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ProtocolError(f"timeout must be > 0, got {self.timeout}")
        if self.retries < 0:
            raise ProtocolError(f"retries must be >= 0, got {self.retries}")
        if self.backoff < 0:
            raise ProtocolError(f"backoff must be >= 0, got {self.backoff}")
        if self.backoff_factor < 1.0:
            raise ProtocolError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def delay(self, attempt: int) -> float:
        """Backoff before resend number ``attempt`` (0-based)."""
        return self.backoff * self.backoff_factor**attempt

    def single_shot(self) -> "RetryPolicy":
        """The same timeouts with the retry budget removed."""
        if self.retries == 0:
            return self
        return RetryPolicy(
            timeout=self.timeout,
            retries=0,
            backoff=self.backoff,
            backoff_factor=self.backoff_factor,
        )


DEFAULT_POLICY = RetryPolicy()


# ----------------------------------------------------------------------
# remote error mapping
# ----------------------------------------------------------------------
def remote_error(envelope: dict[str, Any]) -> ProtocolError:
    """Build the local exception for a ``{"ok": false, ...}`` envelope."""
    kind = envelope.get("kind", "app")
    message = str(envelope.get("error", "remote error"))
    if kind == "transient":
        return TransientNetworkError(message)
    err = ProtocolError(message)
    if kind == "transport":
        err.transport_failure = True
    return err


def _unwrap(envelope: dict[str, Any]) -> Any:
    if envelope.get("ok"):
        return decode_payload(envelope.get("value"))
    raise remote_error(envelope)


# ----------------------------------------------------------------------
# synchronous client (used from the node's worker threads)
# ----------------------------------------------------------------------
def _dial_tcp(addr: Address, timeout: float) -> socket.socket:
    return socket.create_connection(addr, timeout=timeout)


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    chunks: list[bytes] = []
    remaining = n
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("peer closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame_sync(sock: socket.socket) -> dict[str, Any] | None:
    """Blocking twin of :func:`read_frame`; ``None`` on clean EOF.

    Used by thread-based servers (the fabric broker) that accept one
    request frame per connection — the asyncio reader above serves the
    live DHT layer, which multiplexes.
    """
    header = b""
    while len(header) < _LEN.size:
        chunk = sock.recv(_LEN.size - len(header))
        if not chunk:
            if not header:
                return None
            raise ProtocolError("truncated frame header")
        header += chunk
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"peer announced oversized frame ({length} bytes)")
    try:
        body = _recv_exactly(sock, length)
    except ConnectionError as exc:
        raise ProtocolError("truncated frame body") from exc
    return _decode_body(body)


def write_frame_sync(sock: socket.socket, payload: dict[str, Any]) -> None:
    """Blocking twin of :func:`write_frame`."""
    sock.sendall(encode_frame(payload))


def _exchange_sync(sock: socket.socket, frame: bytes) -> dict[str, Any]:
    sock.sendall(frame)
    (length,) = _LEN.unpack(_recv_exactly(sock, _LEN.size))
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"peer announced oversized frame ({length} bytes)")
    return _decode_body(_recv_exactly(sock, length))


def request(
    addr: Address,
    payload: dict[str, Any],
    *,
    policy: RetryPolicy = DEFAULT_POLICY,
    dial: Callable[[Address, float], Any] = _dial_tcp,
    sleep: Callable[[float], None] = time.sleep,
) -> Any:
    """Send one request frame, return the decoded response value.

    Timeouts and connection failures are retried ``policy.retries``
    times with exponential backoff, then surface as
    :class:`TransientNetworkError`.  Errors reported *by the peer* are
    never retried — the message was delivered.
    """
    frame = encode_frame(payload)
    attempt = 0
    while True:
        sock = None
        try:
            sock = dial(addr, policy.timeout)
            envelope = _exchange_sync(sock, frame)
        except ProtocolError:
            raise
        except (OSError, ConnectionError) as exc:
            if attempt >= policy.retries:
                raise TransientNetworkError(
                    f"request to {format_address(addr)} failed after "
                    f"{attempt + 1} attempt(s): {exc}"
                ) from exc
            sleep(policy.delay(attempt))
            attempt += 1
            continue
        finally:
            if sock is not None:
                try:
                    sock.close()
                except OSError:  # pragma: no cover - close is best-effort
                    pass
        return _unwrap(envelope)


# ----------------------------------------------------------------------
# asyncio client (used by the stress generator)
# ----------------------------------------------------------------------
async def _exchange_async(
    addr: Address, frame: bytes, timeout: float
) -> dict[str, Any]:
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(addr[0], addr[1]), timeout
    )
    try:
        writer.write(frame)
        await asyncio.wait_for(writer.drain(), timeout)
        header = await asyncio.wait_for(reader.readexactly(_LEN.size), timeout)
        (length,) = _LEN.unpack(header)
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"peer announced oversized frame ({length} bytes)"
            )
        body = await asyncio.wait_for(reader.readexactly(length), timeout)
        return _decode_body(body)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (OSError, ConnectionError):  # pragma: no cover
            pass


async def async_request(
    addr: Address,
    payload: dict[str, Any],
    *,
    policy: RetryPolicy = DEFAULT_POLICY,
    sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
) -> Any:
    """Async twin of :func:`request` (same retry/backoff/error rules)."""
    frame = encode_frame(payload)
    attempt = 0
    while True:
        try:
            envelope = await _exchange_async(addr, frame, policy.timeout)
        except ProtocolError:
            raise
        except (
            OSError,
            ConnectionError,
            asyncio.TimeoutError,
            asyncio.IncompleteReadError,
        ) as exc:
            if attempt >= policy.retries:
                raise TransientNetworkError(
                    f"request to {format_address(addr)} failed after "
                    f"{attempt + 1} attempt(s): {exc!r}"
                ) from exc
            await sleep(policy.delay(attempt))
            attempt += 1
            continue
        return _unwrap(envelope)
