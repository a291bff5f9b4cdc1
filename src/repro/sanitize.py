"""Runtime determinism sanitizer (``REPRO_SANITIZE=1``).

The static rules R007–R009 prove properties of the *source*; this
module checks the same invariants on a *running* process, where dynamic
dispatch, pickling, and scheduler interleavings live.  Everything here
is dormant unless the ``REPRO_SANITIZE`` environment variable is ``1``:
the guards read the flag at call time, so a test can flip it per-case,
and the instrumented code paths cost one truthiness check when off —
the obs-smoke zero-overhead budget still holds.

Checks
------

* :func:`track_rng` — registers which logical owner a
  ``numpy.random.Generator`` instance belongs to; a second owner
  claiming the same ``BitGenerator`` is cross-consumer stream aliasing
  (the dynamic face of R009) and raises :class:`SanitizeError`.
* :func:`install_asyncio_watch` — flips the loop into asyncio debug
  mode with a tight ``slow_callback_duration`` and records every
  "Executing ... took" complaint (the dynamic face of R007's
  blocked-loop check).

Violations both *raise* :class:`~repro.errors.SanitizeError` (for the
checks with a raise site) and accumulate in :func:`reports`, which the
smoke scripts assert empty; the asyncio watch only accumulates, since
raising from a log handler would be swallowed by the loop.
"""

from __future__ import annotations

import logging
import os
from typing import Any, Union

import numpy as np

from repro.errors import SanitizeError

__all__ = [
    "ENV_FLAG",
    "enabled",
    "reset",
    "reports",
    "report_count",
    "track_rng",
    "install_asyncio_watch",
]

ENV_FLAG = "REPRO_SANITIZE"


def enabled() -> bool:
    """Whether the sanitizer is active (checked at every call site, so
    tests and smoke scripts can toggle it mid-process)."""
    return os.environ.get(ENV_FLAG, "") == "1"


#: Violation messages, in detection order.
_REPORTS: list[str] = []
#: id(BitGenerator) -> (owner label, pid). Keyed on the BitGenerator so
#: two Generator wrappers over one stream still collide.
_RNG_OWNERS: dict[int, tuple[str, int]] = {}
#: Strong references backing the id() keys above: without them a freed
#: BitGenerator's address could be reissued to a fresh one and fake an
#: aliasing hit.  Bounded by the number of tracked generators per run.
_RNG_REFS: dict[int, Any] = {}
#: Loops already switched into debug mode (guards double-install).
_WATCHED_LOOPS: "set[int]" = set()
_WATCH_HANDLER: Union[logging.Handler, None] = None


def reset() -> None:
    """Clear accumulated reports and ownership state (test isolation)."""
    _REPORTS.clear()
    _RNG_OWNERS.clear()
    _RNG_REFS.clear()


def reports() -> list[str]:
    """Accumulated violation messages (copy)."""
    return list(_REPORTS)


def report_count() -> int:
    return len(_REPORTS)


def _violate(message: str) -> None:
    _REPORTS.append(message)
    raise SanitizeError(message)


# ----------------------------------------------------------------------
# RNG ownership (dynamic R009)
# ----------------------------------------------------------------------
def track_rng(rng: np.random.Generator, owner: str) -> None:
    """Claim ``rng`` for ``owner``; a conflicting claim raises.

    Owners are logical consumers ("tick-engine", "stress-worker-3",
    "node-jitter"). Re-claiming by the same owner in the same process
    is idempotent; a *different* owner on the same underlying
    ``BitGenerator`` means two concurrent consumers share one stream
    cursor.
    """
    if not enabled():
        return
    key = id(rng.bit_generator)
    pid = os.getpid()
    prior = _RNG_OWNERS.get(key)
    if prior is not None and prior != (owner, pid) and prior[1] == pid:
        _violate(
            f"rng-aliasing: generator claimed by {owner!r} is already "
            f"owned by {prior[0]!r} — one stream, two concurrent "
            "consumers"
        )
    _RNG_OWNERS[key] = (owner, pid)
    _RNG_REFS[key] = rng.bit_generator


# ----------------------------------------------------------------------
# asyncio blocked-loop watch (dynamic R007)
# ----------------------------------------------------------------------
class _AsyncioWatchHandler(logging.Handler):
    """Captures asyncio debug-mode slow-callback complaints."""

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        if "Executing" in message and "took" in message:
            _REPORTS.append(f"blocked-event-loop: {message}")


def install_asyncio_watch(loop: Any, slow_callback_s: float = 0.5) -> None:
    """Enable asyncio debug mode on ``loop`` and record slow callbacks.

    Debug mode makes the loop time every callback and log a warning
    when one exceeds ``slow_callback_duration`` — exactly the blocking
    R007 hunts statically.  The warnings land in :func:`reports` (they
    cannot raise: the loop swallows handler exceptions), and the smoke
    scripts fail on a non-empty report list.  Idempotent per loop.
    """
    global _WATCH_HANDLER
    if not enabled():
        return
    if id(loop) in _WATCHED_LOOPS:
        return
    loop.set_debug(True)
    loop.slow_callback_duration = slow_callback_s
    _WATCHED_LOOPS.add(id(loop))
    if _WATCH_HANDLER is None:
        _WATCH_HANDLER = _AsyncioWatchHandler(level=logging.WARNING)
        logging.getLogger("asyncio").addHandler(_WATCH_HANDLER)
