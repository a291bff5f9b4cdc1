"""Per-phase wall-clock profiling for the tick loop.

The engine's ``step()`` decomposes into five phases — strategy round,
churn, arrivals, consumption, measurement — and perf work needs to know
which of them the time goes to.  :class:`PhaseProfiler` wraps each
phase in a context manager and accumulates call counts and seconds per
phase name.  A dotted name (``churn.depart``) is a *sub-phase* timed
inside its parent phase (``churn``): it is kept apart from the phases,
so totals and shares never count its time twice.

Two determinism rules shape the design:

* The clock is injectable.  Production use reads ``time.perf_counter``
  (the one sanctioned wall-clock side channel, see the reprolint
  suppression below); tests inject a fake counter so ``--json`` output
  is byte-stable.
* Timings never touch simulation state or results.  A profiler is an
  observer: attaching one must leave seeded runs bit-identical, which
  the ``obs-trace`` row of ``make smoke`` enforces.

:class:`~repro.sim.engine.TickEngine` takes ``profiler=None`` by
default and then times nothing: an unprofiled tick calls its phases
directly and enters no context at all.  Any object with a
``phase(name)`` context manager can stand in for a profiler.
"""

from __future__ import annotations

import time
from typing import Any, Callable

__all__ = ["PhaseProfiler", "PHASES"]

# the engine's phase names, in execution order
PHASES = ("strategy", "churn", "arrivals", "consumption", "measurement")


class _PhaseTimer:
    """Context manager accounting one phase entry on exit."""

    __slots__ = ("_profiler", "_name", "_t0")

    def __init__(self, profiler: "PhaseProfiler", name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._t0 = 0.0

    def __enter__(self) -> None:
        self._t0 = self._profiler._clock()

    def __exit__(self, *exc: object) -> bool:
        profiler = self._profiler
        elapsed = profiler._clock() - self._t0
        name = self._name
        if "." in name:
            seconds, calls = profiler.sub_seconds, profiler.sub_calls
        else:
            seconds, calls = profiler.seconds, profiler.calls
        seconds[name] = seconds.get(name, 0.0) + elapsed
        calls[name] = calls.get(name, 0) + 1
        return False


class PhaseProfiler:
    """Accumulates wall-clock seconds and call counts per phase name.

    ``clock`` defaults to ``time.perf_counter``; inject a deterministic
    counter for byte-stable test output.
    """

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        if clock is None:
            # the sanctioned wall-clock side channel: timings are
            # observability metadata, never simulation state
            clock = time.perf_counter  # reprolint: disable=R002 (phase timing side channel)
        self._clock = clock
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        #: sub-phases (``parent.child`` names), timed inside their parent
        self.sub_seconds: dict[str, float] = {}
        self.sub_calls: dict[str, int] = {}

    # ------------------------------------------------------------------
    def phase(self, name: str) -> _PhaseTimer:
        """Context manager timing one entry of ``name``."""
        return _PhaseTimer(self, name)

    # ------------------------------------------------------------------
    def total_seconds(self) -> float:
        """Wall clock across the phases; sub-phases are inside them."""
        return sum(self.seconds.values())

    def as_dict(self) -> dict[str, Any]:
        """Deterministically ordered phase breakdown.

        Known engine phases come first in execution order, then any
        custom phase names sorted — so equal timings always serialize
        to identical JSON.  A phase with sub-phases carries them, sorted,
        under ``"sub"``; they are not phases of their own.
        """
        order = [p for p in PHASES if p in self.seconds]
        order += sorted(k for k in self.seconds if k not in PHASES)
        phases: dict[str, Any] = {}
        for name in order:
            entry: dict[str, Any] = {
                "calls": self.calls.get(name, 0),
                "seconds": self.seconds[name],
            }
            sub = self._sub_phases(name)
            if sub:
                entry["sub"] = {
                    child: {
                        "calls": self.sub_calls[child],
                        "seconds": self.sub_seconds[child],
                    }
                    for child in sub
                }
            phases[name] = entry
        return {"phases": phases, "total_seconds": self.total_seconds()}

    def _sub_phases(self, parent: str) -> list[str]:
        prefix = parent + "."
        return sorted(k for k in self.sub_seconds if k.startswith(prefix))

    def summary_line(self) -> str:
        if not self.seconds:
            return "profile: no phases recorded"
        total = self.total_seconds()
        parts = []
        for name in self.as_dict()["phases"]:
            for part in (name, *self._sub_phases(name)):
                sec = self.seconds.get(part, self.sub_seconds.get(part, 0.0))
                share = 100.0 * sec / total if total > 0 else 0.0
                parts.append(f"{part}={sec:.4f}s ({share:.1f}%)")
        return f"profile: {total:.4f}s total; " + ", ".join(parts)
