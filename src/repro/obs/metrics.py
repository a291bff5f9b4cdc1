"""Counters/gauges registry unifying a run's accounting.

A run's accounting comes from two pockets: the engine's ``counters``
dict (sybils created, churn joins/leaves, crashes, tasks lost...), and
the fabric broker's trial outcomes (done/cached/failed, retries,
truncated or lossy trials, fresh-run milliseconds).  Phase timings
ride along when a profiler ran.  :class:`MetricsRegistry` gives them
one namespaced home so the run manifest can carry a single ``metrics``
block.

Conventions:

* **counters** are monotonically accumulated integers, **gauges** are
  point-in-time floats (timings, averages).
* names are dotted: ``sim.*`` for engine counters, ``fabric.*`` for
  trial outcomes (booked by :class:`~repro.fabric.broker.Broker`),
  ``profile.*`` for phase timings.
* ``as_dict()`` sorts keys, so serialized output is deterministic.

Nothing here feeds back into simulation state; the registry is written
after results exist.  ``result_fingerprint`` is the bit-identity probe
used by the fingerprint tests and the smoke table (``make smoke``).
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:  # avoid an import cycle at runtime
    from repro.obs.profile import PhaseProfiler
    from repro.sim.results import SimulationResult

__all__ = ["MetricsRegistry", "collect_run_metrics", "result_fingerprint"]


class MetricsRegistry:
    """Flat, namespaced counters and gauges with deterministic export."""

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}

    # ------------------------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + int(amount)

    def gauge(self, name: str, value: float) -> None:
        self._gauges[name] = float(value)

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    # ------------------------------------------------------------------
    def merge_counters(
        self, mapping: Mapping[str, Any], *, prefix: str = ""
    ) -> None:
        for key, value in mapping.items():
            self.inc(f"{prefix}{key}", int(value))

    def merge_gauges(
        self, mapping: Mapping[str, Any], *, prefix: str = ""
    ) -> None:
        for key, value in mapping.items():
            self.gauge(f"{prefix}{key}", float(value))

    def merge(self, other: "MetricsRegistry") -> None:
        """Add ``other``'s counters to these; its gauges overwrite."""
        self.merge_counters(other._counters)
        self.merge_gauges(other._gauges)

    # ------------------------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        """``{"counters": {...}, "gauges": {...}}`` with sorted keys."""
        return {
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
        }

    def summary_line(self) -> str:
        n = len(self._counters) + len(self._gauges)
        if not n:
            return "metrics: empty"
        return (
            f"metrics: {len(self._counters)} counters, "
            f"{len(self._gauges)} gauges"
        )


def collect_run_metrics(
    *,
    engine_counters: Mapping[str, int] | None = None,
    profiler: "PhaseProfiler | None" = None,
    fabric: "MetricsRegistry | None" = None,
) -> MetricsRegistry:
    """Fold the run's accounting sources into one registry.

    Engine counters land under ``sim.`` and profiler phase times under
    ``profile.`` (``*_calls`` counters, ``*_seconds`` gauges).  A fabric
    broker's registry (already ``fabric.``-namespaced trial outcome
    counters) merges verbatim.  Every source is optional — pass what
    the run actually had.
    """
    registry = MetricsRegistry()
    if engine_counters is not None:
        registry.merge_counters(engine_counters, prefix="sim.")
    if fabric is not None:
        registry.merge(fabric)
    if profiler is not None:
        for name, seconds in profiler.seconds.items():
            registry.gauge(f"profile.{name}_seconds", seconds)
            registry.inc(f"profile.{name}_calls", profiler.calls.get(name, 0))
        registry.gauge("profile.total_seconds", profiler.total_seconds())
    return registry


def result_fingerprint(result: "SimulationResult") -> str:
    """16-hex-char digest of the whole canonical result.

    The canonical bit-identity probe: two runs are "the same result"
    iff their fingerprints match.  It covers everything a run measured
    — ticks, totals, counters, time series, snapshots, final loads,
    termination and the adversary summary — but not the config, so a
    run and its cache-loaded copy (a ``result_to_dict`` →
    ``result_from_dict`` round trip) digest identically.  A completed
    run's final loads are all zeros, so a loads-only digest cannot tell
    completed runs apart.
    """
    from repro.obs.serialize import jsonable
    from repro.sim.persistence import result_to_dict

    doc = result_to_dict(result, include_final_loads=True)
    del doc["format"], doc["config"]
    canonical = json.dumps(
        jsonable(doc), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]
