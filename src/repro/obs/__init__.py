"""Observability layer: tracing, per-phase profiling, run metrics.

Everything in this package is *default-off* and side-channel only: a
:class:`~repro.sim.engine.TickEngine` run produces bit-identical seeded
results whether or not a trace sink or profiler is attached.  Timings
and event streams live next to the results (trace files, manifest
metadata), never inside them — the fingerprint tests pin this.

Modules
-------
``serialize``
    ``jsonable()`` — recursive numpy-safe coercion to JSON-encodable
    values, shared by trace export and the viz layer.
``trace``
    :class:`TraceEvent` / :class:`TraceRecorder` (in-memory, for tests
    and small runs) and :class:`JsonlTraceSink` (streaming file-backed
    sink with bounded memory and kind/tick filters).
``profile``
    :class:`PhaseProfiler` — wall-clock accounting per engine phase
    (strategy / churn / arrivals / consumption / measurement) with an
    injectable clock.
``metrics``
    :class:`MetricsRegistry` — a counters/gauges registry unifying
    engine counters, the fabric broker's trial outcomes, and profiler
    timings for the run manifest; ``result_fingerprint()`` for bit-identity checks.
"""

from repro.obs.metrics import (
    MetricsRegistry,
    collect_run_metrics,
    result_fingerprint,
)
from repro.obs.profile import PhaseProfiler
from repro.obs.serialize import jsonable
from repro.obs.trace import (
    JsonlTraceSink,
    TraceEvent,
    TraceRecorder,
    TraceSink,
    read_trace_jsonl,
)

__all__ = [
    "JsonlTraceSink",
    "MetricsRegistry",
    "PhaseProfiler",
    "TraceEvent",
    "TraceRecorder",
    "TraceSink",
    "collect_run_metrics",
    "jsonable",
    "read_trace_jsonl",
    "result_fingerprint",
]
