"""Observer-overhead guard: the no-observer tick path is bookkeeping-free.

The hot-path contract: when no trace sink and no profiler are attached
(``profiler=None``, the default), ``step()`` must not touch
observability machinery at all — no ``_emit`` calls (each builds a
kwargs dict), no profiler phase entered, and zero allocations
attributable to the ``repro/obs`` layer.  The tracemalloc check is the
micro-benchmark form of the assertion: it counts observability
allocations per tick and demands exactly none.
"""

import tracemalloc

import pytest

from repro.config import SimulationConfig
from repro.obs.profile import PhaseProfiler
from repro.obs.trace import TraceRecorder
from repro.sim.engine import TickEngine

CHURNY = SimulationConfig(
    strategy="random_injection",
    n_nodes=50,
    n_tasks=4000,
    churn_rate=0.05,
    max_sybils=4,
    seed=31,
)


def test_no_observer_path_never_calls_emit():
    engine = TickEngine(CHURNY)

    def tripwire(kind, **fields):  # pragma: no cover - must not run
        raise AssertionError(f"_emit({kind!r}) called without a trace sink")

    engine._emit = tripwire
    for _ in range(25):
        engine.step()
    assert engine.tick == 25


def _step_with_phase_tripwire(monkeypatch, engine):
    def tripwire(self, name):  # pragma: no cover - must not run
        raise AssertionError(f"profiler phase {name!r} entered unprofiled")

    monkeypatch.setattr(PhaseProfiler, "phase", tripwire)
    for _ in range(10):
        engine.step()
    assert engine.tick == 10


def test_no_observer_path_never_enters_profiler_contexts(monkeypatch):
    _step_with_phase_tripwire(monkeypatch, TickEngine(CHURNY))


def test_traced_unprofiled_path_never_enters_profiler_contexts(monkeypatch):
    """A trace sink alone times nothing: no profiler, no phase."""
    engine = TickEngine(CHURNY, trace=TraceRecorder())
    _step_with_phase_tripwire(monkeypatch, engine)
    assert len(engine.trace) > 0


def test_observed_path_still_profiles_and_traces():
    """The guard must not silently disable real observers."""
    trace = TraceRecorder()
    profiler = PhaseProfiler()
    engine = TickEngine(CHURNY, trace=trace, profiler=profiler)
    for _ in range(25):
        engine.step()
    breakdown = profiler.as_dict()["phases"]
    assert breakdown["consumption"]["calls"] == 25
    assert len(trace) > 0  # churn at 5%/tick emits within 25 ticks


def test_no_observer_tick_allocates_nothing_for_observability():
    """Micro-benchmark assertion: zero per-tick obs-layer allocations.

    Snapshot-diffs tracemalloc over 20 unobserved ticks and demands no
    allocation whose stack lands in ``repro/obs`` — dict/list churn for
    events, phase contexts, or profiler rows would show up there.
    """
    engine = TickEngine(CHURNY)
    for _ in range(5):  # warm caches (owner index, loads, groups)
        engine.step()

    tracemalloc.start(10)
    try:
        before = tracemalloc.take_snapshot()
        for _ in range(20):
            engine.step()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()

    obs_filter = tracemalloc.Filter(True, "*repro/obs/*")
    obs_allocs = [
        stat
        for stat in after.filter_traces([obs_filter]).compare_to(
            before.filter_traces([obs_filter]), "lineno"
        )
        if stat.size_diff > 0
    ]
    assert obs_allocs == [], (
        "observability allocations on the no-observer path: "
        + "; ".join(str(s) for s in obs_allocs)
    )


def test_disabled_adversary_allocates_nothing():
    """Same micro-benchmark contract for the adversary plane: with the
    default (disabled) ``AdversaryModel`` no plane is constructed, so
    ticking must produce zero allocations attributable to
    ``repro/sim/adversary``."""
    engine = TickEngine(CHURNY)
    assert engine._adversary is None
    for _ in range(5):  # warm caches (owner index, loads, groups)
        engine.step()

    tracemalloc.start(10)
    try:
        before = tracemalloc.take_snapshot()
        for _ in range(20):
            engine.step()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()

    adv_filter = tracemalloc.Filter(True, "*repro/sim/adversary*")
    adv_allocs = [
        stat
        for stat in after.filter_traces([adv_filter]).compare_to(
            before.filter_traces([adv_filter]), "lineno"
        )
        if stat.size_diff > 0
    ]
    assert adv_allocs == [], (
        "adversary-plane allocations on a disabled-adversary run: "
        + "; ".join(str(s) for s in adv_allocs)
    )


def test_observer_flags_capture_construction_state():
    unobserved = TickEngine(CHURNY)
    assert unobserved._tracing is False
    assert unobserved.profiler is None

    profiler = PhaseProfiler()
    profiled = TickEngine(CHURNY, profiler=profiler)
    assert profiled.profiler is profiler
    assert profiled._tracing is False

    traced = TickEngine(CHURNY, trace=TraceRecorder())
    assert traced.profiler is None
    assert traced._tracing is True


@pytest.mark.parametrize("attach", ["none", "trace", "profiler", "both"])
def test_observed_and_fast_paths_are_bit_identical(attach):
    """Dual step drivers must produce identical seeded trajectories."""
    kwargs = {}
    if attach in ("trace", "both"):
        kwargs["trace"] = TraceRecorder()
    if attach in ("profiler", "both"):
        kwargs["profiler"] = PhaseProfiler()
    result = TickEngine(CHURNY, **kwargs).run()
    baseline = TickEngine(CHURNY).run()
    assert result.runtime_ticks == baseline.runtime_ticks
    assert result.counters == baseline.counters
