"""Tests for the structured event trace."""

import hashlib
import json

import pytest

from repro.config import SimulationConfig
from repro.obs.trace import TraceRecorder
from repro.sim.engine import TickEngine


def test_sim_tracing_shim_removed():
    """The deprecated ``repro.sim.tracing`` shim is gone for good —
    importing it must fail so stale call sites surface loudly rather
    than silently re-growing a compatibility layer."""
    with pytest.raises(ModuleNotFoundError):
        import repro.sim.tracing  # noqa: F401


def traced_run(**overrides):
    overrides.setdefault("n_nodes", 60)
    overrides.setdefault("n_tasks", 3000)
    overrides.setdefault("seed", 2)
    trace = TraceRecorder()
    engine = TickEngine(SimulationConfig(**overrides), trace=trace)
    result = engine.run()
    return trace, engine, result


class TestRecorder:
    def test_record_and_filter(self):
        trace = TraceRecorder()
        trace.record(1, "a", x=1)
        trace.record(2, "b", y=2)
        trace.record(2, "a", x=3)
        assert len(trace) == 3
        assert [e["x"] for e in trace.of_kind("a")] == [1, 3]
        assert len(trace.at_tick(2)) == 2
        assert trace.kinds() == {"a": 2, "b": 1}
        assert trace.first("b")["y"] == 2
        assert trace.first("missing") is None

    def test_jsonl(self):
        trace = TraceRecorder()
        trace.record(7, "evt", value=42)
        lines = trace.to_jsonl().splitlines()
        assert json.loads(lines[0]) == {"tick": 7, "kind": "evt", "value": 42}

    def test_summary(self):
        trace = TraceRecorder()
        assert "no events" in trace.summary()
        trace.record(3, "x")
        assert "1 events" in trace.summary()


class TestEngineEvents:
    def test_sybil_events_match_counters(self):
        trace, _, result = traced_run(strategy="random_injection")
        created = trace.of_kind("sybil_created")
        assert len(created) == result.counters["sybils_created"]
        retired = sum(
            e["count"] for e in trace.of_kind("sybils_retired")
        )
        assert retired == result.counters["sybils_retired"]

    def test_churn_events_match_counters(self):
        trace, _, result = traced_run(
            strategy="churn", churn_rate=0.02
        )
        assert len(trace.of_kind("churn_join")) == result.counters[
            "churn_joins"
        ]
        assert len(trace.of_kind("churn_leave")) == result.counters[
            "churn_leaves"
        ]
        moved = sum(
            e["keys_moved"] for e in trace.of_kind("churn_leave")
        ) + sum(e["acquired"] for e in trace.of_kind("churn_join"))
        assert moved == result.counters["churn_keys_moved"]

    def test_one_sybil_per_owner_per_round(self):
        """Event-level check of the §IV-B one-per-decision rule."""
        trace, engine, _ = traced_run(strategy="random_injection")
        interval = engine.config.decision_interval
        per_round: dict[tuple[int, int], int] = {}
        for event in trace.of_kind("sybil_created"):
            key = (event.tick // interval, event["owner"])
            per_round[key] = per_round.get(key, 0) + 1
        assert per_round and max(per_round.values()) == 1

    def test_acquired_sums_to_tasks_acquired(self):
        trace, _, result = traced_run(strategy="random_injection")
        acquired = sum(
            e["acquired"] for e in trace.of_kind("sybil_created")
        )
        assert acquired == result.counters["tasks_acquired"]

    def test_relocation_events(self):
        trace, _, result = traced_run(strategy="relocation")
        assert len(trace.of_kind("relocation")) == result.counters[
            "relocations"
        ]

    def test_no_trace_by_default(self):
        engine = TickEngine(
            SimulationConfig(n_nodes=20, n_tasks=100, seed=1)
        )
        assert engine.trace is None
        engine.run()  # must not crash without a recorder


#: digest of the churn_join / churn_leave stream of the seeded run in
#: test_churn_trace_stream_is_pinned, taken while joins were still
#: committed one call per joiner; a change to the order of those events
#: or to any of their fields (a join's acquired count included) moves it
CHURN_STREAM_DIGEST = "123aa439e8cedfc9"


def test_churn_trace_stream_is_pinned():
    trace, engine, _ = traced_run(
        strategy="churn", n_nodes=100, n_tasks=20_000, churn_rate=0.05,
        seed=3,
    )
    digest = hashlib.sha256()
    for e in trace:
        if e.kind in ("churn_join", "churn_leave"):
            fields = sorted((k, int(v)) for k, v in e.fields.items())
            digest.update(json.dumps([e.tick, e.kind, fields]).encode())
    assert trace.kinds()["churn_join"] == engine.counters["churn_joins"]
    assert engine.counters["churn_joins"] > 1000
    assert digest.hexdigest()[:16] == CHURN_STREAM_DIGEST
