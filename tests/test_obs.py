"""The observability layer: trace sinks, profiler, metrics registry.

Two properties anchor everything here:

* **round trip** — what a sink writes, ``read_trace_jsonl`` reads back
  as the identical event stream;
* **non-interference** — attaching a trace sink and a profiler to an
  engine leaves the seeded result bit-identical to an unobserved run.
"""

import json

import numpy as np
import pytest

import repro.obs.profile as obs_profile
from repro.cli import main
from repro.config import AdversaryModel, SimulationConfig
from repro.obs import (
    JsonlTraceSink,
    MetricsRegistry,
    PhaseProfiler,
    TraceRecorder,
    collect_run_metrics,
    jsonable,
    read_trace_jsonl,
    result_fingerprint,
)
from repro.sim.engine import TickEngine
from repro.sim.persistence import result_from_dict, result_to_dict
from repro.sim.trials import run_trial


class FakeClock:
    """Deterministic perf_counter stand-in: +0.25s per call."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 0.25
        return self.now


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------
class TestJsonable:
    def test_numpy_scalars_and_arrays(self):
        out = jsonable(
            {
                "i": np.int64(7),
                "f": np.float64(0.5),
                "b": np.bool_(True),
                "a": np.arange(3),
                "nested": [np.uint64(2), (np.int32(1),)],
            }
        )
        assert out == {
            "i": 7,
            "f": 0.5,
            "b": True,
            "a": [0, 1, 2],
            "nested": [2, [1]],
        }
        json.dumps(out)  # must not raise

    def test_unknown_objects_degrade_to_repr(self):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        assert jsonable({"x": Opaque()}) == {"x": "<opaque>"}


class TestRecorderJsonl:
    def test_to_jsonl_handles_numpy_scalar_fields(self):
        # regression: emitters pass np.int64 owners; this used to raise
        # TypeError("Object of type int64 is not JSON serializable")
        rec = TraceRecorder()
        rec.record(1, "sybil_created", owner=np.int64(3), acquired=np.int64(9))
        lines = rec.to_jsonl().splitlines()
        assert json.loads(lines[0]) == {
            "tick": 1,
            "kind": "sybil_created",
            "owner": 3,
            "acquired": 9,
        }


# ----------------------------------------------------------------------
# streaming sink
# ----------------------------------------------------------------------
class TestJsonlTraceSink:
    def test_round_trip_identical_events(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path, buffer_events=3) as sink:
            sink.record(1, "a", x=1)
            sink.record(2, "b", y=np.int64(2))
            sink.record(3, "a", z=[1, 2])
        events = list(read_trace_jsonl(path))
        assert [e.as_dict() for e in events] == [
            {"tick": 1, "kind": "a", "x": 1},
            {"tick": 2, "kind": "b", "y": 2},
            {"tick": 3, "kind": "a", "z": [1, 2]},
        ]
        assert sink.n_written == 3
        assert sink.by_kind == {"a": 2, "b": 1}

    def test_matches_in_memory_recorder_for_a_real_run(self, tmp_path):
        config = SimulationConfig(
            strategy="invitation", n_nodes=50, n_tasks=1500,
            churn_rate=0.02, seed=3,
        )
        recorder = TraceRecorder()
        TickEngine(config, trace=recorder).run()
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path) as sink:
            TickEngine(config, trace=sink).run()
        streamed = [e.as_dict() for e in read_trace_jsonl(path)]
        in_memory = [jsonable(e.as_dict()) for e in recorder]
        assert streamed == in_memory

    def test_kind_filter(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path, kinds=["keep"]) as sink:
            sink.record(1, "keep", a=1)
            sink.record(1, "drop", a=2)
        assert [e.kind for e in read_trace_jsonl(path)] == ["keep"]
        assert sink.n_written == 1

    def test_tick_window_filter(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path, tick_range=(2, 3)) as sink:
            for tick in (1, 2, 3, 4):
                sink.record(tick, "e")
        assert [e.tick for e in read_trace_jsonl(path)] == [2, 3]

    def test_memory_is_bounded_by_buffer(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path, buffer_events=8) as sink:
            for tick in range(1000):
                sink.record(tick, "e", n=tick)
                assert len(sink._buffer) < 8
        assert sum(1 for _ in read_trace_jsonl(path)) == 1000

    def test_record_after_close_raises(self, tmp_path):
        sink = JsonlTraceSink(tmp_path / "t.jsonl")
        sink.close()
        assert sink.closed
        with pytest.raises(ValueError, match="closed"):
            sink.record(1, "e")

    def test_rejects_silly_buffer(self, tmp_path):
        with pytest.raises(ValueError, match="buffer_events"):
            JsonlTraceSink(tmp_path / "t.jsonl", buffer_events=0)


# ----------------------------------------------------------------------
# profiler
# ----------------------------------------------------------------------
class TestPhaseProfiler:
    def test_accumulates_per_phase(self):
        prof = PhaseProfiler(clock=FakeClock())
        with prof.phase("churn"):
            pass
        with prof.phase("churn"):
            pass
        with prof.phase("consumption"):
            pass
        assert prof.calls == {"churn": 2, "consumption": 1}
        # each phase entry spans exactly one clock step of 0.25s
        assert prof.seconds["churn"] == pytest.approx(0.5)
        assert prof.total_seconds() == pytest.approx(0.75)

    def test_as_dict_orders_engine_phases_first(self):
        prof = PhaseProfiler(clock=FakeClock())
        for name in ("zeta_custom", "measurement", "strategy"):
            with prof.phase(name):
                pass
        assert list(prof.as_dict()["phases"]) == [
            "strategy", "measurement", "zeta_custom",
        ]

    def test_sub_phases_are_not_counted_twice(self):
        prof = PhaseProfiler(clock=FakeClock())
        with prof.phase("churn"):
            with prof.phase("churn.depart"):
                pass
        with prof.phase("consumption"):
            pass
        assert prof.seconds == {
            "churn": pytest.approx(0.75), "consumption": pytest.approx(0.25),
        }
        assert prof.sub_seconds == {"churn.depart": pytest.approx(0.25)}
        assert prof.total_seconds() == pytest.approx(1.0)
        phases = prof.as_dict()["phases"]
        assert list(phases) == ["churn", "consumption"]
        assert phases["churn"]["sub"] == {
            "churn.depart": {"calls": 1, "seconds": pytest.approx(0.25)}
        }
        assert "sub" not in phases["consumption"]
        assert prof.as_dict()["total_seconds"] == pytest.approx(1.0)
        assert "churn.depart=0.2500s (25.0%)" in prof.summary_line()

    def test_engine_times_churn_sub_phases(self):
        prof = PhaseProfiler()
        config = SimulationConfig(
            strategy="churn", n_nodes=60, n_tasks=3000, churn_rate=0.05,
            seed=3,
        )
        TickEngine(config, profiler=prof).run()
        churn = {"churn.depart", "churn.join", "churn.commit"}
        # the strategy round's sub-phases run too (the churn strategy
        # decides nothing, but its rounds are still timed)
        assert set(prof.sub_calls) == churn | {
            "strategy.decide", "strategy.commit",
        }
        # every churn sub-phase runs inside a churn phase entry
        assert all(prof.sub_calls[p] <= prof.calls["churn"] for p in churn)
        assert sum(prof.sub_seconds[p] for p in churn) <= prof.seconds["churn"]

    def test_engine_times_strategy_sub_phases(self):
        prof = PhaseProfiler()
        config = SimulationConfig(
            strategy="neighbor_injection", n_nodes=60, n_tasks=3000, seed=3,
        )
        TickEngine(config, profiler=prof).run()
        assert set(prof.sub_calls) == {"strategy.decide", "strategy.commit"}
        # one decide and one commit inside every strategy round
        rounds = prof.calls["strategy"]
        assert rounds > 0
        assert prof.sub_calls["strategy.decide"] == rounds
        assert prof.sub_calls["strategy.commit"] == rounds
        assert sum(prof.sub_seconds.values()) <= prof.seconds["strategy"]
        sub = prof.as_dict()["phases"]["strategy"]["sub"]
        assert list(sub) == ["strategy.commit", "strategy.decide"]

    def test_engine_records_every_phase(self):
        prof = PhaseProfiler()
        config = SimulationConfig(
            strategy="invitation", n_nodes=40, n_tasks=800,
            churn_rate=0.02, arrival_rate=5.0, arrival_until=10, seed=1,
        )
        TickEngine(config, profiler=prof).run()
        assert set(prof.calls) == {
            "strategy", "churn", "arrivals", "consumption", "measurement",
        }

    def test_json_is_byte_stable_for_a_fixed_clock(self):
        def run_once() -> str:
            prof = PhaseProfiler(clock=FakeClock())
            config = SimulationConfig(
                strategy="invitation", n_nodes=40, n_tasks=800,
                churn_rate=0.02, seed=1,
            )
            run_trial(config, profiler=prof)
            return json.dumps(prof.as_dict(), sort_keys=True)

        assert run_once() == run_once()


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_and_gauges_sorted(self):
        reg = MetricsRegistry()
        reg.inc("b.two", 2)
        reg.inc("a.one")
        reg.inc("a.one", 4)
        reg.gauge("z.last", 1.5)
        assert reg.as_dict() == {
            "counters": {"a.one": 5, "b.two": 2},
            "gauges": {"z.last": 1.5},
        }

    def test_collect_unifies_all_sources(self):
        prof = PhaseProfiler(clock=FakeClock())
        with prof.phase("churn"):
            pass
        fabric = MetricsRegistry()
        fabric.inc("fabric.done", 3)
        fabric.inc("fabric.cached", 1)
        fabric.inc("fabric.run_ms", 1200)
        fabric.gauge("fabric.queued", 0.0)
        reg = collect_run_metrics(
            engine_counters={"churn_joins": 7, "decision_rounds": 4},
            profiler=prof,
            fabric=fabric,
        )
        data = reg.as_dict()
        assert data["counters"]["sim.churn_joins"] == 7
        assert data["counters"]["fabric.done"] == 3
        assert data["counters"]["fabric.cached"] == 1
        assert data["counters"]["profile.churn_calls"] == 1
        assert data["counters"]["fabric.run_ms"] == 1200
        assert data["gauges"]["fabric.queued"] == 0.0
        assert data["gauges"]["profile.churn_seconds"] == pytest.approx(0.25)
        assert "profile.total_seconds" in data["gauges"]

    def test_collect_skips_disabled_profiler(self):
        reg = collect_run_metrics(profiler=None)
        assert reg.as_dict() == {"counters": {}, "gauges": {}}


# ----------------------------------------------------------------------
# non-interference: observability never changes results
# ----------------------------------------------------------------------
class TestBitIdentity:
    def test_traced_and_profiled_run_matches_plain(self, tmp_path):
        config = SimulationConfig(
            strategy="invitation", n_nodes=60, n_tasks=2000,
            churn_rate=0.02, seed=11,
        )
        plain = run_trial(config)
        with JsonlTraceSink(tmp_path / "t.jsonl") as sink:
            observed = run_trial(
                config, trace=sink, profiler=PhaseProfiler()
            )
        assert result_fingerprint(observed) == result_fingerprint(plain)
        np.testing.assert_array_equal(
            observed.final_loads, plain.final_loads
        )
        assert observed.runtime_ticks == plain.runtime_ticks
        assert observed.counters == plain.counters


# ----------------------------------------------------------------------
# CLI subcommands
# ----------------------------------------------------------------------
SIM_ARGS = [
    "--strategy", "invitation", "--nodes", "50", "--tasks", "1200",
    "--churn", "0.02", "--seed", "5",
]


class TestResultFingerprint:
    def test_completed_runs_of_different_seeds_differ(self):
        """Completed runs all end with zero final loads; the digest must
        still tell them apart."""
        prints = {
            result_fingerprint(TickEngine(SimulationConfig(
                strategy=strategy, n_nodes=100, n_tasks=5000, seed=seed,
            )).run())
            for strategy, seed in (
                ("random_injection", 3),
                ("random_injection", 4),
                ("neighbor_injection", 3),
            )
        }
        assert len(prints) == 3

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(collect_timeseries=True, snapshot_ticks=(0, 5, 10)),
            dict(
                churn_rate=0.02,
                adversary=AdversaryModel(
                    eclipse_sybils=6, attack_tick=3, detection_interval=5
                ),
            ),
            dict(max_ticks=20),  # truncated: nonzero final loads
        ],
        ids=["series-snapshots", "adversary", "truncated"],
    )
    def test_survives_persistence_round_trip(self, overrides):
        """A cache-loaded result fingerprints like the fresh one."""
        config = SimulationConfig(
            strategy="invitation", n_nodes=60, n_tasks=3000, seed=2,
            **overrides,
        )
        fresh = TickEngine(config).run()
        doc = json.loads(
            json.dumps(result_to_dict(fresh, include_final_loads=True))
        )
        assert result_fingerprint(result_from_dict(doc)) == (
            result_fingerprint(fresh)
        )

    def test_sees_counters_and_series(self):
        result = TickEngine(SimulationConfig(
            n_nodes=30, n_tasks=600, collect_timeseries=True, seed=1,
        )).run()
        base = result_fingerprint(result)
        result.counters["decision_rounds"] += 1
        assert result_fingerprint(result) != base


class TestTraceCommand:
    def test_writes_parseable_jsonl_and_json_summary(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        code = main(["trace", *SIM_ARGS, "--out", str(out), "--json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        events = list(read_trace_jsonl(out))
        assert summary["events_written"] == len(events)
        assert sum(summary["events_by_kind"].values()) == len(events)
        assert len(summary["fingerprint"]) == 16

    def test_json_summary_is_deterministic(self, tmp_path, capsys):
        outputs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            assert main(["trace", *SIM_ARGS, "--out", str(out), "--json"]) == 0
            outputs.append(
                capsys.readouterr().out.replace(str(out), "OUT")
            )
        assert outputs[0] == outputs[1]

    def test_kind_filter_flag(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        code = main(
            ["trace", *SIM_ARGS, "--out", str(out),
             "--kinds", "churn_leave", "--json"]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert set(summary["events_by_kind"]) <= {"churn_leave"}
        assert all(e.kind == "churn_leave" for e in read_trace_jsonl(out))

    def test_bad_tick_window_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                ["trace", *SIM_ARGS, "--out", str(tmp_path / "t.jsonl"),
                 "--ticks", "nonsense"]
            )


class TestProfileCommandJson:
    def test_json_has_phases_and_convergence(self, capsys):
        code = main(["profile", *SIM_ARGS, "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "utilization_auc" in payload["convergence"]
        phases = payload["profile"]["phases"]
        assert {"strategy", "churn", "consumption", "measurement"} <= set(
            phases
        )
        assert all(p["calls"] > 0 for p in phases.values())

    def test_json_is_byte_stable_with_fixed_clock(self, capsys, monkeypatch):
        # the profiler reads the module clock at construction time, so
        # patching it makes the timings (and hence the bytes) repeat
        monkeypatch.setattr(
            obs_profile.time, "perf_counter", FakeClock()
        )
        outputs = []
        for _ in range(2):
            assert main(["profile", *SIM_ARGS, "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_text_output_includes_phase_table(self, capsys):
        assert main(["profile", *SIM_ARGS]) == 0
        out = capsys.readouterr().out
        assert "per-phase wall clock" in out
        assert "consumption" in out
