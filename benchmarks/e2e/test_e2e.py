"""Tests for the end-to-end benchmark.

Run explicitly (they are outside the tier-1 ``testpaths``)::

    PYTHONPATH=src python -m pytest benchmarks/e2e

Every workload goes through the real runner at a tiny size.
"""

from __future__ import annotations

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

TINY = {
    "sybil_trials": {"n_nodes": 100, "n_tasks": 5000, "check_factors": False},
    "churn_trials": {"n_nodes": 100, "n_tasks": 20000, "check_factors": False},
    "fabric_sweep": {
        "n_nodes": 50, "n_tasks": 2000, "thresholds": 2, "n_trials": 6,
        "cold_passes": 1, "warm_passes": 2, "rerun_samples": 2, "window": 4,
    },
    "live_ring": {
        "nodes": 2, "sentinels": 8, "rtt_probes": 12, "rings": 2,
        "stress_s": 1.0,
    },
}


def _load(name: str):
    """Import a benchmark module by path (``trace`` shadows a stdlib name)."""
    spec = importlib.util.spec_from_file_location(f"e2e_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(workload: str, *extra: str, spec: dict = TINY):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload,
         "--spec", json.dumps(spec), *extra],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_schema():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
        assert m["better"] in ("higher", "lower")
    for m in BENCH["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    gated = [w["name"] for w in BENCH["workloads"]]
    assert gated and set(gated) <= set(_load("run").WORKLOADS)


@pytest.mark.parametrize("workload", list(TINY))
def test_tiny_workload_reports_every_metric(workload, tmp_path):
    proc, result = run(workload, "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    for m in BENCH["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0, m["name"]
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    # an untraced run installs nothing and records no span
    (run_json,) = tmp_path.glob("*.json")
    assert json.loads(run_json.read_text())["spans_recorded"] == 0
    assert not list(tmp_path.glob("*.spans.jsonl"))


@pytest.mark.parametrize("workload", list(TINY))
def test_traced_spans_are_consistent(workload, tmp_path):
    proc, result = run(workload, "--trace", "1", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    for m in BENCH["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    (spans_file,) = tmp_path.glob("*.spans.jsonl")
    spans = [json.loads(line) for line in spans_file.read_text().splitlines()]
    assert spans
    ids = {s["span"] for s in spans}
    for s in spans:
        assert 0 <= s["self"] <= s["end"] - s["start"] + 1e-9, s
        assert s["parent"] is None or s["parent"] in ids
    assert result["metrics"]["obs.trace_overhead_ratio"]["value"] > 0


def test_incomplete_trial_counts_as_failed_op():
    spec = {"sybil_trials": dict(TINY["sybil_trials"], config={"max_ticks": 3})}
    proc, result = run("sybil_trials", spec=spec)
    assert proc.returncode != 0
    assert not result["correct"]
    assert result["failed"] >= 1
    assert "incomplete" in proc.stderr


def test_crashed_child_still_reports(tmp_path):
    spec = {"sybil_trials": dict(TINY["sybil_trials"],
                                 strategies=["no_such_strategy"])}
    proc, result = run("sybil_trials", spec=spec)
    assert proc.returncode != 0
    assert not result["correct"]
    assert result["attempted"] == 1 and result["failed"] == 1
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}


def test_seconds_sets_the_seed_count():
    # four configs; 42 s at the nominal 7 s a seed is six seeds, and a
    # shorter run keeps the spec's four, however fast the trials are
    for seconds, trials in (("42", 24), ("1", 16)):
        proc, result = run("sybil_trials", "--seconds", seconds)
        assert proc.returncode == 0, proc.stderr
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == trials


def test_same_seed_same_work():
    first = run("sybil_trials")[0].stdout
    second = run("sybil_trials")[0].stdout
    digest = [line for line in first.splitlines() if " fingerprint " in line]
    assert digest and digest == [
        line for line in second.splitlines() if " fingerprint " in line
    ]


def test_runner_refuses_a_tree_without_sources(tmp_path):
    bare = tmp_path / "checkout"
    shutil.copytree(HERE, bare / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "sybil_trials",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_children():
    trace = _load("trace")
    now = [0.0]
    rec = trace.SpanRecorder(clock=lambda: now[0])
    rec.enter("outer")
    now[0] = 1.0
    rec.enter("inner", keep=False)
    now[0] = 3.0
    rec.exit()
    rec.enter("kept")
    now[0] = 4.0
    rec.exit()
    now[0] = 10.0
    rec.exit()
    assert rec.total_s("outer") == 10.0
    assert rec.self_s("outer") == 7.0
    assert rec.total_s("inner") == 2.0
    spans = {s["name"]: s for s in rec.span_dicts()}
    assert set(spans) == {"outer", "kept"}
    assert spans["kept"]["parent"] == spans["outer"]["span"]
    assert spans["outer"]["self"] == 7.0


def _write_runs(directory: Path, values: list[float], t0: int, step: int = 2):
    directory.mkdir()
    for i, v in enumerate(values):
        stem = f"sybil_trials-seed{i}-trace0-{t0 + step * i}"
        metrics = {m["name"]: 1.0 for m in BENCH["end_to_end"]}
        metrics["norm_throughput_per_s"] = v
        (directory / f"{stem}.json").write_text(json.dumps(
            {"workload": "sybil_trials", "trace": 0, "stem": stem,
             "metrics": metrics}
        ))


def test_compare_rules(tmp_path):
    compare = _load("compare")
    base = [100.0 + (i % 3) for i in range(10)]
    _write_runs(tmp_path / "a", base, 0)
    _write_runs(tmp_path / "same", [101.0] * 10, 1)
    rows = dict(
        (r["metric"], r)
        for _, r in compare.compare(tmp_path / "a", tmp_path / "same", True, BENCH)
    )
    assert all(r["verdict"] == "agree" for r in rows.values())

    # alternating pairs: the change runs first in every other pair
    def alternating(name: str, value: float) -> dict:
        directory = tmp_path / name
        directory.mkdir()
        for i in range(10):
            t = 2 * i + (1 if i % 2 == 0 else -1)
            stem = f"sybil_trials-seed{i}-trace0-{t}"
            metrics = {m["name"]: 1.0 for m in BENCH["end_to_end"]}
            metrics["norm_throughput_per_s"] = value
            (directory / f"{stem}.json").write_text(json.dumps(
                {"workload": "sybil_trials", "trace": 0, "stem": stem,
                 "metrics": metrics}
            ))
        return dict(
            (r["metric"], r)
            for _, r in compare.compare(tmp_path / "a", directory, False, BENCH)
        )

    rows = alternating("fast", 120.0)
    assert rows["norm_throughput_per_s"]["verdict"] == "improved"
    assert rows["setup_s"]["verdict"] == "unchanged"
    # a consistent slowdown inside the bound still loses every pair
    bound = next(m["bound"] for m in BENCH["end_to_end"]
                 if m["name"] == "norm_throughput_per_s")
    rows = alternating("slower", 101.0 * (1 - bound / 2))
    assert rows["norm_throughput_per_s"]["verdict"] == "REGRESSED"

    _write_runs(tmp_path / "slow", [50.0] * 10, 1)
    rows = dict(
        (r["metric"], r)
        for _, r in compare.compare(tmp_path / "a", tmp_path / "slow", False, BENCH)
    )
    assert rows["norm_throughput_per_s"]["verdict"] == "REGRESSED"
