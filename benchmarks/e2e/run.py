"""End-to-end benchmark runner.

Usage (from the repository root)::

    python benchmarks/e2e/run.py [--workload NAME|all] [--seed N]
        [--seconds S] [--trace [0|1]] [--out DIR]

Each workload runs in a fresh child process (``OMP_NUM_THREADS=1``, the
trial cache off, ``src/`` on the path) that prints one JSON result.
This parent prints every metric by name with its unit, plus ``ops`` and
``ops_failed``, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Untraced runs report the ``end_to_end`` metrics of ``BENCHMARK.json``,
their times scaled to a reference host speed (``workloads.host_scale``),
and print the unscaled ones beside them; ``--trace 1`` runs report its
``per_layer`` metrics.  A metric a workload does not exercise (``net.*``
in a sim workload) reads 0.  The
work of a run is fixed by the workload's spec and seed; an untraced sim
workload also runs as many seeds of its trials as take about
``--seconds`` on the baseline host (``workloads.sim_seeds``), a count
that does not depend on how fast the host is.
``fabric_sweep`` and ``live_ring`` run here but are not listed in
``BENCHMARK.json``: their run-to-run spread on a shared host is wider
than any bound the file may hold (see README.md).

A failed correctness check makes the exit code non-zero; so does a
child that crashes or outlives its timeout, which counts as one failed
operation.  A stress request that errors under load only counts in
``ops_failed``.  With ``--out`` the run's JSON (and a traced run's
spans, as JSONL) are written there for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORKLOADS = ("sybil_trials", "churn_trials", "fabric_sweep", "live_ring")
#: a child that outlives this (seconds, by ``--trace``; an untraced run
#: adds twice ``--seconds``, up to ``MAX_CHILD_S``) is killed and counted
#: as failed; a traced run does its work twice
CHILD_TIMEOUT_S = {0: 60.0, 1: 150.0}
MAX_CHILD_S = 170.0
#: untraced metrics BENCHMARK.json does not list, all unscaled by host
#: speed: printed with their unit, left out of the final JSON line
UNLISTED_UNITS = {
    "throughput_per_s": "1/s",
    "raw_setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
}


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(bench: dict, trace: bool) -> dict[str, str]:
    section = bench["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all",
                   choices=("all",) + WORKLOADS)
    p.add_argument("--seed", type=int, default=2021)
    p.add_argument("--seconds", type=float, default=None,
                   help="size an untraced sim workload to take about "
                        "this long on the baseline host (default: the "
                        "spec's seeds)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1), help="report per-layer metrics")
    p.add_argument("--out", type=Path, default=None,
                   help="directory for run JSONs and span JSONL")
    p.add_argument("--spec", default=None,
                   help="JSON object of per-workload spec overrides "
                        "(smaller sizes for tests)")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ----------------------------------------------------------------------
# child: one workload, in-process
# ----------------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(HERE))
    import repro
    import trace as span_trace

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"repro imported from {repro.__file__}, not {SRC}")
    if not hasattr(span_trace, "SpanRecorder"):
        raise SystemExit("benchmarks/e2e/trace.py shadowed by another module")
    from workloads import SPECS, run_workload

    name = args.workload
    spec = dict(SPECS[name])
    if args.spec:
        spec.update(json.loads(args.spec).get(name, {}))
    rec = span_trace.SpanRecorder() if args.trace else None
    work_root = ROOT / ".e2e_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as work_dir:
        t0 = time.perf_counter()
        outcome = run_workload(name, spec, args.seed, rec, Path(work_dir),
                               args.seconds)
        wall = time.perf_counter() - t0
    metrics = dict(outcome.metrics)
    if not args.trace:
        rss_kib = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        metrics["peak_rss_mb"] = rss_kib / 1024
    stem = f"{name}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    if rec is not None and args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        rec.write_jsonl(args.out / f"{stem}.spans.jsonl")
    result = {
        "workload": name,
        "seed": args.seed,
        "trace": args.trace,
        "stem": stem,
        "wall_s": wall,
        "ops": outcome.ops,
        "ops_failed": outcome.ops_failed,
        "violations": outcome.violations[:50],
        "fingerprint": outcome.digest,
        "spans_recorded": len(rec.spans) if rec is not None else 0,
        "metrics": metrics,
        "info": outcome.info,
    }
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# parent: spawn children, check, report
# ----------------------------------------------------------------------
def run_child(name: str, args: argparse.Namespace) -> dict | None:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", name, "--seed", str(args.seed),
           "--trace", str(args.trace)]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    if args.out is not None:
        cmd += ["--out", str(args.out)]
    if args.spec:
        cmd += ["--spec", args.spec]
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1",
        REPRO_CACHE="0",
        PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        ),
    )
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    timeout = CHILD_TIMEOUT_S[args.trace]
    if not args.trace and args.seconds:
        timeout = min(timeout + 2 * args.seconds, MAX_CHILD_S)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"{name}: timed out after {timeout:.0f}s", file=sys.stderr)
        return None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{name}: child exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def report(result: dict, units: dict[str, str]) -> list[str]:
    """Print one workload's metrics; return problems with its metric set."""
    name = result["workload"]
    problems = []
    extra = set(result["metrics"]) - set(units)
    unknown = extra - set(UNLISTED_UNITS)
    if unknown:
        problems.append(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    for metric, unit in units.items():
        value = result["metrics"].get(metric, 0.0)
        result["metrics"][metric] = value
        print(f"{name} {metric} {value:.6g} {unit}")
    for metric in sorted(extra - unknown):
        print(f"{name} {metric} {result['metrics'][metric]:.6g} "
              f"{UNLISTED_UNITS[metric]} (not in BENCHMARK.json)")
    print(f"{name} ops {result['ops']}")
    print(f"{name} ops_failed {result['ops_failed']}")
    print(f"{name} fingerprint {result['fingerprint']}")
    for v in result["violations"]:
        print(f"{name} VIOLATION {v}", file=sys.stderr)
    return problems


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    bench = load_benchmark()
    if args.child:
        return child_main(args)
    units = metric_units(bench, bool(args.trace))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed = True, 0, 0
    metrics: dict[str, dict] = {}
    for name in names:
        result = run_child(name, args)
        if result is None:
            # a crashed or killed child: one failed op, every metric 0
            result = {"workload": name, "ops": 1, "ops_failed": 1,
                      "violations": ["child did not report"],
                      "fingerprint": "-", "metrics": {}, "stem": None}
        problems = report(result, units)
        for p in problems:
            print(f"{name}: {p}", file=sys.stderr)
        correct = correct and not problems and not result["violations"]
        attempted += result["ops"]
        failed += result["ops_failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, unit in units.items():
            metrics[prefix + metric] = {
                "value": result["metrics"][metric], "unit": unit,
            }
        if args.out is not None and result["stem"] is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"{result['stem']}.json").write_text(
                json.dumps(result, indent=1)
            )
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
