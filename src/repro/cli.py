"""Command-line interface: ``repro`` / ``python -m repro``.

Subcommands
-----------
``repro list``
    Show every reproducible experiment id.
``repro run <id> [--scale quick|full] [--seed N] [--jobs N] [--csv PATH]
[--json PATH]``
    Run one experiment (or ``all``) and print the paper-layout table.
``repro experiments list`` / ``repro experiments run <id> ...``
    Namespaced aliases of ``list`` and ``run`` (same flags).
``repro simulate [--strategy S] [--nodes N] [--tasks T] ...``
    Run a single ad-hoc simulation and print its summary.  Failure
    injection: ``--crash-fraction``, ``--replication`` (``full`` or an
    integer), ``--loss-rate``, ``--crash-detection-ticks``.
``repro figures [--out DIR]``
    Render the Figure 2/3 ring SVGs.
``repro profile [--strategy S] ... [--json]``
    Run one simulation with time series on and print its convergence
    profile (utilization AUC, wasted node-ticks, ...) plus the per-phase
    wall-clock breakdown (strategy / churn / arrivals / consumption /
    measurement).
``repro trace [--strategy S] ... --out trace.jsonl [--kinds a,b] [--json]``
    Run one simulation with a streaming JSONL event trace attached
    (bounded memory; see :mod:`repro.obs`).  ``--kinds`` and ``--ticks``
    filter at the sink, so a long run can capture only what matters.
``repro theory [--nodes N] [--tasks T]``
    Print the closed-form predictions for a network size next to a
    fresh measurement.
``repro sweep --field F --values a,b,c [--out PATH] ...``
    One-dimensional parameter sweep; ``--out`` persists every TrialSet
    to one JSON document.  Interrupted sweeps resume from the trial
    cache — re-running the same command recomputes only missing trials.
``repro cache [--clear]``
    Show (or empty) the content-addressed trial cache.
``repro lint [paths] [--format text|json|sarif] [--select R00x,...]``
    Run the reprolint determinism/correctness rules (R001-R009, see
    docs/static-analysis.md); exits non-zero on any error finding.
    Unchanged trees replay from the content-hash cache (``--no-cache``
    or ``REPRO_LINT_CACHE=0`` bypasses it).
``repro serve [--port P] [--join HOST:PORT] [--ring N] [--strategy S] ...``
    Run one live asyncio DHT node on real TCP sockets (or, with
    ``--ring N``, a local multi-process ring).  Prints a
    ``REPRO-SERVE-READY {...}`` line once the node is addressable; stops
    gracefully on SIGINT/SIGTERM.  See docs/serving.md.
``repro stress TARGET [TARGET ...] [--duration S] [--concurrency N] ...``
    Replay seeded concurrent get/put traffic against live nodes and
    report wall-clock latency percentiles plus rebalance-convergence
    time (``--json`` for the machine-readable summary; exits non-zero
    if not a single request succeeded).

Caching: completed trials persist under ``~/.cache/repro`` (override
with ``REPRO_CACHE_DIR``), so re-running any experiment is a cache hit.
``--no-cache`` (or ``REPRO_CACHE=0``) computes everything fresh.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from repro.config import STRATEGY_NAMES, SimulationConfig

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Autonomous Load Balancing in Distributed "
            "Hash Tables Using Churn and the Sybil Attack'"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _add_run_arguments(run_p: argparse.ArgumentParser) -> None:
        run_p.add_argument("experiment", help="experiment id or 'all'")
        run_p.add_argument("--scale", choices=["quick", "full"], default=None)
        run_p.add_argument("--seed", type=int, default=0)
        run_p.add_argument("--jobs", type=int, default=1)
        run_p.add_argument("--csv", type=Path, default=None)
        run_p.add_argument("--json", type=Path, default=None)
        run_p.add_argument(
            "--no-cache", action="store_true",
            help="recompute every trial (skip the content-addressed cache)",
        )
        run_p.add_argument(
            "--manifest", type=Path, default=None,
            help="write the run manifest(s) to this JSON file",
        )

    sub.add_parser("list", help="list experiment ids")
    _add_run_arguments(sub.add_parser("run", help="run an experiment (or 'all')"))

    # `repro experiments {list,run}`: namespaced aliases of the above.
    exp_p = sub.add_parser(
        "experiments", help="experiment registry commands (list / run)"
    )
    exp_sub = exp_p.add_subparsers(dest="experiments_command", required=True)
    exp_sub.add_parser("list", help="list experiment ids")
    _add_run_arguments(
        exp_sub.add_parser("run", help="run an experiment (or 'all')")
    )

    sim_p = sub.add_parser("simulate", help="one ad-hoc simulation")
    sim_p.add_argument("--strategy", choices=STRATEGY_NAMES, default="none")
    sim_p.add_argument("--nodes", type=int, default=1000)
    sim_p.add_argument("--tasks", type=int, default=100_000)
    sim_p.add_argument("--churn", type=float, default=0.0)
    sim_p.add_argument("--heterogeneous", action="store_true")
    sim_p.add_argument(
        "--work-measurement", choices=["one", "strength"], default="one"
    )
    sim_p.add_argument("--max-sybils", type=int, default=5)
    sim_p.add_argument("--sybil-threshold", type=int, default=0)
    sim_p.add_argument("--successors", type=int, default=5)
    sim_p.add_argument(
        "--crash-fraction", type=float, default=0.0,
        help="fraction of churn departures that crash without handoff",
    )
    sim_p.add_argument(
        "--replication", default="full",
        help="backup copies per task: 'full' (default) or an integer "
        "number of successors (0 = no replication)",
    )
    sim_p.add_argument(
        "--loss-rate", type=float, default=0.0,
        help="protocol-level message loss probability (chord layer)",
    )
    sim_p.add_argument(
        "--crash-detection-ticks", type=int, default=0,
        help="ticks a crashed node still looks alive (chord layer)",
    )
    sim_p.add_argument(
        "--adv-eclipse-sybils", type=int, default=0,
        help="coordinated Sybil identities concentrated in a victim arc",
    )
    sim_p.add_argument(
        "--adv-eclipse-arc", type=float, default=0.05,
        help="ring fraction the eclipse identities squeeze into",
    )
    sim_p.add_argument(
        "--adv-free-riders", type=int, default=0,
        help="adversarial joiners that accept keys and consume nothing",
    )
    sim_p.add_argument(
        "--adv-churn-amplification", type=float, default=0.0,
        help="per-round probability of crashing the heaviest honest owner",
    )
    sim_p.add_argument(
        "--adv-attack-tick", type=int, default=1,
        help="tick at which the planned attack identities start joining",
    )
    sim_p.add_argument(
        "--adv-join-cost", type=int, default=0,
        help="defense: identity-creation cost against a per-node budget "
        "(0 = defense off)",
    )
    sim_p.add_argument(
        "--adv-detection-interval", type=int, default=0,
        help="defense: ticks between per-arc Sybil-density sweeps "
        "(0 = defense off)",
    )
    sim_p.add_argument(
        "--adv-density-threshold", type=int, default=4,
        help="slots one owner may hold in a single detection arc",
    )
    sim_p.add_argument("--seed", type=int, default=0)
    sim_p.add_argument("--trials", type=int, default=1)
    sim_p.add_argument("--jobs", type=int, default=1)
    sim_p.add_argument("--no-cache", action="store_true")
    sim_p.add_argument(
        "--retries", type=int, default=1,
        help="re-dispatches of a failed trial (fresh worker, same seed)",
    )
    sim_p.add_argument(
        "--timeout", type=float, default=None,
        help="seconds without a trial completion before workers are "
        "considered hung (parallel runs)",
    )
    sim_p.add_argument(
        "--sanitize", action="store_true",
        help="enable the runtime determinism sanitizer (REPRO_SANITIZE=1): "
        "raises when two concurrent consumers share one RNG stream",
    )

    sweep_p = sub.add_parser(
        "sweep", help="one-dimensional parameter sweep with resume"
    )
    sweep_p.add_argument(
        "--field", required=True, help="SimulationConfig field to vary"
    )
    sweep_p.add_argument(
        "--values", required=True,
        help="comma-separated values (JSON literals: 0.01, 1000, ...)",
    )
    sweep_p.add_argument("--trials", type=int, default=3)
    sweep_p.add_argument("--strategy", choices=STRATEGY_NAMES, default="none")
    sweep_p.add_argument("--nodes", type=int, default=1000)
    sweep_p.add_argument("--tasks", type=int, default=100_000)
    sweep_p.add_argument("--churn", type=float, default=0.0)
    sweep_p.add_argument("--seed", type=int, default=0)
    sweep_p.add_argument("--jobs", type=int, default=1)
    sweep_p.add_argument("--out", type=Path, default=None,
                         help="persist every TrialSet to this JSON file")
    sweep_p.add_argument(
        "--crn", action="store_true",
        help="common random numbers: reuse identical trial seeds at "
        "every sweep point (variance reduction; off by default)",
    )
    sweep_p.add_argument("--no-cache", action="store_true")
    sweep_p.add_argument("--retries", type=int, default=1)
    sweep_p.add_argument("--timeout", type=float, default=None)

    fab_p = sub.add_parser(
        "fabric",
        help="distributed trial fabric: broker, attachable workers, status",
    )
    fab_sub = fab_p.add_subparsers(dest="fabric_command", required=True)

    fab_run = fab_sub.add_parser(
        "run",
        help="run a sweep grid under a fabric broker (resumable; "
        "workers may attach mid-sweep)",
    )
    fab_run.add_argument(
        "--field", required=True, help="SimulationConfig field to vary"
    )
    fab_run.add_argument(
        "--values", required=True,
        help="comma-separated values (JSON literals: 0.01, 1000, ...)",
    )
    fab_run.add_argument("--trials", type=int, default=3)
    fab_run.add_argument("--strategy", choices=STRATEGY_NAMES, default="none")
    fab_run.add_argument("--nodes", type=int, default=1000)
    fab_run.add_argument("--tasks", type=int, default=100_000)
    fab_run.add_argument("--churn", type=float, default=0.0)
    fab_run.add_argument("--seed", type=int, default=0)
    fab_run.add_argument(
        "--jobs", type=int, default=0,
        help="local worker processes (0 = auto, honors REPRO_N_JOBS; "
        "1 = in-process)",
    )
    fab_run.add_argument("--out", type=Path, default=None,
                         help="persist every TrialSet to this JSON file")
    fab_run.add_argument(
        "--crn", action="store_true",
        help="common random numbers: reuse identical trial seeds at "
        "every sweep point (variance reduction; off by default)",
    )
    fab_run.add_argument("--no-cache", action="store_true")
    fab_run.add_argument("--retries", type=int, default=1)
    fab_run.add_argument("--timeout", type=float, default=None)
    fab_run.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="accept remote `repro fabric worker` processes here "
        "(port 0 = ephemeral; the bound address is printed on a "
        "REPRO-FABRIC-READY line)",
    )
    fab_run.add_argument(
        "--lease-timeout", type=float, default=120.0,
        help="seconds before a silent remote worker's unit is requeued",
    )
    fab_run.add_argument(
        "--status-file", type=Path, default=None,
        help="live status JSON path (default: <cache dir>/"
        "fabric-status.json)",
    )

    fab_worker = fab_sub.add_parser(
        "worker", help="attach to a broker and run trials until told to stop"
    )
    fab_worker.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="broker attach address (from its REPRO-FABRIC-READY line)",
    )
    fab_worker.add_argument(
        "--name", default=None, help="worker name (default: worker-<pid>)"
    )
    fab_worker.add_argument(
        "--poll", type=float, default=0.5,
        help="seconds between lease attempts while the queue is empty",
    )
    fab_worker.add_argument(
        "--max-units", type=int, default=None,
        help="exit after settling this many units (testing hook)",
    )

    fab_status = fab_sub.add_parser(
        "status", help="show a broker's live queue/progress counters"
    )
    fab_status.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="query a listening broker directly over its attach socket",
    )
    fab_status.add_argument(
        "--status-file", type=Path, default=None,
        help="read this status JSON (default: <cache dir>/"
        "fabric-status.json)",
    )
    fab_status.add_argument(
        "--json", action="store_true",
        help="emit the raw status document instead of a table",
    )

    cache_p = sub.add_parser(
        "cache", help="show or clear the content-addressed trial cache"
    )
    cache_p.add_argument("--clear", action="store_true")

    fig_p = sub.add_parser("figures", help="render Figure 2/3 ring SVGs")
    fig_p.add_argument("--out", type=Path, default=Path("figures"))
    fig_p.add_argument("--seed", type=int, default=0)

    prof_p = sub.add_parser(
        "profile",
        help="convergence profile and per-phase timing of one run",
    )
    prof_p.add_argument("--strategy", choices=STRATEGY_NAMES, default="none")
    prof_p.add_argument("--nodes", type=int, default=500)
    prof_p.add_argument("--tasks", type=int, default=50_000)
    prof_p.add_argument("--churn", type=float, default=0.0)
    prof_p.add_argument("--seed", type=int, default=0)
    prof_p.add_argument(
        "--json", action="store_true",
        help="emit a machine-readable JSON document instead of tables",
    )

    trace_p = sub.add_parser(
        "trace", help="one simulation with a streaming JSONL event trace"
    )
    trace_p.add_argument("--strategy", choices=STRATEGY_NAMES, default="none")
    trace_p.add_argument("--nodes", type=int, default=500)
    trace_p.add_argument("--tasks", type=int, default=50_000)
    trace_p.add_argument("--churn", type=float, default=0.0)
    trace_p.add_argument("--seed", type=int, default=0)
    trace_p.add_argument(
        "--out", type=Path, default=Path("trace.jsonl"),
        help="JSONL file the event stream is written to",
    )
    trace_p.add_argument(
        "--kinds", default=None,
        help="comma-separated event kinds to keep (default: all)",
    )
    trace_p.add_argument(
        "--ticks", default=None,
        help="inclusive FIRST:LAST tick window to keep (default: all)",
    )
    trace_p.add_argument(
        "--buffer", type=int, default=256,
        help="events buffered in memory between writes",
    )
    trace_p.add_argument(
        "--json", action="store_true",
        help="emit a machine-readable JSON summary instead of text",
    )

    theory_p = sub.add_parser(
        "theory", help="closed-form predictions vs one measurement"
    )
    theory_p.add_argument("--nodes", type=int, default=1000)
    theory_p.add_argument("--tasks", type=int, default=100_000)
    theory_p.add_argument("--seed", type=int, default=0)

    lint_p = sub.add_parser(
        "lint", help="run the reprolint determinism/correctness rules"
    )
    lint_p.add_argument(
        "paths", nargs="*", type=Path, default=None,
        help="files/directories to lint (default: src, else the package)",
    )
    lint_p.add_argument(
        "--json", action="store_true",
        help="emit the deterministic JSON report (alias for --format json)",
    )
    lint_p.add_argument(
        "--format", dest="format", default=None,
        choices=["text", "json", "sarif"],
        help="report format: human text (default), the byte-stable JSON "
        "artifact, or SARIF 2.1.0 for code scanning",
    )
    lint_p.add_argument(
        "--select", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    lint_p.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    lint_p.add_argument(
        "--no-cache", action="store_true",
        help="bypass the content-hash lint cache for this run",
    )

    serve_p = sub.add_parser(
        "serve", help="run a live DHT node (or --ring N local ring)"
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument(
        "--port", type=int, default=0,
        help="TCP port to bind (0 = ephemeral; the READY line has it)",
    )
    serve_p.add_argument(
        "--id", type=int, default=None,
        help="ring identifier (default: SHA-1 of host:port)",
    )
    serve_p.add_argument(
        "--join", default=None, metavar="HOST:PORT",
        help="bootstrap endpoint of an existing ring (default: create)",
    )
    serve_p.add_argument(
        "--ring", type=int, default=None, metavar="N",
        help="spawn a local N-node multi-process ring instead of one node",
    )
    serve_p.add_argument("--seed", type=int, default=0)
    serve_p.add_argument("--bits", type=int, default=64)
    serve_p.add_argument("--successors", type=int, default=5)
    serve_p.add_argument(
        "--strategy", default="none",
        choices=["none", "random_injection", "neighbor_injection", "invitation"],
        help="live balancing strategy driven from the stabilize loop",
    )
    serve_p.add_argument("--sybil-threshold", type=int, default=0)
    serve_p.add_argument("--max-sybils", type=int, default=5)
    serve_p.add_argument(
        "--decision-interval", type=int, default=5,
        help="maintenance cycles between balancer decision rounds",
    )
    serve_p.add_argument(
        "--maintenance-interval", type=float, default=0.2,
        help="seconds between maintenance cycles (seeded jitter applied)",
    )
    serve_p.add_argument("--heartbeat-interval", type=float, default=1.0)
    serve_p.add_argument(
        "--timeout", type=float, default=1.0,
        help="per-message transport timeout in seconds",
    )
    serve_p.add_argument(
        "--retries", type=int, default=2,
        help="transparent resends after transient transport failures",
    )
    serve_p.add_argument(
        "--sanitize", action="store_true",
        help="enable the runtime determinism sanitizer (REPRO_SANITIZE=1): "
        "blocked-loop detection + RNG stream ownership; non-empty "
        "sanitizer reports fail the process on shutdown",
    )

    stress_p = sub.add_parser(
        "stress", help="seeded load generator against live nodes"
    )
    stress_p.add_argument(
        "targets", nargs="+", metavar="HOST:PORT",
        help="live node endpoints to spread requests over",
    )
    stress_p.add_argument("--duration", type=float, default=5.0)
    stress_p.add_argument("--concurrency", type=int, default=8)
    stress_p.add_argument("--seed", type=int, default=0)
    stress_p.add_argument("--bits", type=int, default=64)
    stress_p.add_argument(
        "--key-dist", choices=["uniform", "clustered", "zipf"],
        default="uniform", help="key skew (same models as the simulator)",
    )
    stress_p.add_argument("--n-clusters", type=int, default=8)
    stress_p.add_argument("--cluster-spread", type=float, default=0.01)
    stress_p.add_argument("--zipf-exponent", type=float, default=1.2)
    stress_p.add_argument("--get-fraction", type=float, default=0.5)
    stress_p.add_argument("--key-pool", type=int, default=512)
    stress_p.add_argument("--poll-interval", type=float, default=0.5)
    stress_p.add_argument(
        "--imbalance-threshold", type=float, default=2.0,
        help="max/mean identity load counted as rebalance-converged",
    )
    stress_p.add_argument("--timeout", type=float, default=1.0)
    stress_p.add_argument("--retries", type=int, default=1)
    stress_p.add_argument(
        "--trace", type=Path, default=None,
        help="write a JSONL trace of every request and poll here",
    )
    stress_p.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable summary (sorted keys)",
    )
    stress_p.add_argument(
        "--sanitize", action="store_true",
        help="enable the runtime determinism sanitizer (REPRO_SANITIZE=1) "
        "for the load-generator process",
    )

    rep_p = sub.add_parser(
        "report", help="run every experiment and write a report bundle"
    )
    rep_p.add_argument("--out", type=Path, default=Path("report"))
    rep_p.add_argument("--scale", choices=["quick", "full"], default=None)
    rep_p.add_argument("--seed", type=int, default=0)
    rep_p.add_argument("--jobs", type=int, default=1)
    rep_p.add_argument(
        "--only", nargs="*", default=None,
        help="restrict to these experiment ids",
    )

    return parser


def _cmd_list() -> int:
    from repro.experiments.registry import EXPERIMENTS

    width = max(len(k) for k in EXPERIMENTS)
    for key, (title, _) in EXPERIMENTS.items():
        print(f"{key.ljust(width)}  {title}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.registry import EXPERIMENTS
    from repro.experiments.runner import run_with_manifest, save_manifests
    from repro.viz.export import write_csv, write_json

    ids = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    manifests = []
    for exp_id in ids:
        result, manifest = run_with_manifest(
            exp_id, scale=args.scale, seed=args.seed, n_jobs=args.jobs
        )
        manifests.append(manifest)
        print(result.render())
        print(f"  ({manifest.summary_line()})\n")
        if args.csv:
            path = (
                args.csv
                if len(ids) == 1
                else args.csv.with_name(f"{exp_id}_{args.csv.name}")
            )
            write_csv(result, path)
            print(f"  wrote {path}")
        if args.json:
            path = (
                args.json
                if len(ids) == 1
                else args.json.with_name(f"{exp_id}_{args.json.name}")
            )
            write_json(result, path)
            print(f"  wrote {path}")
    if args.manifest:
        path = save_manifests(manifests, args.manifest)
        print(f"  wrote {path}")
    return 0


def _parse_replication(value: str) -> int | None:
    if value == "full":
        return None
    try:
        return int(value)
    except ValueError:
        raise SystemExit(
            f"--replication must be 'full' or an integer, got {value!r}"
        ) from None


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.config import AdversaryModel, FailureModel
    from repro.sim.trials import run_trials
    from repro.util.tables import format_kv

    if args.sanitize:
        from repro.sanitize import ENV_FLAG

        os.environ[ENV_FLAG] = "1"
    config = SimulationConfig(
        strategy=args.strategy,
        n_nodes=args.nodes,
        n_tasks=args.tasks,
        churn_rate=args.churn,
        heterogeneous=args.heterogeneous,
        work_measurement=args.work_measurement,
        max_sybils=args.max_sybils,
        sybil_threshold=args.sybil_threshold,
        num_successors=args.successors,
        failures=FailureModel(
            crash_fraction=args.crash_fraction,
            replication_factor=_parse_replication(args.replication),
            message_loss_rate=args.loss_rate,
            crash_detection_ticks=args.crash_detection_ticks,
        ),
        adversary=AdversaryModel(
            eclipse_sybils=args.adv_eclipse_sybils,
            eclipse_arc_fraction=args.adv_eclipse_arc,
            free_riders=args.adv_free_riders,
            churn_amplification=args.adv_churn_amplification,
            attack_tick=args.adv_attack_tick,
            join_cost=args.adv_join_cost,
            detection_interval=args.adv_detection_interval,
            density_threshold=args.adv_density_threshold,
        ),
        seed=args.seed,
    )
    # perf_counter, not time.time: monotonic, so a wall-clock adjustment
    # mid-run cannot report a negative duration (R002 allowlists cli.py)
    t0 = time.perf_counter()
    trials = run_trials(
        config,
        args.trials,
        n_jobs=args.jobs,
        retries=args.retries,
        timeout=args.timeout,
    )
    summary = trials.factor_summary()
    payload = {
        "strategy": config.strategy,
        "nodes/tasks": f"{config.n_nodes}/{config.n_tasks}",
        "trials": summary.n_trials,
        "mean runtime factor": summary.mean,
        "std": summary.std,
        "min..max": f"{summary.min:.3f}..{summary.max:.3f}",
        "ideal ticks": trials.results[0].ideal_ticks,
        "wall time (s)": round(time.perf_counter() - t0, 2),
    }
    if config.failures.enabled:
        payload["mean completed-work factor"] = (
            trials.mean_completed_work_factor
        )
    if config.adversary.enabled:
        advs = [r.adversary for r in trials.results if r.adversary]
        if advs:
            def _adv_mean(key: str) -> float | None:
                vals = [a[key] for a in advs if a[key] is not None]
                return sum(vals) / len(vals) if vals else None

            payload["adv captured fraction (peak)"] = _adv_mean(
                "captured_fraction_peak"
            )
            payload["adv stranded tasks"] = _adv_mean("stranded_tasks")
            prec = _adv_mean("detection_precision")
            rec = _adv_mean("detection_recall")
            if prec is not None:
                payload["adv detection precision"] = prec
            if rec is not None:
                payload["adv detection recall"] = rec
    if trials.n_truncated:
        payload["trials truncated"] = trials.n_truncated
    if trials.n_data_loss:
        payload["trials with data loss"] = trials.n_data_loss
    payload.update(
        {
            f"avg {k}": round(v, 1)
            for k, v in trials.counter_means().items()
        }
    )
    print(format_kv(payload))
    return 0


def _parse_sweep_values(spec: str) -> list:
    """Comma-separated JSON literals (bare words fall back to strings)."""
    import json as _json

    values = []
    for item in spec.split(","):
        item = item.strip()
        try:
            values.append(_json.loads(item))
        except _json.JSONDecodeError:
            values.append(item)
    return values


def _sweep_base_config(args: argparse.Namespace) -> SimulationConfig:
    return SimulationConfig(
        strategy=args.strategy,
        n_nodes=args.nodes,
        n_tasks=args.tasks,
        churn_rate=args.churn,
        seed=args.seed,
    )


def _print_sweep_result(args, values, sets, t0) -> int:
    from repro.sim.persistence import save_sweep
    from repro.sim.trials import run_stats
    from repro.util.tables import format_table

    rows = [
        [value, ts.config.seed, ts.n_trials, ts.mean_factor]
        for value, ts in zip(values, sets)
    ]
    print(
        format_table(
            [args.field, "point seed", "trials", "mean factor"],
            rows,
            title=f"sweep over {args.field} "
            f"({'CRN' if args.crn else 'decorrelated'} seeds)",
        )
    )
    print(
        f"  ({run_stats().summary_line()}, "
        f"{time.perf_counter() - t0:.1f}s wall)"
    )
    if args.out:
        path = save_sweep(sets, args.out)
        print(f"  wrote {path}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sim.trials import reset_run_stats, sweep

    values = _parse_sweep_values(args.values)
    base = _sweep_base_config(args)
    reset_run_stats()
    t0 = time.perf_counter()
    sets = sweep(
        base,
        args.field,
        values,
        args.trials,
        n_jobs=args.jobs,
        common_random_numbers=args.crn,
        retries=args.retries,
        timeout=args.timeout,
    )
    return _print_sweep_result(args, values, sets, t0)


#: Line prefix `repro fabric run --listen` prints once its attach socket
#: is bound, followed by a JSON object with host/port/status_file —
#: orchestration scripts (scripts/fabric_smoke.py) wait for it exactly
#: like net_smoke waits for REPRO-SERVE-READY.
FABRIC_READY_PREFIX = "REPRO-FABRIC-READY "


def _default_status_file() -> Path:
    from repro.sim.cache import default_cache_dir

    return default_cache_dir() / "fabric-status.json"


def _cmd_fabric_run(args: argparse.Namespace) -> int:
    import json as _json

    from repro.fabric.broker import Broker
    from repro.net.transport import parse_address
    from repro.sim.trials import reset_run_stats, sweep_grid

    values = _parse_sweep_values(args.values)
    base = _sweep_base_config(args)
    grid = sweep_grid(
        base, args.field, values, args.trials, common_random_numbers=args.crn
    )
    status_path = args.status_file or _default_status_file()
    listen = parse_address(args.listen) if args.listen else None
    reset_run_stats()
    t0 = time.perf_counter()
    broker = Broker(
        grid,
        n_jobs=args.jobs,
        retries=args.retries,
        timeout=args.timeout,
        listen=listen,
        lease_timeout=args.lease_timeout,
        status_path=status_path,
    )
    if listen is not None:
        bound = broker.open_listener()
        print(
            FABRIC_READY_PREFIX
            + _json.dumps(
                {
                    "host": bound[0],
                    "port": bound[1],
                    "status_file": str(status_path),
                    "units": len(broker.queue),
                },
                sort_keys=True,
            ),
            flush=True,
        )
    sets = broker.run()
    return _print_sweep_result(args, values, sets, t0)


def _cmd_fabric_worker(args: argparse.Namespace) -> int:
    from repro.errors import TransientNetworkError
    from repro.fabric.worker import run_worker
    from repro.net.transport import parse_address

    addr = parse_address(args.connect)
    try:
        summary = run_worker(
            addr,
            name=args.name,
            poll_interval=args.poll,
            max_units=args.max_units,
        )
    except TransientNetworkError as exc:
        print(f"fabric worker: broker unreachable: {exc}", file=sys.stderr)
        return 1
    print(f"fabric worker: {summary.summary_line()}")
    return 0


def _cmd_fabric_status(args: argparse.Namespace) -> int:
    import json as _json

    from repro.errors import ProtocolError, TransientNetworkError
    from repro.util.tables import format_kv

    if args.connect:
        from repro.fabric.protocol import OP_STATUS
        from repro.net.transport import parse_address, request

        try:
            snapshot = request(
                parse_address(args.connect), {"op": OP_STATUS}
            )
        except (TransientNetworkError, ProtocolError) as exc:
            print(f"fabric status: broker unreachable: {exc}", file=sys.stderr)
            return 1
    else:
        path = args.status_file or _default_status_file()
        try:
            snapshot = _json.loads(Path(path).read_text())
        except FileNotFoundError:
            print(f"fabric status: no status file at {path}", file=sys.stderr)
            return 1
        except ValueError as exc:
            print(f"fabric status: unreadable {path}: {exc}", file=sys.stderr)
            return 1
    if args.json:
        print(_json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    payload = {
        key: snapshot.get(key)
        for key in (
            "total",
            "queued",
            "running",
            "done",
            "cached",
            "failed",
            "avg_trial_seconds",
            "eta_seconds",
            "elapsed_seconds",
            "local_slots",
            "listen",
        )
    }
    payload["remote workers"] = (
        ", ".join(snapshot.get("remote_workers", [])) or "none"
    )
    print(format_kv(payload))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.sim.cache import (
        CACHE_SCHEMA_VERSION,
        TrialCache,
        cache_enabled,
    )
    from repro.util.tables import format_kv

    cache = TrialCache()
    if args.clear:
        removed = cache.clear()
        print(f"removed {removed} cached trial(s) from {cache.root}")
        return 0
    entries = cache.entries()
    print(
        format_kv(
            {
                "cache dir": str(cache.root),
                "enabled": cache_enabled(),
                "schema version": CACHE_SCHEMA_VERSION,
                "cached trials": len(entries),
                "size (MB)": round(cache.size_bytes() / 1e6, 2),
            }
        )
    )
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments.fig02_03_ring import build_layout
    from repro.viz.ringplot import render_ring_svg

    args.out.mkdir(parents=True, exist_ok=True)
    hashed = build_layout(10, 100, even_nodes=False, seed=args.seed)
    even = build_layout(10, 100, even_nodes=True, seed=args.seed)
    p2 = render_ring_svg(
        hashed.node_xy,
        hashed.task_xy,
        args.out / "fig2_hashed_ring.svg",
        title="Figure 2: SHA-1 placed nodes (10 nodes, 100 tasks)",
    )
    p3 = render_ring_svg(
        even.node_xy,
        even.task_xy,
        args.out / "fig3_even_ring.svg",
        title="Figure 3: evenly spaced nodes (10 nodes, 100 tasks)",
    )
    print(f"wrote {p2}\nwrote {p3}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import json as _json

    from repro.analysis.convergence import profile_run
    from repro.obs import PhaseProfiler, jsonable
    from repro.util.tables import format_kv, format_table

    config = SimulationConfig(
        strategy=args.strategy,
        n_nodes=args.nodes,
        n_tasks=args.tasks,
        churn_rate=args.churn,
        seed=args.seed,
    )
    profiler = PhaseProfiler()
    profile = profile_run(config, profiler=profiler)
    if args.json:
        # sorted keys + deterministic phase ordering: byte-stable for a
        # fixed clock (tests inject one), structure-stable always
        payload = {
            "convergence": {"strategy": args.strategy, **profile.as_dict()},
            "profile": profiler.as_dict(),
        }
        print(_json.dumps(jsonable(payload), indent=2, sort_keys=True))
        return 0
    print(format_kv({"strategy": args.strategy, **profile.as_dict()}))
    breakdown = profiler.as_dict()
    total = breakdown["total_seconds"]
    rows = [
        [
            name,
            entry["calls"],
            f"{entry['seconds']:.4f}",
            f"{100.0 * entry['seconds'] / total:.1f}%" if total else "-",
        ]
        for name, entry in breakdown["phases"].items()
    ]
    print()
    print(
        format_table(
            ["phase", "calls", "seconds", "share"],
            rows,
            title=f"per-phase wall clock ({total:.4f}s total)",
        )
    )
    return 0


def _parse_tick_window(spec: str) -> tuple[int, int]:
    try:
        first, last = spec.split(":")
        return int(first), int(last)
    except ValueError:
        raise SystemExit(
            f"--ticks must look like FIRST:LAST, got {spec!r}"
        ) from None


def _cmd_trace(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs import JsonlTraceSink, result_fingerprint
    from repro.sim.engine import TickEngine
    from repro.util.tables import format_kv

    config = SimulationConfig(
        strategy=args.strategy,
        n_nodes=args.nodes,
        n_tasks=args.tasks,
        churn_rate=args.churn,
        seed=args.seed,
    )
    kinds = (
        [k.strip() for k in args.kinds.split(",") if k.strip()]
        if args.kinds
        else None
    )
    tick_range = _parse_tick_window(args.ticks) if args.ticks else None
    with JsonlTraceSink(
        args.out,
        kinds=kinds,
        tick_range=tick_range,
        buffer_events=args.buffer,
    ) as sink:
        result = TickEngine(config, trace=sink).run()
    payload = {
        "out": str(args.out),
        "runtime_ticks": result.runtime_ticks,
        "completed": result.completed,
        "events_written": sink.n_written,
        "events_by_kind": {k: sink.by_kind[k] for k in sorted(sink.by_kind)},
        "fingerprint": result_fingerprint(result),
    }
    if args.json:
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return 0
    by_kind = payload.pop("events_by_kind")
    payload.update({f"events[{k}]": v for k, v in by_kind.items()})
    print(format_kv(payload))
    return 0


def _cmd_theory(args: argparse.Namespace) -> int:
    from repro.analysis import theory
    from repro.metrics.balance import load_stats
    from repro.sim.engine import TickEngine
    from repro.util.tables import format_table

    engine = TickEngine(
        SimulationConfig(
            n_nodes=args.nodes, n_tasks=args.tasks, seed=args.seed
        )
    )
    stats = load_stats(engine.network_loads())
    rows = [
        [
            "median workload",
            theory.expected_median_workload(args.nodes, args.tasks),
            stats.median,
        ],
        [
            "workload sigma",
            theory.expected_workload_std(args.nodes, args.tasks),
            stats.std,
        ],
        [
            "max workload",
            theory.expected_max_workload(args.nodes, args.tasks),
            stats.max,
        ],
        [
            "baseline runtime factor",
            theory.expected_baseline_factor(args.nodes),
            "(run `repro simulate` to measure)",
        ],
    ]
    print(
        format_table(
            ["quantity", "theory", "measured (one draw)"],
            rows,
            title=f"Exponential-arc theory, {args.nodes} nodes / "
            f"{args.tasks} tasks",
        )
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import (
        all_rules,
        lint_paths,
        render_human,
        render_json,
        render_sarif,
    )

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  {rule.name:<22}  {rule.summary}")
        return 0
    paths = args.paths
    if not paths:
        default_src = Path("src")
        if default_src.is_dir():
            paths = [default_src]
        else:
            paths = [Path(__file__).resolve().parent]
    select = args.select.split(",") if args.select else None
    fmt = args.format or ("json" if args.json else "text")
    report = lint_paths(paths, select=select, cache=not args.no_cache)
    if fmt == "json":
        print(render_json(report), end="")
    elif fmt == "sarif":
        print(render_sarif(report), end="")
    else:
        print(render_human(report))
    return report.exit_code


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.sanitize:
        # Set before any node (or ring subprocess) starts: children
        # inherit the environment, so the whole ring is sanitized.
        from repro.sanitize import ENV_FLAG

        os.environ[ENV_FLAG] = "1"
    if args.ring is not None:
        return _serve_ring(args)
    import asyncio
    import json as _json
    import signal

    from repro import sanitize
    from repro.net.cluster import READY_PREFIX
    from repro.net.node import LiveNode, LiveNodeConfig
    from repro.net.transport import RetryPolicy, parse_address

    async def _run() -> int:
        config = LiveNodeConfig(
            seed=args.seed,
            bits=args.bits,
            n_successors=args.successors,
            strategy=args.strategy,
            sybil_threshold=args.sybil_threshold,
            max_sybils=args.max_sybils,
            decision_interval=args.decision_interval,
            maintenance_interval=args.maintenance_interval,
            heartbeat_interval=args.heartbeat_interval,
            policy=RetryPolicy(timeout=args.timeout, retries=args.retries),
        )
        node = LiveNode(args.host, args.port, config, node_id=args.id)
        bootstrap = parse_address(args.join) if args.join else None
        await node.start(bootstrap)
        print(
            READY_PREFIX
            + _json.dumps(
                {
                    "id": node.main.id,
                    "host": node.addr[0],
                    "port": node.addr[1],
                    "strategy": args.strategy,
                },
                sort_keys=True,
            ),
            flush=True,
        )
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, node.request_stop)
        await node.run_until_stopped()
        await node.stop()
        if sanitize.enabled() and sanitize.report_count():
            for message in sanitize.reports():
                print(f"SANITIZE: {message}", file=sys.stderr, flush=True)
            return 1
        return 0

    return asyncio.run(_run())


def _serve_ring(args: argparse.Namespace) -> int:
    import signal

    from repro.net.cluster import LocalCluster

    cluster = LocalCluster(
        args.ring,
        seed=args.seed,
        strategy=args.strategy,
        bits=args.bits,
        sybil_threshold=args.sybil_threshold,
        max_sybils=args.max_sybils,
        maintenance_interval=args.maintenance_interval,
        host=args.host,
    )
    cluster.start()
    for node in cluster.nodes:
        print(
            f"ring node {node.index}: id={node.node_id} "
            f"{node.host}:{node.port}",
            flush=True,
        )
    print(f"ring of {args.ring} up; SIGINT/SIGTERM stops it", flush=True)
    stop = {"requested": False}
    signal.signal(signal.SIGTERM, lambda *_: stop.update(requested=True))
    try:
        while not stop["requested"] and all(n.alive() for n in cluster.nodes):
            time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    return 0 if cluster.stop() else 1


def _cmd_stress(args: argparse.Namespace) -> int:
    import contextlib
    import json as _json

    from repro.net.stress import StressConfig, run_stress_sync
    from repro.net.transport import RetryPolicy, parse_address
    from repro.obs import JsonlTraceSink
    from repro.util.tables import format_kv

    if args.sanitize:
        from repro.sanitize import ENV_FLAG

        os.environ[ENV_FLAG] = "1"
    config = StressConfig(
        targets=tuple(parse_address(t) for t in args.targets),
        duration=args.duration,
        concurrency=args.concurrency,
        seed=args.seed,
        bits=args.bits,
        key_distribution=args.key_dist,
        n_clusters=args.n_clusters,
        cluster_spread=args.cluster_spread,
        zipf_exponent=args.zipf_exponent,
        get_fraction=args.get_fraction,
        key_pool=args.key_pool,
        poll_interval=args.poll_interval,
        imbalance_threshold=args.imbalance_threshold,
        policy=RetryPolicy(timeout=args.timeout, retries=args.retries),
    )
    with contextlib.ExitStack() as stack:
        trace = (
            stack.enter_context(JsonlTraceSink(args.trace))
            if args.trace
            else None
        )
        summary = run_stress_sync(config, trace=trace)
    if args.json:
        print(_json.dumps(summary, indent=2, sort_keys=True))
    else:
        flat = {
            "targets": summary["targets"],
            "requests": summary["requests"]["total"],
            "success": summary["requests"]["success"],
            "error rate": summary["requests"]["error_rate"],
            "p50/p95/p99 (ms)": "/".join(
                str(summary["latency_ms"][p]) for p in ("p50", "p95", "p99")
            ),
            "throughput (req/s)": summary["throughput_rps"],
            "rebalance converged": summary["rebalance"]["converged"],
            "rebalance seconds": summary["rebalance"]["seconds"],
        }
        print(format_kv(flat))
    return 0 if summary["requests"]["success"] > 0 else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "no_cache", False):
        # Every run_trials call below resolves the cache from the
        # environment, so one switch covers arbitrarily nested calls.
        old = os.environ.get("REPRO_CACHE")
        os.environ["REPRO_CACHE"] = "0"
        try:
            return _dispatch(args)
        finally:
            if old is None:
                os.environ.pop("REPRO_CACHE", None)
            else:
                os.environ["REPRO_CACHE"] = old
    return _dispatch(args)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "experiments":
        if args.experiments_command == "list":
            return _cmd_list()
        return _cmd_run(args)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "fabric":
        if args.fabric_command == "run":
            return _cmd_fabric_run(args)
        if args.fabric_command == "worker":
            return _cmd_fabric_worker(args)
        return _cmd_fabric_status(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "figures":
        return _cmd_figures(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "theory":
        return _cmd_theory(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "stress":
        return _cmd_stress(args)
    if args.command == "report":
        from repro.experiments.report import generate_report

        generate_report(
            args.out,
            scale=args.scale,
            seed=args.seed,
            n_jobs=args.jobs,
            experiment_ids=args.only,
        )
        return 0
    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
