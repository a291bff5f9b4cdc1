"""Command-line interface: ``repro`` / ``python -m repro``.

Subcommands
-----------
``repro list``
    Show every reproducible experiment id.
``repro run <id> [--scale quick|full] [--seed N] [--jobs N] [--csv PATH]
[--json PATH]``
    Run one experiment (or ``all``) and print the paper-layout table.
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
``repro sweep --field F --values a,b,c [--out PATH] [--listen HOST:PORT] ...``
    One-dimensional parameter sweep under one fabric broker; ``--out``
    persists every TrialSet to one JSON document.  Interrupted sweeps
    resume from the trial cache — re-running the same command recomputes
    only missing trials.  With ``--listen``, remote ``repro fabric
    worker`` processes may attach mid-sweep; the broker prints a
    ``REPRO-FABRIC-READY {...}`` line once its socket is bound.
``repro fabric worker --connect HOST:PORT`` / ``repro fabric status``
    Run trials for a listening sweep; show a sweep's live progress.
``repro cache [--clear]``
    Show (or empty) the content-addressed trial cache.
``repro lint [paths] [--json] [--select R00x,...]``
    Run the reprolint determinism/correctness rules (R001-R009, see
    docs/static-analysis.md); exits non-zero on any error finding.
``repro serve [--port P] [--join HOST:PORT] [--ring N] [--strategy S] ...``
    Run one live asyncio DHT node on real TCP sockets (or, with
    ``--ring N``, a local multi-process ring whose every node gets all
    the node flags given).  Prints a ``REPRO-SERVE-READY {...}`` line
    once the node is addressable; stops gracefully on SIGINT/SIGTERM.
    See docs/serving.md.
``repro stress TARGET [TARGET ...] [--duration S] [--concurrency N] ...``
    Replay seeded concurrent get/put traffic against live nodes and
    report wall-clock latency percentiles plus rebalance-convergence
    time (``--json`` for the machine-readable summary; exits non-zero
    if not a single request succeeded).

Caching: completed trials persist under ``~/.cache/repro`` (override
with ``REPRO_CACHE_DIR``), so re-running any experiment is a cache hit.
``--no-cache`` (or ``REPRO_CACHE=0``) computes everything fresh.

Flags that set a config field (:class:`~repro.config.SimulationConfig`,
``FailureModel``, ``AdversaryModel``, ``LiveNodeConfig``,
``StressConfig``, ``RetryPolicy``) are declared once, as a
``(flag, field, help)`` row: their type, default and choices come from
the dataclass field, and a value the dataclass rejects is reported as a
usage error (exit status 2).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import typing
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Any, Callable, TypeVar

from repro.config import (
    STRATEGY_NAMES,
    AdversaryModel,
    FailureModel,
    SimulationConfig,
)
from repro.errors import ConfigError, ProtocolError
from repro.net import node as live
from repro.net.stress import StressConfig
from repro.net.transport import RetryPolicy

__all__ = ["main", "build_parser"]

T = TypeVar("T")

#: ``(flag, dataclass field, help)`` rows: each flag's type, default and
#: choices come from the field, so a knob's default lives only on its
#: dataclass.  The flag's dest is the field name.
FlagTable = tuple[tuple[str, str, str | None], ...]

_SIM_SIZE: FlagTable = (
    ("--nodes", "n_nodes", None),
    ("--tasks", "n_tasks", None),
    ("--seed", "seed", None),
)
#: the flags of every one-config command (simulate, sweep, profile, trace)
_SIM_CORE: FlagTable = (
    (("--strategy", "strategy", None),)
    + _SIM_SIZE
    + (("--churn", "churn_rate", None),)
)
_SIM_PAPER: FlagTable = (
    ("--heterogeneous", "heterogeneous", None),
    ("--work-measurement", "work_measurement", None),
    ("--max-sybils", "max_sybils", None),
    ("--sybil-threshold", "sybil_threshold", None),
    ("--successors", "num_successors", None),
)
_FAILURE_FLAGS: FlagTable = (
    ("--crash-fraction", "crash_fraction",
     "fraction of churn departures that crash without handoff"),
    ("--replication", "replication_factor",
     "backup copies per task: 'full' (default) or an integer number of "
     "successors (0 = no replication)"),
    ("--loss-rate", "message_loss_rate",
     "protocol-level message loss probability (chord layer)"),
    ("--crash-detection-ticks", "crash_detection_ticks",
     "ticks a crashed node still looks alive (chord layer)"),
)
_ADVERSARY_FLAGS: FlagTable = (
    ("--adv-eclipse-sybils", "eclipse_sybils",
     "coordinated Sybil identities concentrated in a victim arc"),
    ("--adv-eclipse-arc", "eclipse_arc_fraction",
     "ring fraction the eclipse identities squeeze into"),
    ("--adv-free-riders", "free_riders",
     "adversarial joiners that accept keys and consume nothing"),
    ("--adv-churn-amplification", "churn_amplification",
     "per-round probability of crashing the heaviest honest owner"),
    ("--adv-attack-tick", "attack_tick",
     "tick at which the planned attack identities start joining"),
    ("--adv-join-cost", "join_cost",
     "defense: identity-creation cost against a per-node budget "
     "(0 = defense off)"),
    ("--adv-detection-interval", "detection_interval",
     "defense: ticks between per-arc Sybil-density sweeps "
     "(0 = defense off)"),
    ("--adv-density-threshold", "density_threshold",
     "slots one owner may hold in a single detection arc"),
)
_NODE_FLAGS: FlagTable = (
    ("--seed", "seed", None),
    ("--bits", "bits", None),
    ("--successors", "n_successors", None),
    ("--strategy", "strategy",
     "live balancing strategy driven from the stabilize loop"),
    ("--sybil-threshold", "sybil_threshold", None),
    ("--max-sybils", "max_sybils", None),
    ("--decision-interval", "decision_interval",
     "maintenance cycles between balancer decision rounds"),
    ("--maintenance-interval", "maintenance_interval",
     "seconds between maintenance cycles (seeded jitter applied)"),
    ("--heartbeat-interval", "heartbeat_interval", None),
)
_RETRY_FLAGS: FlagTable = (
    ("--timeout", "timeout", "per-message transport timeout in seconds"),
    ("--retries", "retries",
     "transparent resends after transient transport failures"),
)
_STRESS_FLAGS: FlagTable = (
    ("--duration", "duration", None),
    ("--concurrency", "concurrency", None),
    ("--seed", "seed", None),
    ("--bits", "bits", None),
    ("--key-dist", "key_distribution",
     "key skew (same models as the simulator)"),
    ("--n-clusters", "n_clusters", None),
    ("--cluster-spread", "cluster_spread", None),
    ("--zipf-exponent", "zipf_exponent", None),
    ("--get-fraction", "get_fraction", None),
    ("--key-pool", "key_pool", None),
    ("--poll-interval", "poll_interval", None),
    ("--imbalance-threshold", "imbalance_threshold",
     "max/mean identity load counted as rebalance-converged"),
)
#: ``profile`` and ``trace`` default to a smaller network than the paper's
_ONE_RUN_SIZE = {"n_nodes": 500, "n_tasks": 50_000}
#: fields ``LocalCluster`` sets itself; ``serve --ring`` forwards every
#: other node flag to each child verbatim
_CLUSTER_FIELDS = (
    "seed", "strategy", "bits", "sybil_threshold", "max_sybils",
    "maintenance_interval",
)


def _replication(value: str) -> int | None:
    """``--replication``: ``full`` (perfect backups) or a successor count."""
    if value == "full":
        return None
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be 'full' or an integer, got {value!r}"
        ) from None


def _add_fields(
    parser: argparse.ArgumentParser,
    cls: type,
    table: FlagTable,
    **overrides: dict[str, Any],
) -> None:
    """Add one flag per ``table`` row, typed and defaulted by ``cls``.

    A bool field becomes ``store_true``, a ``Literal`` field takes its
    choices from the annotation, ``replication_factor`` parses ``full``
    (its ``None``) or an integer, and any other field parses with its
    default's type.  ``overrides[field]`` replaces derived
    ``add_argument`` keywords (a per-command default, a ``str`` field's
    choices).
    """
    hints = typing.get_type_hints(cls)
    specs = {f.name: f for f in fields(cls)}
    # _from_args reports a config the dataclass rejects through the
    # parser that built its flags: a one-line usage error, not a traceback
    parser.set_defaults(usage_error=parser.error)
    for flag, name, help_text in table:
        default = specs[name].default
        assert default is not MISSING, f"{cls.__name__}.{name} has no default"
        kwargs: dict[str, Any]
        if isinstance(default, bool):
            kwargs = {"action": "store_true"}
        elif name == "replication_factor":
            kwargs = {"type": _replication, "default": "full"}
        elif typing.get_origin(hints[name]) is typing.Literal:
            kwargs = {
                "choices": typing.get_args(hints[name]),
                "default": default,
            }
        elif isinstance(default, str):
            kwargs = {"default": default}
        else:
            kwargs = {"type": type(default), "default": default}
        kwargs.update(overrides.get(name, {}))
        parser.add_argument(flag, dest=name, help=help_text, **kwargs)


def _from_args(
    cls: Callable[..., T], args: argparse.Namespace, table: FlagTable, **extra
) -> T:
    """``cls`` built from ``table``'s parsed flags plus ``extra`` fields.

    A value the dataclass rejects exits as a usage error (status 2).
    """
    values = {name: getattr(args, name) for _, name, _ in table}
    try:
        return cls(**values, **extra)
    except (ConfigError, ProtocolError) as exc:
        args.usage_error(str(exc))
        raise  # unreachable: usage_error exits


def _add_sim_core(parser: argparse.ArgumentParser, **defaults: Any) -> None:
    """The :data:`_SIM_CORE` flags, with per-command field defaults."""
    _add_fields(
        parser, SimulationConfig, _SIM_CORE,
        strategy={"choices": STRATEGY_NAMES},
        **{name: {"default": value} for name, value in defaults.items()},
    )


def _add_trial_options(
    parser: argparse.ArgumentParser, *, trials: int
) -> None:
    """How a batch of trials runs: count, workers, cache, retry."""
    parser.add_argument("--trials", type=int, default=trials)
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="local worker processes (0 = auto, honors REPRO_N_JOBS; "
        "1 = in-process)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="recompute every trial (skip the content-addressed cache)",
    )
    parser.add_argument(
        "--retries", type=int, default=1,
        help="re-dispatches of a failed trial (fresh worker, same seed)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Autonomous Load Balancing in Distributed "
            "Hash Tables Using Churn and the Sybil Attack'"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiment ids")
    run_p = sub.add_parser("run", help="run an experiment (or 'all')")
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

    sim_p = sub.add_parser("simulate", help="one ad-hoc simulation")
    _add_sim_core(sim_p)
    _add_fields(sim_p, SimulationConfig, _SIM_PAPER)
    _add_fields(sim_p, FailureModel, _FAILURE_FLAGS)
    _add_fields(sim_p, AdversaryModel, _ADVERSARY_FLAGS)
    _add_trial_options(sim_p, trials=1)
    sim_p.add_argument(
        "--sanitize", action="store_true",
        help="enable the runtime determinism sanitizer (REPRO_SANITIZE=1): "
        "raises when two concurrent consumers share one RNG stream",
    )

    sweep_p = sub.add_parser(
        "sweep",
        help="one-dimensional parameter sweep under a fabric broker "
        "(resumable; workers may attach mid-sweep)",
    )
    sweep_p.add_argument(
        "--field", required=True,
        choices=[f.name for f in fields(SimulationConfig)],
        help="SimulationConfig field to vary",
    )
    sweep_p.add_argument(
        "--values", required=True,
        help="comma-separated values (JSON literals: 0.01, 1000, ...)",
    )
    _add_sim_core(sweep_p)
    sweep_p.add_argument("--out", type=Path, default=None,
                         help="persist every TrialSet to this JSON file")
    sweep_p.add_argument(
        "--crn", action="store_true",
        help="common random numbers: reuse identical trial seeds at "
        "every sweep point (variance reduction; off by default)",
    )
    _add_trial_options(sweep_p, trials=3)
    sweep_p.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="accept remote `repro fabric worker` processes here "
        "(port 0 = ephemeral; the bound address is printed on a "
        "REPRO-FABRIC-READY line)",
    )
    sweep_p.add_argument(
        "--lease-timeout", type=float, default=None,
        help="seconds a worker may hold a unit without settling it "
        "before the unit is requeued as timed out (default: 120 for "
        "attached workers, none for --jobs workers; a value given here "
        "holds both)",
    )
    sweep_p.add_argument(
        "--status-file", type=Path, default=None,
        help="live status JSON path (default: <cache dir>/"
        "fabric-status.json)",
    )

    fab_p = sub.add_parser(
        "fabric", help="distributed trial fabric: attachable workers, status"
    )
    fab_sub = fab_p.add_subparsers(dest="fabric_command", required=True)

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
    _add_sim_core(prof_p, **_ONE_RUN_SIZE)
    prof_p.add_argument(
        "--json", action="store_true",
        help="emit a machine-readable JSON document instead of tables",
    )

    trace_p = sub.add_parser(
        "trace", help="one simulation with a streaming JSONL event trace"
    )
    _add_sim_core(trace_p, **_ONE_RUN_SIZE)
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
    _add_fields(theory_p, SimulationConfig, _SIM_SIZE)

    lint_p = sub.add_parser(
        "lint", help="run the reprolint determinism/correctness rules"
    )
    lint_p.add_argument(
        "paths", nargs="*", type=Path, default=None,
        help="files/directories to lint (default: src, else the package)",
    )
    lint_p.add_argument(
        "--json", action="store_true",
        help="emit the byte-stable JSON report instead of text",
    )
    lint_p.add_argument(
        "--select", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    lint_p.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
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
    _add_fields(
        serve_p, live.LiveNodeConfig, _NODE_FLAGS,
        strategy={"choices": live.LIVE_STRATEGIES},
    )
    _add_fields(serve_p, RetryPolicy, _RETRY_FLAGS)
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
    _add_fields(stress_p, StressConfig, _STRESS_FLAGS)
    # stress retries less eagerly than a node: its policy factory's values
    policy = {f.name: f for f in fields(StressConfig)}["policy"]
    factory = policy.default_factory
    assert callable(factory)
    stress_policy = factory()
    _add_fields(
        stress_p, RetryPolicy, _RETRY_FLAGS,
        **{
            name: {"default": getattr(stress_policy, name)}
            for _, name, _ in _RETRY_FLAGS
        },
    )
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
    from repro.fabric.broker import trial_summary
    from repro.viz.export import write_csv, write_json

    ids = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    manifests = []
    for exp_id in ids:
        result, manifest = run_with_manifest(
            exp_id, scale=args.scale, seed=args.seed, n_jobs=args.jobs
        )
        manifests.append(manifest)
        print(result.render())
        print(f"  ({trial_summary(manifest.counters, manifest.wall_s)})\n")
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


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.sim.trials import run_trials
    from repro.util.tables import format_kv

    if args.sanitize:
        from repro.sanitize import ENV_FLAG

        os.environ[ENV_FLAG] = "1"
    config = _from_args(
        SimulationConfig, args, _SIM_CORE + _SIM_PAPER,
        failures=_from_args(FailureModel, args, _FAILURE_FLAGS),
        adversary=_from_args(AdversaryModel, args, _ADVERSARY_FLAGS),
    )
    # perf_counter, not time.time: monotonic, so a wall-clock adjustment
    # mid-run cannot report a negative duration (R002 allowlists cli.py)
    t0 = time.perf_counter()
    trials = run_trials(
        config,
        args.trials,
        n_jobs=args.jobs,
        retries=args.retries,
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


#: Line prefix `repro sweep --listen` prints once its attach socket is
#: bound, followed by a JSON object with host/port/status_file —
#: orchestration (the fabric rows of scripts/smoke.py) waits for it
#: exactly like LocalCluster waits for REPRO-SERVE-READY.
FABRIC_READY_PREFIX = "REPRO-FABRIC-READY "


def _default_status_file() -> Path:
    from repro.sim.cache import default_cache_dir

    return default_cache_dir() / "fabric-status.json"


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json as _json

    from repro.fabric.broker import Broker, trial_summary
    from repro.net.transport import parse_address
    from repro.sim.persistence import save_sweep
    from repro.sim.trials import sweep_grid
    from repro.util.tables import format_table

    values = _parse_sweep_values(args.values)
    base = _from_args(SimulationConfig, args, _SIM_CORE)
    grid = sweep_grid(
        base, args.field, values, args.trials, common_random_numbers=args.crn
    )
    status_path = args.status_file or _default_status_file()
    listen = parse_address(args.listen) if args.listen else None
    t0 = time.perf_counter()
    broker = Broker(
        grid,
        n_jobs=args.jobs,
        retries=args.retries,
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
    counters = broker.metrics.as_dict()["counters"]
    print(f"  ({trial_summary(counters, time.perf_counter() - t0)})")
    if args.out:
        path = save_sweep(sets, args.out)
        print(f"  wrote {path}")
    return 0


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

    config = _from_args(SimulationConfig, args, _SIM_CORE)
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
            label,
            row["calls"],
            f"{row['seconds']:.4f}",
            f"{100.0 * row['seconds'] / total:.1f}%" if total else "-",
        ]
        for name, entry in breakdown["phases"].items()
        # sub-phases follow their phase, indented
        for label, row in [(name, entry)] + [
            ("  " + child, sub) for child, sub in entry.get("sub", {}).items()
        ]
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

    config = _from_args(SimulationConfig, args, _SIM_CORE)
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

    config = _from_args(SimulationConfig, args, _SIM_SIZE)
    nodes, tasks = config.n_nodes, config.n_tasks
    engine = TickEngine(config)
    stats = load_stats(engine.network_loads())
    rows = [
        [
            "median workload",
            theory.expected_median_workload(nodes, tasks),
            stats.median,
        ],
        [
            "workload sigma",
            theory.expected_workload_std(nodes, tasks),
            stats.std,
        ],
        [
            "max workload",
            theory.expected_max_workload(nodes, tasks),
            stats.max,
        ],
        [
            "baseline runtime factor",
            theory.expected_baseline_factor(nodes),
            "(run `repro simulate` to measure)",
        ],
    ]
    print(
        format_table(
            ["quantity", "theory", "measured (one draw)"],
            rows,
            title=f"Exponential-arc theory, {nodes} nodes / {tasks} tasks",
        )
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import all_rules, lint_paths, render_human, render_json

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
    report = lint_paths(paths, select=select)
    if args.json:
        print(render_json(report), end="")
    else:
        print(render_human(report))
    return report.exit_code


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.sanitize:
        # Set before any node (or ring subprocess) starts: children
        # inherit the environment, so the whole ring is sanitized.
        from repro.sanitize import ENV_FLAG

        os.environ[ENV_FLAG] = "1"
    # built for --ring too, so a bad value fails here, not in every child
    config = _from_args(
        live.LiveNodeConfig, args, _NODE_FLAGS,
        policy=_from_args(RetryPolicy, args, _RETRY_FLAGS),
    )
    if args.ring is not None:
        return _serve_ring(args)
    import asyncio
    import json as _json
    import signal

    from repro import sanitize
    from repro.net.cluster import READY_PREFIX
    from repro.net.transport import parse_address

    async def _run() -> int:
        node = live.LiveNode(args.host, args.port, config, node_id=args.id)
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

    forwarded = [
        token
        for flag, name, _ in _NODE_FLAGS + _RETRY_FLAGS
        if name not in _CLUSTER_FIELDS
        for token in (flag, str(getattr(args, name)))
    ]
    cluster = LocalCluster(
        args.ring,
        host=args.host,
        extra_args=forwarded,
        **{name: getattr(args, name) for name in _CLUSTER_FIELDS},
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

    from repro.net.stress import run_stress_sync
    from repro.net.transport import parse_address
    from repro.obs import JsonlTraceSink
    from repro.util.tables import format_kv

    if args.sanitize:
        from repro.sanitize import ENV_FLAG

        os.environ[ENV_FLAG] = "1"
    config = _from_args(
        StressConfig, args, _STRESS_FLAGS,
        targets=tuple(parse_address(t) for t in args.targets),
        policy=_from_args(RetryPolicy, args, _RETRY_FLAGS),
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
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "fabric":
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
