"""Seeded concurrent load generator for a live ring (``repro stress``).

Replays get/put traffic against one or more :class:`~repro.net.node.LiveNode`
endpoints and measures what the tick simulator cannot: **wall-clock**
request latency (p50/p95/p99) and the wall-clock time the ring takes to
rebalance under a strategy.

Structure:

* ``concurrency`` asyncio workers each drive an independent request
  stream.  Everything *decided* — op mix, key choice, target choice —
  comes from per-worker generators spawned off ``--seed``, and the key
  pool is drawn by :func:`repro.sim.keydist.generate_task_keys`, so a
  stress run replays the exact key skew (uniform / clustered / Zipf) the
  simulations use.  Only the *measured* values (latencies, convergence
  seconds) are wall-clock.
* a poller task samples every target's ``stats`` op on a fixed cadence,
  tracking the load imbalance across all live identities (max/mean).
  The first sample at or below ``imbalance_threshold`` with work in the
  system marks **rebalance convergence**; a SIGKILLed target just drops
  out of the sample (counted as unreachable) instead of failing the run.
* every request and poll is recorded through the standard observability
  surface: a :class:`~repro.obs.metrics.MetricsRegistry` and any
  ``record(tick, kind, **fields)`` trace sink (JSONL for CI artifacts).

:func:`summarize` is a pure function from recorded samples to the
``--json`` summary dict, so its exact schema and arithmetic are unit
tested without opening a socket or sleeping.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Protocol

import numpy as np

from repro import sanitize
from repro.config import KeyDistribution, SimulationConfig
from repro.errors import ProtocolError, TransientNetworkError
from repro.hashspace.idspace import IdSpace
from repro.net.transport import Address, RetryPolicy, async_request
from repro.obs.metrics import MetricsRegistry
from repro.sim.keydist import generate_task_keys
from repro.util.rng import make_rng, spawn_seeds

__all__ = [
    "StressConfig",
    "StressOutcome",
    "run_stress",
    "run_stress_sync",
    "summarize",
]

SUMMARY_SCHEMA = "repro.stress.v1"


class _TraceSink(Protocol):
    def record(self, tick: int, kind: str, **fields: Any) -> None: ...


@dataclass(frozen=True)
class StressConfig:
    """Parameters of one stress run."""

    targets: tuple[Address, ...]
    duration: float = 5.0
    concurrency: int = 8
    seed: int = 0
    bits: int = 64
    #: key skew, straight from the simulator's workload models
    key_distribution: KeyDistribution = "uniform"
    n_clusters: int = 8
    cluster_spread: float = 0.01
    zipf_exponent: float = 1.2
    #: fraction of post-prefill requests that are gets
    get_fraction: float = 0.5
    #: puts each worker issues before mixing in gets
    prefill: int = 4
    #: distinct keys drawn from the distribution
    key_pool: int = 512
    poll_interval: float = 0.5
    #: max/mean identity load at or below this counts as balanced
    imbalance_threshold: float = 2.0
    policy: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(timeout=1.0, retries=1)
    )

    def __post_init__(self) -> None:
        if not self.targets:
            raise ProtocolError("stress needs at least one target")
        if self.duration <= 0:
            raise ProtocolError(f"duration must be > 0, got {self.duration}")
        if self.concurrency < 1:
            raise ProtocolError(
                f"concurrency must be >= 1, got {self.concurrency}"
            )
        if not 0.0 <= self.get_fraction <= 1.0:
            raise ProtocolError(
                f"get_fraction must be in [0, 1], got {self.get_fraction}"
            )
        if self.key_pool < 1:
            raise ProtocolError(f"key_pool must be >= 1, got {self.key_pool}")
        if self.imbalance_threshold < 1.0:
            raise ProtocolError(
                "imbalance_threshold is a max/mean ratio; must be >= 1, "
                f"got {self.imbalance_threshold}"
            )


@dataclass
class StressOutcome:
    """Raw samples a run produced (input to :func:`summarize`).

    ``requests`` entries: ``{"op", "ok", "kind", "latency", "hops"}``
    where ``kind`` is the error class (``transient``/``transport``/
    ``app``) or ``None`` and ``latency`` is in seconds.
    ``polls`` entries: ``{"elapsed", "loads", "unreachable"}`` with
    ``loads`` the per-identity primary counts of every reachable target.
    """

    requests: list[dict[str, Any]] = field(default_factory=list)
    polls: list[dict[str, Any]] = field(default_factory=list)
    elapsed: float = 0.0


def _error_kind(exc: ProtocolError) -> str:
    if isinstance(exc, TransientNetworkError):
        return "transient"
    if getattr(exc, "transport_failure", False):
        return "transport"
    return "app"


def _imbalance(loads: list[int]) -> float | None:
    """Max/mean identity load; ``None`` while the ring holds no work."""
    if not loads:
        return None
    total = sum(loads)
    if total == 0:
        return None
    return max(loads) / (total / len(loads))


def _percentiles(latencies_ms: list[float]) -> dict[str, float | None]:
    if not latencies_ms:
        return {"p50": None, "p95": None, "p99": None, "mean": None, "max": None}
    arr = np.asarray(latencies_ms, dtype=float)
    p50, p95, p99 = np.percentile(arr, [50.0, 95.0, 99.0])
    return {
        "p50": round(float(p50), 3),
        "p95": round(float(p95), 3),
        "p99": round(float(p99), 3),
        "mean": round(float(arr.mean()), 3),
        "max": round(float(arr.max()), 3),
    }


def summarize(outcome: StressOutcome, config: StressConfig) -> dict[str, Any]:
    """The deterministic-schema ``--json`` summary for a run.

    Pure: every field is computed from the recorded samples, so tests
    pin the schema and the convergence/error arithmetic with hand-built
    outcomes (no sockets, no sleeping).
    """
    reqs = outcome.requests
    successes = [r for r in reqs if r["ok"]]
    errors = {"transient": 0, "transport": 0, "app": 0}
    for r in reqs:
        if not r["ok"]:
            errors[r["kind"]] = errors.get(r["kind"], 0) + 1
    latencies_ms = [r["latency"] * 1000.0 for r in successes]

    converged_at: float | None = None
    final_imbalance: float | None = None
    for poll in outcome.polls:
        ratio = _imbalance(poll["loads"])
        if ratio is None:
            continue
        final_imbalance = ratio
        if converged_at is None and ratio <= config.imbalance_threshold:
            converged_at = poll["elapsed"]

    elapsed = outcome.elapsed if outcome.elapsed > 0 else config.duration
    return {
        "schema": SUMMARY_SCHEMA,
        "seed": config.seed,
        "duration_s": round(elapsed, 3),
        "concurrency": config.concurrency,
        "targets": len(config.targets),
        "key_distribution": config.key_distribution,
        "requests": {
            "total": len(reqs),
            "success": len(successes),
            "errors": dict(sorted(errors.items())),
            "error_rate": (
                round(1.0 - len(successes) / len(reqs), 4) if reqs else None
            ),
        },
        "latency_ms": _percentiles(latencies_ms),
        "throughput_rps": (
            round(len(successes) / elapsed, 2) if elapsed > 0 else None
        ),
        "rebalance": {
            "threshold": config.imbalance_threshold,
            "samples": len(outcome.polls),
            "converged": converged_at is not None,
            "seconds": (
                round(converged_at, 3) if converged_at is not None else None
            ),
            "final_imbalance": (
                round(final_imbalance, 3)
                if final_imbalance is not None
                else None
            ),
        },
    }


# ----------------------------------------------------------------------
# the run itself
# ----------------------------------------------------------------------
async def _one_request(
    target: Address,
    payload: dict[str, Any],
    *,
    policy: RetryPolicy,
    clock: Any,
) -> dict[str, Any]:
    op = payload["op"].removeprefix("client_")
    start = clock()
    try:
        value = await async_request(target, payload, policy=policy)
    except ProtocolError as exc:
        return {
            "op": op,
            "ok": False,
            "kind": _error_kind(exc),
            "latency": clock() - start,
            "hops": None,
        }
    return {
        "op": op,
        "ok": True,
        "kind": None,
        "latency": clock() - start,
        "hops": value.get("hops"),
    }


async def _worker(
    index: int,
    config: StressConfig,
    keys: list[int],
    rng: np.random.Generator,
    outcome: StressOutcome,
    metrics: MetricsRegistry,
    trace: _TraceSink | None,
    deadline: float,
    clock: Any,
) -> None:
    stored: list[int] = []
    seq = 0
    while clock() < deadline:
        target = config.targets[int(rng.integers(0, len(config.targets)))]
        do_get = (
            seq >= config.prefill
            and stored
            and float(rng.random()) < config.get_fraction
        )
        if do_get:
            key = stored[int(rng.integers(0, len(stored)))]
            payload: dict[str, Any] = {"op": "client_get", "key": key}
        else:
            key = keys[int(rng.integers(0, len(keys)))]
            payload = {
                "op": "client_put",
                "key": key,
                "value": {"w": index, "n": seq},
            }
        record = await _one_request(
            target, payload, policy=config.policy, clock=clock
        )
        if record["ok"] and not do_get:
            stored.append(key)
        outcome.requests.append(record)
        metrics.inc("stress.requests")
        if record["ok"]:
            metrics.inc("stress.success")
        else:
            metrics.inc(f"stress.errors.{record['kind']}")
        if trace is not None:
            trace.record(
                len(outcome.requests),
                "request",
                worker=index,
                op=record["op"],
                ok=record["ok"],
                error=record["kind"],
                latency_ms=round(record["latency"] * 1000.0, 3),
                hops=record["hops"],
            )
        seq += 1


async def _poller(
    config: StressConfig,
    outcome: StressOutcome,
    metrics: MetricsRegistry,
    trace: _TraceSink | None,
    start: float,
    deadline: float,
    clock: Any,
) -> None:
    while clock() < deadline:
        loads: list[int] = []
        unreachable = 0
        for target in config.targets:
            try:
                stats = await async_request(
                    target, {"op": "stats"}, policy=config.policy
                )
            except ProtocolError:
                unreachable += 1
                continue
            loads.extend(
                int(ident["load"]) for ident in stats["identities"].values()
            )
        elapsed = clock() - start
        outcome.polls.append(
            {
                "elapsed": elapsed,
                "loads": sorted(loads),
                "unreachable": unreachable,
            }
        )
        metrics.inc("stress.polls")
        if unreachable:
            metrics.inc("stress.poll_unreachable", unreachable)
        if trace is not None:
            ratio = _imbalance(loads)
            trace.record(
                len(outcome.polls),
                "poll",
                elapsed_s=round(elapsed, 3),
                identities=len(loads),
                load_total=sum(loads),
                imbalance=round(ratio, 3) if ratio is not None else None,
                unreachable=unreachable,
            )
        await asyncio.sleep(config.poll_interval)


async def run_stress(
    config: StressConfig,
    *,
    metrics: MetricsRegistry | None = None,
    trace: _TraceSink | None = None,
) -> dict[str, Any]:
    """Run the load generator and return the summary dict."""
    metrics = metrics if metrics is not None else MetricsRegistry()
    space = IdSpace(config.bits)
    sim_cfg = SimulationConfig(
        seed=config.seed,
        bits=config.bits,
        key_distribution=config.key_distribution,
        n_clusters=config.n_clusters,
        cluster_spread=config.cluster_spread,
        zipf_exponent=config.zipf_exponent,
    )
    key_seed, *worker_seeds = spawn_seeds(config.seed, config.concurrency + 1)
    keys = [
        int(k)
        for k in generate_task_keys(
            config.key_pool, sim_cfg, space, make_rng(key_seed)
        )
    ]
    outcome = StressOutcome()
    clock = time.perf_counter
    start = clock()
    deadline = start + config.duration
    # One spawned stream per concurrent worker — never a shared
    # generator (R009).  Under REPRO_SANITIZE=1 each stream is claimed
    # by its worker and the loop watches for blocking callbacks.
    worker_rngs = [make_rng(seed) for seed in worker_seeds]
    if sanitize.enabled():
        sanitize.install_asyncio_watch(asyncio.get_running_loop())
        for i, rng in enumerate(worker_rngs):
            sanitize.track_rng(rng, f"stress-worker-{i}")
    tasks = [
        asyncio.create_task(
            _worker(
                i,
                config,
                keys,
                worker_rngs[i],
                outcome,
                metrics,
                trace,
                deadline,
                clock,
            )
        )
        for i in range(config.concurrency)
    ]
    tasks.append(
        asyncio.create_task(
            _poller(config, outcome, metrics, trace, start, deadline, clock)
        )
    )
    await asyncio.gather(*tasks)
    outcome.elapsed = clock() - start
    summary = summarize(outcome, config)
    metrics.gauge("stress.elapsed_s", outcome.elapsed)
    for name, value in summary["latency_ms"].items():
        if value is not None:
            metrics.gauge(f"stress.latency_ms.{name}", value)
    if trace is not None:
        trace.record(
            len(outcome.requests),
            "summary",
            **{k: v for k, v in summary.items() if not isinstance(v, dict)},
        )
    return summary


def run_stress_sync(
    config: StressConfig,
    *,
    metrics: MetricsRegistry | None = None,
    trace: _TraceSink | None = None,
) -> dict[str, Any]:
    """Blocking entry point used by the CLI."""
    return asyncio.run(run_stress(config, metrics=metrics, trace=trace))
