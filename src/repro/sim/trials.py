"""Multi-trial execution: reproducible seeds, fault tolerance, caching.

Every table in the paper is "the average of 100 trials".  This module
is the *semantic* surface for running N independent trials of a
configuration — seeding rules, failure records, run statistics — while
the actual dispatch lives in :mod:`repro.fabric`: :func:`run_trials`
and :func:`sweep` build a trial grid and hand it to a
:class:`~repro.fabric.broker.Broker` (single-process by default), so
every caller gains the fabric's incremental caching, retry machinery and
remote-worker attach path without signature changes.

Seeding: trial *i* of a config with seed *s* always uses the *i*-th child
of ``SeedSequence(s)``, so results are bit-reproducible regardless of
``n_jobs``, caching, retries, interruption, or which fabric worker ran
the trial.

Fault tolerance: trials are dispatched individually (not ``Pool.map``),
so one crashed or raising worker cannot discard its finished siblings.
Failed trials are retried with the same seed up to ``retries`` times;
what still fails raises a structured :class:`~repro.errors.TrialError`
naming each trial index and seed path.  Completed results are persisted
through :mod:`repro.sim.cache` as they arrive, so a killed run resumes
at the first missing trial.

Environment knobs
-----------------
``REPRO_N_JOBS``
    Overrides :func:`default_n_jobs` (``n_jobs=0``) — pin worker counts
    on CI or laptops.
``REPRO_CACHE`` / ``REPRO_CACHE_DIR``
    Disable / relocate the trial cache (see :mod:`repro.sim.cache`).
``REPRO_TRIAL_DELAY_MS``
    Testing hook: sleep this long inside each trial, so interruption
    tests can reliably SIGKILL a run midway.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, replace
from hashlib import sha256
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.config import SimulationConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import Profiler
from repro.obs.trace import TraceSink
from repro.sim.cache import TrialCache
from repro.sim.engine import TickEngine
from repro.sim.results import SimulationResult, TrialSet
from repro.util.rng import make_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fabric.queue import GridPoint

__all__ = [
    "run_trial",
    "run_trials",
    "sweep",
    "sweep_grid",
    "default_n_jobs",
    "TrialFailure",
    "RunStats",
    "reset_run_stats",
    "run_stats",
]

TrialFn = Callable[
    [SimulationConfig, "np.random.SeedSequence | None"], SimulationResult
]


def run_trial(
    config: SimulationConfig,
    seed_seq: np.random.SeedSequence | None = None,
    *,
    trace: "TraceSink | None" = None,
    profiler: "Profiler | None" = None,
) -> SimulationResult:
    """Run one trial; ``seed_seq`` overrides the config seed when given.

    ``trace`` and ``profiler`` attach observability side channels to the
    engine (see :mod:`repro.obs`); both leave the seeded result
    bit-identical.  They are keyword-only and unpicklable-by-design
    sinks stay out of multi-process paths: :func:`run_trials` always
    calls this without them.
    """
    rng = make_rng(seed_seq) if seed_seq is not None else None
    return TickEngine(config, rng=rng, trace=trace, profiler=profiler).run()


def default_n_jobs() -> int:
    """A reasonable process count: logical CPUs, capped at 8.

    ``os.cpu_count()`` reports *logical* CPUs (hyperthreads included);
    trials are CPU-bound so more workers than that never helps.  Set
    ``REPRO_N_JOBS`` to pin the count explicitly (CI, shared machines).
    """
    override = os.environ.get("REPRO_N_JOBS")
    if override:
        try:
            n = int(override)
        except ValueError:
            raise ConfigError(
                f"REPRO_N_JOBS must be an integer, got {override!r}"
            ) from None
        if n < 1:
            raise ConfigError(f"REPRO_N_JOBS must be >= 1, got {n}")
        return n
    return max(1, min(8, os.cpu_count() or 1))


# ----------------------------------------------------------------------
# failure records and run statistics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrialFailure:
    """What went wrong with one trial, with enough context to replay it.

    ``seed_entropy`` and ``spawn_key`` pin the exact
    ``numpy.random.SeedSequence`` child, so
    ``run_trial(config, SeedSequence(entropy, spawn_key=spawn_key))``
    reproduces the failure deterministically.
    """

    trial_index: int
    seed_entropy: int | None
    spawn_key: tuple[int, ...]
    attempts: int
    error: str

    def __str__(self) -> str:
        return (
            f"trial {self.trial_index} (entropy={self.seed_entropy}, "
            f"spawn_key={self.spawn_key}) failed after "
            f"{self.attempts} attempt(s): {self.error}"
        )


@dataclass
class RunStats:
    """Aggregate accounting of trial work since the last reset.

    Accumulated by every :func:`run_trials` call into a module-level
    collector so the CLI and the experiment report can surface
    done/cached/failed counts and wall-clock per trial without threading
    a stats object through every experiment signature.

    ``trials_remote`` counts trials settled by attached ``repro fabric
    worker`` processes (a subset of ``trials_run``).
    """

    trials_run: int = 0
    trials_cached: int = 0
    trials_failed: int = 0
    trials_remote: int = 0
    retries: int = 0
    trial_seconds: float = 0.0
    trials_truncated: int = 0
    trials_data_loss: int = 0

    @property
    def trials_total(self) -> int:
        return self.trials_run + self.trials_cached

    @property
    def avg_trial_seconds(self) -> float:
        return self.trial_seconds / self.trials_run if self.trials_run else 0.0

    def note_outcome(self, result: SimulationResult) -> None:
        """Record a settled trial's ending (truncation / data loss)."""
        if not result.completed and result.termination_reason in (
            None,
            "max_ticks",
        ):
            self.trials_truncated += 1
        if result.tasks_lost > 0 or result.termination_reason in (
            "data_loss",
            "ring_empty",
        ):
            self.trials_data_loss += 1

    def as_dict(self) -> dict:
        return {
            "trials_run": self.trials_run,
            "trials_cached": self.trials_cached,
            "trials_failed": self.trials_failed,
            "trials_remote": self.trials_remote,
            "retries": self.retries,
            "trial_seconds": round(self.trial_seconds, 4),
            "avg_trial_seconds": round(self.avg_trial_seconds, 4),
            "trials_truncated": self.trials_truncated,
            "trials_data_loss": self.trials_data_loss,
        }

    def summary_line(self) -> str:
        parts = [
            f"{self.trials_total} trials",
            f"{self.trials_cached} cached",
            f"{self.trials_run} run",
        ]
        if self.trials_remote:
            parts.append(f"{self.trials_remote} remote")
        if self.retries:
            parts.append(f"{self.retries} retried")
        if self.trials_failed:
            parts.append(f"{self.trials_failed} FAILED")
        if self.trials_truncated:
            parts.append(f"{self.trials_truncated} TRUNCATED")
        if self.trials_data_loss:
            parts.append(f"{self.trials_data_loss} with data loss")
        if self.trials_run:
            parts.append(f"{self.avg_trial_seconds:.3f}s/trial")
        return ", ".join(parts)


# The collector is mutated from wherever the fabric settles trials —
# the broker's dispatch thread *and* its listener thread (remote
# settles) — so every touch goes through the lock below.  A bare
# ``_RUN_STATS.trials_run += 1`` is a read-modify-write and loses
# updates under that concurrency (the pre-fabric bug this fixes).
# ``_FABRIC_METRICS`` rides along: each finished broker merges its
# ``fabric.*`` registry here so experiment manifests can carry queue /
# lease / remote accounting without threading a registry through every
# experiment signature.
_RUN_STATS = RunStats()
_FABRIC_METRICS = MetricsRegistry()
_RUN_STATS_LOCK = threading.Lock()


def reset_run_stats() -> None:
    """Zero the module-level collectors (call before an experiment)."""
    global _RUN_STATS, _FABRIC_METRICS
    with _RUN_STATS_LOCK:
        _RUN_STATS = RunStats()
        _FABRIC_METRICS = MetricsRegistry()


def run_stats() -> RunStats:
    """Snapshot of the collector since the last reset."""
    with _RUN_STATS_LOCK:
        return replace(_RUN_STATS)


def fabric_metrics() -> MetricsRegistry:
    """Accumulated ``fabric.*`` metrics since the last reset."""
    snapshot = MetricsRegistry()
    with _RUN_STATS_LOCK:
        exported = _FABRIC_METRICS.as_dict()
    snapshot.merge_counters(exported["counters"])
    snapshot.merge_gauges(exported["gauges"])
    return snapshot


def merge_fabric_metrics(registry: MetricsRegistry) -> None:
    """Fold one broker's registry into the module collector
    (thread-safe; called by :meth:`repro.fabric.broker.Broker.run`)."""
    exported = registry.as_dict()
    with _RUN_STATS_LOCK:
        _FABRIC_METRICS.merge_counters(exported["counters"])
        _FABRIC_METRICS.merge_gauges(exported["gauges"])


def record_trial_run(
    result: SimulationResult, seconds: float, *, remote: bool = False
) -> None:
    """Thread-safe accounting for one freshly computed trial."""
    with _RUN_STATS_LOCK:
        _RUN_STATS.trials_run += 1
        _RUN_STATS.trial_seconds += seconds
        if remote:
            _RUN_STATS.trials_remote += 1
        _RUN_STATS.note_outcome(result)


def record_trial_cached(result: SimulationResult) -> None:
    """Thread-safe accounting for one cache-settled trial."""
    with _RUN_STATS_LOCK:
        _RUN_STATS.trials_cached += 1
        _RUN_STATS.note_outcome(result)


def record_retries(n: int = 1) -> None:
    """Thread-safe accounting for ``n`` trial re-dispatches."""
    with _RUN_STATS_LOCK:
        _RUN_STATS.retries += n


def record_trials_failed(n: int = 1) -> None:
    """Thread-safe accounting for ``n`` trials failed beyond retry."""
    with _RUN_STATS_LOCK:
        _RUN_STATS.trials_failed += n


# ----------------------------------------------------------------------
# public entry points (delegate to the fabric broker)
# ----------------------------------------------------------------------
def run_trials(
    config: SimulationConfig,
    n_trials: int,
    *,
    n_jobs: int = 1,
    cache: TrialCache | bool | None = None,
    retries: int = 1,
    timeout: float | None = None,
    trial_fn: TrialFn | None = None,
    progress: Callable[[dict], None] | None = None,
) -> TrialSet:
    """Run ``n_trials`` independent trials of ``config``.

    A thin wrapper over a single-point
    :class:`~repro.fabric.broker.Broker` grid — the fabric owns
    dispatch, caching, retries and timeouts; this function owns nothing
    but the signature.

    Parameters
    ----------
    config:
        The configuration; its ``seed`` field roots the trial seeds.
    n_trials:
        Number of independent repetitions (the paper uses 100).
    n_jobs:
        Worker processes; 1 = in-process (deterministic *and* easier to
        debug), 0 = :func:`default_n_jobs` (honors ``REPRO_N_JOBS``).
    cache:
        ``None`` — use the default content-addressed cache (honors
        ``REPRO_CACHE`` / ``REPRO_CACHE_DIR``); ``False`` — disable;
        ``True`` — force the default cache; or a
        :class:`~repro.sim.cache.TrialCache` instance.  Seedless configs
        (``seed=None``) are never cached.
    retries:
        Re-dispatches of a failed trial (fresh worker, same seed) before
        giving up.
    timeout:
        Seconds to wait for the next trial completion before declaring
        in-flight workers hung, killing them and retrying (parallel runs
        only).
    trial_fn:
        Replacement for :func:`run_trial` ``(config, seed_seq) ->
        SimulationResult`` — must be picklable for ``n_jobs > 1``.  Used
        by fault-injection tests and custom engines.
    progress:
        Optional callback receiving one dict per settled trial:
        ``{"trial": i, "point": p, "status": "cached"|"ok"|"err",
        "seconds": s}``.

    Raises
    ------
    TrialError
        When any trial still fails after ``retries`` re-dispatches.  The
        exception lists every failure's trial index and seed path;
        completed siblings are already in the cache, so a re-run redoes
        only the failed trials.
    """
    from repro.fabric.broker import Broker
    from repro.fabric.queue import GridPoint

    broker = Broker(
        [GridPoint(config=config, n_trials=n_trials)],
        n_jobs=n_jobs,
        cache=cache,
        retries=retries,
        timeout=timeout,
        trial_fn=trial_fn,
        progress=progress,
    )
    return broker.run()[0]


def _point_seed(root_seed: int, fld: str, value: object) -> int:
    """Deterministic 63-bit seed for one sweep point.

    Derived from ``(root seed, field name, value)`` with SHA-256 (not
    Python's salted ``hash``), so sweeps are reproducible across runs
    and machines while trials at different points draw decorrelated
    streams.
    """
    payload = f"{root_seed}|{fld}|{value!r}".encode()
    return int.from_bytes(sha256(payload).digest()[:8], "little") >> 1


def sweep_grid(
    base: SimulationConfig,
    field: str,
    values: Sequence,
    n_trials: int,
    *,
    common_random_numbers: bool = False,
) -> "list[GridPoint]":
    """The :class:`~repro.fabric.queue.GridPoint` list for a 1-D sweep.

    This is the seed-derivation half of :func:`sweep`, split out so the
    CLI's ``repro fabric run`` can build the identical grid (identical
    per-point seeds, hence identical cache keys) and hand it to a
    broker with fabric-only knobs attached.
    """
    from repro.fabric.queue import GridPoint

    points = []
    for v in values:
        point = base.with_updates(**{field: v})
        if (
            not common_random_numbers
            and field != "seed"
            and base.seed is not None
        ):
            point = point.with_updates(seed=_point_seed(base.seed, field, v))
        points.append(GridPoint(config=point, n_trials=n_trials))
    return points


def sweep(
    base: SimulationConfig,
    field: str,
    values: Sequence,
    n_trials: int,
    *,
    n_jobs: int = 1,
    common_random_numbers: bool = False,
    cache: TrialCache | bool | None = None,
    retries: int = 1,
    timeout: float | None = None,
    progress: Callable[[dict], None] | None = None,
) -> list[TrialSet]:
    """Run a one-dimensional parameter sweep (a row or column of a table).

    Each sweep point gets its own seed, derived from ``(base.seed,
    field, value)`` — historically every point reused ``base.seed``
    verbatim, which silently ran *identical* trial seed streams at every
    parameter value (common random numbers).  CRN is a legitimate
    variance-reduction design, but it must be a choice, not an accident:
    pass ``common_random_numbers=True`` to opt back in.

    The whole grid runs under **one** broker: one worker pool for the
    sweep (instead of one per point), work units interleaving freely
    across points, and — through ``repro fabric run`` — remote workers
    that join mid-sweep.  Completion is recorded per trial in the
    content-addressed cache, so an interrupted sweep re-run resumes at
    the first missing trial and the merged result is bit-identical to an
    uninterrupted run.
    """
    from repro.fabric.broker import Broker

    grid = sweep_grid(
        base,
        field,
        values,
        n_trials,
        common_random_numbers=common_random_numbers,
    )
    broker = Broker(
        grid,
        n_jobs=n_jobs,
        cache=cache,
        retries=retries,
        timeout=timeout,
        progress=progress,
    )
    return broker.run()
