"""Multi-trial execution: reproducible seeds, fault tolerance, caching.

Every table in the paper is "the average of 100 trials".  This module
is the *semantic* surface for running N independent trials of a
configuration — seeding rules and failure records — while the actual
dispatch lives in :mod:`repro.fabric`: :func:`run_trials` builds a
one-point trial grid and hands it to a
:class:`~repro.fabric.broker.Broker` (single-process by default), and
:func:`sweep_grid` builds the grid of a one-dimensional sweep for one
broker to drain, so every caller gains the fabric's incremental caching
and retry machinery.

Seeding: trial *i* of a config with seed *s* always uses the *i*-th child
of ``SeedSequence(s)``, so results are bit-reproducible regardless of
``n_jobs``, caching, retries, interruption, or which fabric worker ran
the trial.

Fault tolerance: trials are leased to workers one at a time, so one
crashed, hung or raising worker cannot discard its finished siblings.
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
from dataclasses import dataclass
from hashlib import sha256
from typing import TYPE_CHECKING, Callable, Literal, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.config import SimulationConfig
from repro.obs.profile import PhaseProfiler
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
    "sweep_grid",
    "default_n_jobs",
    "TrialFailure",
]

TrialFn = Callable[
    [SimulationConfig, "np.random.SeedSequence | None"], SimulationResult
]


def run_trial(
    config: SimulationConfig,
    seed_seq: np.random.SeedSequence | None = None,
    *,
    trace: "TraceSink | None" = None,
    profiler: PhaseProfiler | None = None,
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
# failure records
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


# ----------------------------------------------------------------------
# public entry points (delegate to the fabric broker)
# ----------------------------------------------------------------------
def run_trials(
    config: SimulationConfig,
    n_trials: int,
    *,
    n_jobs: int = 1,
    cache: TrialCache | Literal[False] | None = None,
    retries: int = 1,
    trial_fn: TrialFn | None = None,
    progress: Callable[[dict], None] | None = None,
) -> TrialSet:
    """Run ``n_trials`` independent trials of ``config``.

    A thin wrapper over a single-point
    :class:`~repro.fabric.broker.Broker` grid — the fabric owns
    dispatch, caching and retries, and settles a dead worker's trial
    the moment its process exits; this function owns nothing but the
    signature.

    Parameters
    ----------
    config:
        The configuration; its ``seed`` field roots the trial seeds.
    n_trials:
        Number of independent repetitions (the paper uses 100).
    n_jobs:
        Worker processes; 1 = in-process (deterministic *and* easier to
        debug), 0 = :func:`default_n_jobs` (honors ``REPRO_N_JOBS``).
        More than one runs that many fabric workers on a private
        loopback port (see :class:`~repro.fabric.broker.Broker`).
    cache:
        ``None`` — use the default content-addressed cache (honors
        ``REPRO_CACHE`` / ``REPRO_CACHE_DIR``); ``False`` — disable; or
        a :class:`~repro.sim.cache.TrialCache` instance.  Seedless configs
        (``seed=None``) are never cached.
    retries:
        Re-dispatches of a failed trial (fresh worker, same seed) before
        giving up.
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

    Run it with ``Broker(sweep_grid(...), ...).run()``, one
    :class:`~repro.sim.results.TrialSet` per value: the whole grid drains
    through one broker, so work units interleave freely across points
    and remote workers may join mid-sweep (``repro sweep --listen``).

    Each point gets its own seed, derived from ``(base.seed, field,
    value)`` — historically every point reused ``base.seed`` verbatim,
    which silently ran *identical* trial seed streams at every parameter
    value (common random numbers).  CRN is a legitimate
    variance-reduction design, but it must be a choice, not an accident:
    pass ``common_random_numbers=True`` to opt back in.  Completion is
    recorded per trial in the content-addressed cache, so an interrupted
    sweep re-run resumes at the first missing trial and the merged
    result is bit-identical to an uninterrupted run.
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

