"""Deterministic work queue for the trial fabric.

A sweep grid is a list of :class:`GridPoint`\\ s — ``(config,
n_trials)`` pairs.  :class:`TrialQueue` flattens the grid into one
ordered list of :class:`WorkUnit`\\ s, reusing the exact seed derivation
the serial runner has always had: trial *i* of a point with seed *s* is
the *i*-th child of ``numpy.random.SeedSequence(s)``, reconstructible on
any host as ``SeedSequence(entropy=s, spawn_key=(i,))``.  That makes a
work unit a value, not a reference: a broker can ship ``(config,
entropy, spawn_key)`` over a socket and the remote trial is
bit-identical to a local one.

The queue also owns per-unit settlement state (queued / running / done /
cached / failed, attempt counts, lease deadlines).  It is deliberately
*not* thread-safe on its own — the broker serializes all access under a
single lock, which keeps the state machine auditable in one place.

:func:`execute_unit` runs one unit, for the broker's in-process serial
path and for every fabric worker, local or remote; it is the direct
descendant of the old ``trials._trial_worker``.
"""

from __future__ import annotations

import os
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.config import SimulationConfig
from repro.errors import ConfigError
from repro.sim.cache import trial_key
from repro.sim.results import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (trials -> fabric)
    from repro.sim.trials import TrialFn

__all__ = [
    "CACHED",
    "DONE",
    "FAILED",
    "QUEUED",
    "RUNNING",
    "SETTLED_STATES",
    "GridPoint",
    "TrialQueue",
    "UnitState",
    "WorkUnit",
    "execute_unit",
]

#: Unit lifecycle states.  ``queued`` units sit in the dispatch deque;
#: ``running`` units are leased to the serial path or to a worker;
#: the three settled states are terminal.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
CACHED = "cached"
FAILED = "failed"
SETTLED_STATES = (DONE, CACHED, FAILED)


@dataclass(frozen=True)
class GridPoint:
    """One sweep point: a config and how many trials it needs."""

    config: SimulationConfig
    n_trials: int

    def __post_init__(self) -> None:
        if self.n_trials < 1:
            raise ConfigError(f"n_trials must be >= 1, got {self.n_trials}")


@dataclass(frozen=True)
class WorkUnit:
    """One trial, fully specified by value.

    ``entropy`` + ``spawn_key`` pin the exact ``SeedSequence`` child, so
    ``seed_seq()`` rebuilds the trial's generator stream on any host.
    ``key`` is the content-addressed cache key (``None`` for seedless
    points, which are never cached).
    """

    uid: int
    point: int
    trial: int
    entropy: int | None
    spawn_key: tuple[int, ...]
    key: str | None

    def seed_seq(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(
            entropy=self.entropy, spawn_key=self.spawn_key
        )


@dataclass
class UnitState:
    """Mutable settlement state for one unit (broker-lock protected)."""

    status: str = QUEUED
    attempts: int = 0
    owner: str | None = None
    deadline: float | None = None
    result: SimulationResult | None = None
    error: str | None = None
    seconds: float = 0.0


class TrialQueue:
    """Flattened trial grid with per-unit settlement state.

    Units are created in deterministic ``(point, trial)`` order; the
    dispatch deque starts in that order and requeued units are appended
    at the tail.  Results are assembled by unit index, never by
    completion order, so the output is bit-identical regardless of how
    many workers raced over the queue.
    """

    def __init__(self, grid: Sequence[GridPoint], *, keyed: bool = False):
        self.points: list[GridPoint] = list(grid)
        if not self.points:
            raise ConfigError("trial grid must have at least one point")
        self.units: list[WorkUnit] = []
        for p, point in enumerate(self.points):
            root = np.random.SeedSequence(point.config.seed)
            cacheable = keyed and point.config.seed is not None
            for t, child in enumerate(root.spawn(point.n_trials)):
                self.units.append(
                    WorkUnit(
                        uid=len(self.units),
                        point=p,
                        trial=t,
                        entropy=child.entropy,
                        spawn_key=tuple(int(k) for k in child.spawn_key),
                        key=trial_key(point.config, child) if cacheable else None,
                    )
                )
        self.state: list[UnitState] = [UnitState() for _ in self.units]
        self._queue: deque[int] = deque(range(len(self.units)))

    def __len__(self) -> int:
        return len(self.units)

    def config_for(self, unit: WorkUnit) -> SimulationConfig:
        return self.points[unit.point].config

    # -- dispatch -------------------------------------------------------
    def lease(self, owner: str, deadline: float | None) -> WorkUnit | None:
        """Hand the next queued unit to ``owner``, or None if none queued.

        ``deadline`` (broker-clock seconds) bounds a worker's lease; the
        broker's in-process serial path passes ``None``.
        """
        while self._queue:
            uid = self._queue.popleft()
            st = self.state[uid]
            if st.status != QUEUED:  # settled while queued (stale entry)
                continue
            st.status = RUNNING
            st.owner = owner
            st.deadline = deadline
            return self.units[uid]
        return None

    def requeue(self, uid: int) -> None:
        """Put a running unit back at the tail of the dispatch queue."""
        st = self.state[uid]
        st.status = QUEUED
        st.owner = None
        st.deadline = None
        self._queue.append(uid)

    def expired(self, now: float) -> list[int]:
        """Uids of running units whose lease deadline has passed."""
        return [
            uid
            for uid, st in enumerate(self.state)
            if st.status == RUNNING
            and st.deadline is not None
            and now > st.deadline
        ]

    # -- accounting -----------------------------------------------------
    def counts(self) -> dict[str, int]:
        out = {QUEUED: 0, RUNNING: 0, DONE: 0, CACHED: 0, FAILED: 0}
        for st in self.state:
            out[st.status] += 1
        return out

    def n_live(self) -> int:
        """Units not yet settled (queued or running)."""
        return sum(1 for st in self.state if st.status not in SETTLED_STATES)

    def failed_units(self) -> list[tuple[WorkUnit, UnitState]]:
        return [
            (self.units[uid], st)
            for uid, st in enumerate(self.state)
            if st.status == FAILED
        ]


def execute_unit(
    trial_fn: "TrialFn | None",
    config: SimulationConfig,
    seed_seq: np.random.SeedSequence,
) -> tuple[str, object, float]:
    """Run one work unit; exceptions come back as data.

    Returns ``("ok", result, seconds)`` or ``("err", traceback_string,
    seconds)`` — a raising trial must not take down a worker's lease
    loop.  Shared verbatim by the broker's in-process serial path and
    :func:`~repro.fabric.worker.run_worker`, which every fabric worker
    runs, local or remote.
    """
    from repro.sim.trials import run_trial

    delay_ms = os.environ.get("REPRO_TRIAL_DELAY_MS")
    if delay_ms:
        time.sleep(int(delay_ms) / 1000.0)
    # trial duration is reporting metadata, never simulation state
    t0 = time.perf_counter()  # reprolint: disable=R002 (duration meta)
    try:
        fn = trial_fn if trial_fn is not None else run_trial
        result = fn(config, seed_seq)
        elapsed = time.perf_counter() - t0  # reprolint: disable=R002 (meta)
        return ("ok", result, elapsed)
    # worker boundary: *any* failure must come back as data, not take
    # down the worker
    except BaseException:  # reprolint: disable=R004 (worker boundary)
        elapsed = time.perf_counter() - t0  # reprolint: disable=R002 (meta)
        return ("err", traceback.format_exc(limit=20), elapsed)
