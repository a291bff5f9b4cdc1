"""Result containers for single runs and multi-trial aggregates."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.metrics.histograms import Histogram
from repro.metrics.runtime import FactorSummary, summarize_factors
from repro.metrics.timeseries import TickSeries
from repro.config import SimulationConfig

__all__ = ["SimulationResult", "TrialSet"]


@dataclass
class SimulationResult:
    """Everything measured in one simulated computation.

    Attributes
    ----------
    config:
        The exact configuration that produced this run (provenance).
    runtime_ticks:
        Ticks until the last task finished (== ``max_ticks`` if aborted).
    ideal_ticks:
        The paper's ideal runtime for this configuration.
    completed:
        False when the run hit the ``max_ticks`` safety cap.
    snapshots:
        Workload histograms at the configured ``snapshot_ticks``.
    timeseries:
        Per-tick series (only populated when ``collect_timeseries``).
    counters:
        Event totals: sybils created/retired, churn joins/leaves,
        strategy messages, tasks acquired by Sybils, decision rounds;
        with failure injection also crashes, tasks_lost, and
        recovered_from_backup.
    final_loads:
        Remaining per-owner workload at the end (all zeros if completed).
    termination_reason:
        Why an incomplete run stopped: ``"max_ticks"`` (truncated),
        ``"data_loss"`` (crashes destroyed tasks; the surviving work
        finished), ``"ring_empty"`` (churn/crashes removed the last
        node).  None for completed runs.
    total_injected:
        Tasks ever submitted (initial load plus streaming arrivals).
    n_survivors:
        In-network physical nodes when the run ended.
    adversary:
        Attack/defense summary (captured keys, stranded tasks, detection
        precision/recall — see docs/adversarial.md) when the run had an
        enabled :class:`~repro.config.AdversaryModel`; None otherwise.
    """

    config: SimulationConfig
    runtime_ticks: int
    ideal_ticks: float
    completed: bool
    total_consumed: int
    snapshots: list[Histogram] = field(default_factory=list)
    timeseries: TickSeries | None = None
    counters: dict[str, int] = field(default_factory=dict)
    final_loads: np.ndarray | None = None
    termination_reason: str | None = None
    total_injected: int | None = None
    n_survivors: int | None = None
    adversary: dict[str, Any] | None = None

    @property
    def runtime_factor(self) -> float:
        return self.runtime_ticks / self.ideal_ticks

    @property
    def finished(self) -> bool:
        """Whether the run ran to a natural end (alias of ``completed``
        for runs without data loss; False for any early termination)."""
        return self.completed

    @property
    def tasks_lost(self) -> int:
        """Tasks destroyed by crash-stop failures."""
        return int(self.counters.get("tasks_lost", 0))

    @property
    def truncated(self) -> bool:
        """Whether the run hit ``max_ticks`` without finishing.

        Its runtime factor understates the truth (the run was cut off,
        not done), so any aggregate containing it deserves a flag.
        Results persisted before termination reasons existed carry
        ``termination_reason=None``; an incomplete one of those can only
        be a truncation.
        """
        return not self.completed and self.termination_reason in (
            None,
            "max_ticks",
        )

    @property
    def lost_data(self) -> bool:
        """Whether crashes or ring death destroyed tasks."""
        return self.tasks_lost > 0 or self.termination_reason in (
            "data_loss",
            "ring_empty",
        )

    @property
    def completed_fraction(self) -> float:
        """Share of injected work that actually ran to completion."""
        injected = self.total_injected
        if injected is None:
            injected = self.total_consumed + self.tasks_lost
        return self.total_consumed / injected if injected else 1.0

    @property
    def completed_work_factor(self) -> float:
        """Runtime factor over *completed* work.

        For a lossy run the plain :attr:`runtime_factor` flatters the
        network: losing tasks shrinks the workload, so the run "ends"
        sooner.  This normalizes the ideal to the work that was actually
        done — a run that consumed half the submitted tasks in the
        nominal ideal time scores 2.0, not 1.0.
        """
        frac = self.completed_fraction
        if frac == 0.0:
            return float("inf")
        return self.runtime_ticks / (self.ideal_ticks * frac)

    def snapshot_at(self, tick: int) -> Histogram:
        for snap in self.snapshots:
            if snap.tick == tick:
                return snap
        raise KeyError(f"no snapshot recorded at tick {tick}")

    def summary(self) -> dict[str, Any]:
        return {
            "strategy": self.config.strategy,
            "n_nodes": self.config.n_nodes,
            "n_tasks": self.config.n_tasks,
            "runtime_ticks": self.runtime_ticks,
            "ideal_ticks": self.ideal_ticks,
            "runtime_factor": self.runtime_factor,
            "completed": self.completed,
            "termination_reason": self.termination_reason,
            **{f"n_{k}": v for k, v in sorted(self.counters.items())},
        }


@dataclass
class TrialSet:
    """Aggregate of several independent trials of one configuration."""

    config: SimulationConfig
    results: list[SimulationResult]

    @property
    def n_trials(self) -> int:
        return len(self.results)

    @property
    def factors(self) -> np.ndarray:
        return np.array([r.runtime_factor for r in self.results])

    def factor_summary(self) -> FactorSummary:
        return summarize_factors(self.factors)

    @property
    def mean_factor(self) -> float:
        return float(self.factors.mean())

    def factor_ci(self, confidence: float = 0.95) -> tuple[float, float, float]:
        """(mean, lower, upper) CI of the runtime factor across trials."""
        from repro.metrics.stats_tests import mean_ci

        return mean_ci(self.factors, confidence)

    def compare_with(self, other: "TrialSet") -> dict[str, Any]:
        """Statistical comparison against another TrialSet (Welch t)."""
        from repro.metrics.stats_tests import compare_factors

        return compare_factors(self.factors, other.factors)

    @property
    def n_truncated(self) -> int:
        """Trials that hit ``max_ticks`` without finishing."""
        return sum(r.truncated for r in self.results)

    @property
    def n_data_loss(self) -> int:
        """Trials that lost tasks to crashes or ring death."""
        return sum(r.lost_data for r in self.results)

    @property
    def mean_completed_work_factor(self) -> float:
        return float(
            np.mean([r.completed_work_factor for r in self.results])
        )

    def counter_means(self) -> dict[str, float]:
        keys: set[str] = set()
        for r in self.results:
            keys.update(r.counters)
        return {
            k: float(np.mean([r.counters.get(k, 0) for r in self.results]))
            for k in sorted(keys)
        }
