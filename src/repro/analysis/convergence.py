"""Balance-convergence analysis of simulation runs.

The paper's histogram figures are snapshots of an evolving distribution;
this module condenses whole trajectories into comparable scalars: how
fast a strategy gets (and keeps) the network busy, and how much total
node-time is wasted idling.  Used by the extension experiments and the
`strategy_comparison` example.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import SimulationConfig
from repro.metrics.timeseries import TickSeries
from repro.sim.engine import TickEngine

__all__ = ["ConvergenceProfile", "profile_run", "utilization_auc"]


@dataclass(frozen=True)
class ConvergenceProfile:
    """Trajectory summary of one run.

    Attributes
    ----------
    runtime_ticks / runtime_factor:
        As usual.
    utilization_auc:
        Mean utilization over the run (1.0 = no node ever idled; the
        reciprocal of the runtime factor for a fixed-size network).
    ticks_to_half_idle:
        First tick where ≥50% of nodes are idle (∞ if never) — how long
        the network stays productive.
    wasted_node_ticks:
        Total idle node-ticks (the area the strategies are trying to
        reclaim).
    peak_network_size:
        Max concurrent identities (nodes + Sybils) — the footprint cost.
    """

    runtime_ticks: int
    runtime_factor: float
    utilization_auc: float
    ticks_to_half_idle: float
    wasted_node_ticks: int
    peak_network_size: int

    def as_dict(self) -> dict:
        return {
            "runtime_ticks": self.runtime_ticks,
            "runtime_factor": self.runtime_factor,
            "utilization_auc": self.utilization_auc,
            "ticks_to_half_idle": self.ticks_to_half_idle,
            "wasted_node_ticks": self.wasted_node_ticks,
            "peak_network_size": self.peak_network_size,
        }


def utilization_auc(series: TickSeries) -> float:
    """Mean fraction of in-network nodes doing work per tick."""
    util = series.utilization()
    return float(util.mean()) if util.size else 0.0


def profile_run(
    config: SimulationConfig, *, profiler=None
) -> ConvergenceProfile:
    """Run one simulation with time series on and summarize its trajectory.

    ``profiler`` optionally attaches a
    :class:`~repro.obs.profile.PhaseProfiler` to the engine so the
    caller gets a per-phase wall-clock breakdown alongside the
    convergence numbers (``repro profile`` does this).
    """
    ts_config = config.with_updates(collect_timeseries=True)
    result = TickEngine(ts_config, profiler=profiler).run()
    series = result.timeseries
    assert series is not None
    arrays = series.as_arrays()

    active = arrays["n_in_network"].astype(float)
    idle = arrays["idle_owners"].astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        idle_frac = np.where(active > 0, idle / active, 1.0)
    half = np.flatnonzero(idle_frac >= 0.5)
    ticks_to_half = float(arrays["ticks"][half[0]]) if half.size else float(
        "inf"
    )
    return ConvergenceProfile(
        runtime_ticks=result.runtime_ticks,
        runtime_factor=result.runtime_factor,
        utilization_auc=utilization_auc(series),
        ticks_to_half_idle=ticks_to_half,
        wasted_node_ticks=int(idle.sum()),
        peak_network_size=int(arrays["n_slots"].max()) if len(series) else 0,
    )
