"""Serialization of simulation results to JSON.

Full-scale runs are expensive; persisting their results lets the
experiment harness cache trials, lets the report builder aggregate runs
from different machines, and gives EXPERIMENTS.md a provenance trail.
Histograms and time series are stored losslessly; per-owner final loads
are optional (they dominate file size at 10k nodes).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.config import SimulationConfig
from repro.errors import PersistenceError
from repro.metrics.balance import LoadStats
from repro.metrics.histograms import Histogram
from repro.metrics.timeseries import TickSeries
from repro.sim.results import SimulationResult, TrialSet

__all__ = [
    "RESULT_FORMAT",
    "TRIALSET_FORMAT",
    "SWEEP_FORMAT",
    "result_to_dict",
    "result_from_dict",
    "save_result",
    "load_result",
    "save_trialset",
    "load_trialset",
    "save_sweep",
    "load_sweep",
]

#: On-disk format tags.  The trial cache folds :data:`RESULT_FORMAT`
#: into its keys, so bumping a version here invalidates cached trials.
#: v2 adds the failure-model fields (termination_reason,
#: total_injected, n_survivors); v3 adds the adversary summary block.
#: v1 and v2 documents remain readable.
RESULT_FORMAT = "repro.simulation_result.v3"
_RESULT_FORMATS_READ = (
    "repro.simulation_result.v1",
    "repro.simulation_result.v2",
    RESULT_FORMAT,
)
TRIALSET_FORMAT = "repro.trialset.v1"
SWEEP_FORMAT = "repro.sweep.v1"


def _histogram_to_dict(hist: Histogram) -> dict:
    return {
        "tick": hist.tick,
        "edges": hist.edges.tolist(),
        "counts": hist.counts.tolist(),
        "stats": hist.stats.as_dict(),
        "label": hist.label,
    }


def _histogram_from_dict(data: dict) -> Histogram:
    return Histogram(
        tick=data["tick"],
        edges=np.asarray(data["edges"], dtype=float),
        counts=np.asarray(data["counts"], dtype=np.int64),
        stats=LoadStats(**data["stats"]),
        label=data.get("label", ""),
    )


def _series_to_dict(series: TickSeries) -> dict:
    return {k: v.tolist() for k, v in series.as_arrays().items()}


def _series_from_dict(data: dict) -> TickSeries:
    series = TickSeries()
    for tick, consumed, remaining, n_slots, n_in, idle in zip(
        data["ticks"],
        data["consumed"],
        data["remaining"],
        data["n_slots"],
        data["n_in_network"],
        data["idle_owners"],
    ):
        series.append(tick, consumed, remaining, n_slots, n_in, idle)
    return series


def result_to_dict(
    result: SimulationResult, *, include_final_loads: bool = False
) -> dict[str, Any]:
    """JSON-safe dict capturing a result (and its exact config)."""
    payload: dict[str, Any] = {
        "format": RESULT_FORMAT,
        "config": result.config.as_dict(),
        "runtime_ticks": result.runtime_ticks,
        "ideal_ticks": result.ideal_ticks,
        "completed": result.completed,
        "total_consumed": result.total_consumed,
        "counters": dict(result.counters),
        "snapshots": [_histogram_to_dict(h) for h in result.snapshots],
        "timeseries": (
            _series_to_dict(result.timeseries)
            if result.timeseries is not None
            else None
        ),
        "termination_reason": result.termination_reason,
        "total_injected": result.total_injected,
        "n_survivors": result.n_survivors,
        "adversary": result.adversary,
    }
    if include_final_loads and result.final_loads is not None:
        payload["final_loads"] = result.final_loads.tolist()
    return payload


def result_from_dict(data: dict[str, Any]) -> SimulationResult:
    """Inverse of :func:`result_to_dict` (reads v1, v2 and v3 documents)."""
    if data.get("format") not in _RESULT_FORMATS_READ:
        raise PersistenceError(
            f"unknown result format {data.get('format')!r}"
        )
    config_data = dict(data["config"])
    config_data["snapshot_ticks"] = tuple(config_data.get("snapshot_ticks", ()))
    final = data.get("final_loads")
    return SimulationResult(
        config=SimulationConfig(**config_data),
        runtime_ticks=data["runtime_ticks"],
        ideal_ticks=data["ideal_ticks"],
        completed=data["completed"],
        total_consumed=data["total_consumed"],
        counters=dict(data["counters"]),
        snapshots=[_histogram_from_dict(h) for h in data["snapshots"]],
        timeseries=(
            _series_from_dict(data["timeseries"])
            if data.get("timeseries") is not None
            else None
        ),
        final_loads=(
            np.asarray(final, dtype=np.int64) if final is not None else None
        ),
        termination_reason=data.get("termination_reason"),
        total_injected=data.get("total_injected"),
        n_survivors=data.get("n_survivors"),
        adversary=data.get("adversary"),
    )


def save_result(
    result: SimulationResult,
    path: str | Path,
    *,
    include_final_loads: bool = False,
) -> Path:
    path = Path(path)
    path.write_text(
        json.dumps(
            result_to_dict(
                result, include_final_loads=include_final_loads
            )
        )
    )
    return path


def load_result(path: str | Path) -> SimulationResult:
    return result_from_dict(json.loads(Path(path).read_text()))


def save_trialset(trials: TrialSet, path: str | Path) -> Path:
    """Persist a whole trial set (one JSON document)."""
    path = Path(path)
    payload = _trialset_to_dict(trials)
    path.write_text(json.dumps(payload))
    return path


def _trialset_to_dict(trials: TrialSet) -> dict[str, Any]:
    return {
        "format": TRIALSET_FORMAT,
        "config": trials.config.as_dict(),
        "results": [result_to_dict(r) for r in trials.results],
    }


def _trialset_from_dict(data: dict[str, Any]) -> TrialSet:
    if data.get("format") != TRIALSET_FORMAT:
        raise PersistenceError(
            f"unknown trialset format {data.get('format')!r}"
        )
    config_data = dict(data["config"])
    config_data["snapshot_ticks"] = tuple(config_data.get("snapshot_ticks", ()))
    return TrialSet(
        config=SimulationConfig(**config_data),
        results=[result_from_dict(r) for r in data["results"]],
    )


def load_trialset(path: str | Path) -> TrialSet:
    return _trialset_from_dict(json.loads(Path(path).read_text()))


def save_sweep(trialsets: list[TrialSet], path: str | Path) -> Path:
    """Persist a parameter sweep (one TrialSet per point, one document).

    The document is byte-deterministic for a given sweep: re-running the
    same sweep (cached or not) and saving it again produces identical
    bytes, which is what the ``sweep-kill-resume`` row of ``make smoke``
    asserts.
    """
    path = Path(path)
    payload = {
        "format": SWEEP_FORMAT,
        "points": [_trialset_to_dict(ts) for ts in trialsets],
    }
    path.write_text(json.dumps(payload))
    return path


def load_sweep(path: str | Path) -> list[TrialSet]:
    data = json.loads(Path(path).read_text())
    if data.get("format") != SWEEP_FORMAT:
        raise PersistenceError(
            f"unknown sweep format {data.get('format')!r}"
        )
    return [_trialset_from_dict(p) for p in data["points"]]
