"""Experiment execution with run manifests.

A paper-scale reproduction is hours of compute; when it finishes (or is
killed) you want a durable record of what actually ran: which trials
were computed fresh, which came from the content-addressed cache, which
failed and were retried, and how long a trial costs.  This module wraps
:func:`repro.experiments.registry.run_experiment` to produce that record
— a :class:`RunManifest` per experiment — which the CLI prints after
every run and ``repro report`` persists as ``manifest.json``.  Its
``metrics`` block holds the ``fabric.*`` counters the experiment's
brokers booked, each trial outcome once;
:func:`repro.fabric.broker.trial_summary` prints them as one line.

Resume workflow: because completion is recorded per trial in the cache
(see :mod:`repro.sim.cache`), there is no separate checkpoint file —
re-running an interrupted experiment or sweep *is* the resume, and the
manifest's ``fabric.cached`` count shows how much work the interruption
preserved.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.experiments.registry import run_experiment
from repro.experiments.spec import ExperimentResult
from repro.obs.metrics import MetricsRegistry
from repro.sim.cache import (
    CACHE_SCHEMA_VERSION,
    cache_enabled,
    default_cache_dir,
)

__all__ = ["RunManifest", "run_with_manifest", "save_manifests"]

# v2 added the unified ``metrics`` block (counters/gauges registry, see
# repro.obs.metrics); v3 dropped the v1 trial-accounting dict and its
# ``trials.*`` counters, which repeated the ``fabric.*`` ones.
MANIFEST_FORMAT = "repro.run_manifest.v3"


@dataclass
class RunManifest:
    """Provenance and accounting for one experiment execution."""

    experiment_id: str
    scale: str
    seed: int
    n_jobs: int
    wall_s: float
    started_at: float
    cache_dir: str
    cache_enabled: bool
    cache_schema: int
    metrics: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "format": MANIFEST_FORMAT,
            "experiment_id": self.experiment_id,
            "scale": self.scale,
            "seed": self.seed,
            "n_jobs": self.n_jobs,
            "wall_s": self.wall_s,
            "started_at": self.started_at,
            "cache_dir": self.cache_dir,
            "cache_enabled": self.cache_enabled,
            "cache_schema": self.cache_schema,
            "metrics": dict(self.metrics),
        }

    @property
    def counters(self) -> dict[str, int]:
        return self.metrics.get("counters", {})

    def flags(self) -> list[str]:
        """Warnings the report must surface next to this experiment's
        numbers: aggregates silently containing truncated or lossy
        trials misrepresent the runtime factors."""
        out: list[str] = []
        truncated = self.counters.get("fabric.truncated", 0)
        if truncated:
            out.append(
                f"{truncated} trial(s) hit max_ticks without finishing — "
                "their runtime factors understate the truth"
            )
        lossy = self.counters.get("fabric.data_loss", 0)
        if lossy:
            out.append(
                f"{lossy} trial(s) lost tasks to failures — factors are "
                "over *surviving* work only"
            )
        return out


def run_with_manifest(
    experiment_id: str,
    scale: str | None = None,
    seed: int = 0,
    n_jobs: int = 1,
) -> tuple[ExperimentResult, RunManifest]:
    """Run one experiment and build its manifest."""
    # absolute timestamp: manifest provenance, never simulation state
    started = time.time()  # reprolint: disable=R002 (provenance)
    result = run_experiment(
        experiment_id, scale=scale, seed=seed, n_jobs=n_jobs
    )
    wall_s = float(result.meta.get("wall_s", 0.0))
    registry = MetricsRegistry()
    # trial accounting from the fabric broker(s) the experiment ran
    # under: outcomes, retries, lease expiries, remote settles
    fabric = result.meta.get("fabric_metrics", {})
    registry.merge_counters(fabric.get("counters", {}))
    registry.gauge("run.wall_seconds", wall_s)
    manifest = RunManifest(
        experiment_id=experiment_id,
        scale=result.scale,
        seed=seed,
        n_jobs=n_jobs,
        wall_s=wall_s,
        started_at=started,
        cache_dir=str(default_cache_dir()),
        cache_enabled=cache_enabled(),
        cache_schema=CACHE_SCHEMA_VERSION,
        metrics=registry.as_dict(),
    )
    return result, manifest


def save_manifests(
    manifests: list[RunManifest], path: str | Path
) -> Path:
    """Write one JSON document covering several experiment runs."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(
            {
                "format": MANIFEST_FORMAT,
                "runs": [m.as_dict() for m in manifests],
            },
            indent=2,
        )
    )
    return path
