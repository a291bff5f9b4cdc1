"""Index of every reproduced experiment, keyed by stable id.

Used by the CLI (``repro run <id>``), ``repro report``, and the
paper-claim gate (``benchmarks/bench_paper.py`` runs every experiment
that has rows in :mod:`repro.experiments.claims`).
"""

from __future__ import annotations

import time
from typing import Callable

from repro.errors import ExperimentError
from repro.sim.trials import fabric_metrics, reset_run_stats, run_stats
from repro.experiments import (
    ablations,
    ext_adversarial,
    ext_arrivals,
    ext_failures,
    ext_future_work,
    ext_maintenance,
    ext_skew,
    fig01_distribution,
    fig02_03_ring,
    fig04_06_churn,
    fig07_09_random,
    fig10_hetero,
    fig11_12_neighbor,
    fig13_14_invitation,
    table1,
    table2,
    text_claims,
)
from repro.experiments.spec import ExperimentResult

__all__ = ["EXPERIMENTS", "run_experiment", "experiment_ids"]

EXPERIMENTS: dict[str, tuple[str, Callable[..., ExperimentResult]]] = {
    "table1": ("Table I: median task distribution", table1.run),
    "table2": ("Table II: runtime factor under churn", table2.run),
    "fig01": ("Figure 1: workload probability distribution", fig01_distribution.run),
    "fig02_03": ("Figures 2-3: ring visualizations", fig02_03_ring.run),
    "fig04_06": ("Figures 4-6: churn vs none histograms", fig04_06_churn.run),
    "fig07_09": ("Figures 7-9: random injection histograms", fig07_09_random.run),
    "fig10": ("Figure 10: heterogeneous networks", fig10_hetero.run),
    "fig11_12": ("Figures 11-12: neighbor injection", fig11_12_neighbor.run),
    "fig13_14": ("Figures 13-14: invitation", fig13_14_invitation.run),
    "text_claims": ("Scalar claims from the §VI text", text_claims.run),
    "ablations": ("Ablations A-F over secondary variables", ablations.run),
    "ext_skew": ("Extension: skewed key distributions", ext_skew.run),
    "ext_future_work": (
        "Extension: §VII future-work strategies",
        ext_future_work.run,
    ),
    "ext_maintenance": (
        "Extension: churn maintenance-cost frontier",
        ext_maintenance.run,
    ),
    "ext_arrivals": ("Extension: streaming task arrivals", ext_arrivals.run),
    "ext_failures": (
        "Extension: crash-stop failures and replication",
        ext_failures.run,
    ),
    "ext_adversarial": (
        "Extension: hostile-Sybil attacks and defenses",
        ext_adversarial.run,
    ),
}


def experiment_ids() -> list[str]:
    return list(EXPERIMENTS)


def run_experiment(
    experiment_id: str,
    scale: str | None = None,
    seed: int = 0,
    n_jobs: int = 1,
) -> ExperimentResult:
    """Run one experiment by id.

    Trial accounting for the run (trials run/cached/failed, retries,
    seconds per trial) is collected across every ``run_trials`` call the
    experiment makes and attached as ``result.meta["run_stats"]``; the
    CLI and the report builder surface it, and
    :mod:`repro.experiments.runner` folds it into the run manifest.
    """
    try:
        _, fn = EXPERIMENTS[experiment_id]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: "
            f"{sorted(EXPERIMENTS)}"
        ) from None
    reset_run_stats()
    # wall_s is reporting metadata, never simulation state
    t0 = time.perf_counter()  # reprolint: disable=R002 (wall-clock meta)
    result = fn(scale=scale, seed=seed, n_jobs=n_jobs)
    result.meta["run_stats"] = run_stats().as_dict()
    result.meta["fabric_metrics"] = fabric_metrics().as_dict()
    result.meta["wall_s"] = round(
        time.perf_counter() - t0, 3  # reprolint: disable=R002 (meta)
    )
    return result
