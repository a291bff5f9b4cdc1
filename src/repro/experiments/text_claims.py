"""Scalar results quoted in the running text of §VI.

The paper's evaluation section states a number of point results that are
not in any table; this experiment measures each one.  Claim ids:

======  ==============================================================
T1      Random injection, 1000n/1e5t homog: mean factor in [1.36, 1.7]
T2      Random injection, 1000n/1e6t homog: mean factor in [1.12, 1.25]
T3      Same tasks/node ratio → similar factors; the smaller network
        (100n/1e5t) is slightly faster than 1000n/1e6t (paper Δ≈0.086)
T4      Neighbor injection base factor: 1000n/1e5t (paper 5.033,
        2.4 below no-strategy) and 100n/1e4t (paper 3.006, 2 below)
T5      Smart neighbor beats estimating neighbor (paper Δ≈1.2)
T6      Invitation: 100n/1e5t (paper 3.749) vs 1000n/1e5t (paper 5.673)
        — bigger networks hurt the invitation strategy
======  ==============================================================

The rows that gate (bands, directions, orderings) are declared in
:mod:`repro.experiments.claims`; absolute magnitudes are recorded
side-by-side with the paper's.
"""

from __future__ import annotations

from repro.config import SimulationConfig
from repro.experiments.spec import ExperimentResult, resolve_scale, trials_for
from repro.sim.trials import run_trials

__all__ = ["run", "measure_mean_factor"]


def measure_mean_factor(
    strategy: str,
    n_nodes: int,
    n_tasks: int,
    n_trials: int,
    seed: int,
    n_jobs: int = 1,
    **overrides,
) -> float:
    config = SimulationConfig(
        strategy=strategy, n_nodes=n_nodes, n_tasks=n_tasks, seed=seed,
        **overrides,
    )
    return run_trials(config, n_trials, n_jobs=n_jobs).mean_factor


def run(scale: str | None = None, seed: int = 0, n_jobs: int = 1) -> ExperimentResult:
    scale = resolve_scale(scale)
    n_trials = trials_for(scale, quick=3, full=50)
    rows: list[list] = []

    # T1 / T2 — random injection headline factors
    t1 = measure_mean_factor(
        "random_injection", 1000, 100_000, n_trials, seed, n_jobs
    )
    t2 = measure_mean_factor(
        "random_injection", 1000, 1_000_000, max(2, n_trials // 2), seed, n_jobs
    )
    rows.append(["T1", "random 1000n/1e5t", t1, "1.36..1.70"])
    rows.append(["T2", "random 1000n/1e6t", t2, "1.12..1.25"])

    # T3 — same tasks/node ratio, different absolute size
    t3_small = measure_mean_factor(
        "random_injection", 100, 100_000, n_trials, seed, n_jobs
    )
    rows.append(
        ["T3", "random 100n/1e5t (smaller net, same ratio)", t3_small,
         f"slightly below 1000n/1e6t={t2:.3f} (paper delta 0.086)"]
    )

    # T4 — neighbor injection base factors vs no strategy
    none_big = measure_mean_factor("none", 1000, 100_000, n_trials, seed, n_jobs)
    nb_big = measure_mean_factor(
        "neighbor_injection", 1000, 100_000, n_trials, seed, n_jobs
    )
    none_small = measure_mean_factor("none", 100, 10_000, n_trials, seed, n_jobs)
    nb_small = measure_mean_factor(
        "neighbor_injection", 100, 10_000, n_trials, seed, n_jobs
    )
    rows.append(["T4a", "neighbor 1000n/1e5t", nb_big, "5.033 (paper)"])
    rows.append(
        ["T4b", "improvement vs none 1000n/1e5t", none_big - nb_big,
         "2.4 (paper)"]
    )
    rows.append(["T4c", "neighbor 100n/1e4t", nb_small, "3.006 (paper)"])
    rows.append(
        ["T4d", "improvement vs none 100n/1e4t", none_small - nb_small,
         "2.0 (paper)"]
    )

    # T5 — smart neighbor vs estimating neighbor
    smart_big = measure_mean_factor(
        "smart_neighbor_injection", 1000, 100_000, n_trials, seed, n_jobs
    )
    rows.append(
        ["T5", "smart neighbor gain over estimate", nb_big - smart_big,
         "1.2 (paper, avg homog+hetero)"]
    )

    # T6 — invitation and network size
    inv_small = measure_mean_factor(
        "invitation", 100, 100_000, n_trials, seed, n_jobs
    )
    inv_big = measure_mean_factor(
        "invitation", 1000, 100_000, n_trials, seed, n_jobs
    )
    rows.append(["T6a", "invitation 100n/1e5t", inv_small, "3.749 (paper)"])
    rows.append(["T6b", "invitation 1000n/1e5t", inv_big, "5.673 (paper)"])
    rows.append(
        ["T6c", "invitation: big minus small network", inv_big - inv_small,
         "positive (paper 1.924)"]
    )

    return ExperimentResult(
        experiment_id="text_claims",
        title=f"Scalar claims from §VI text (avg of {n_trials} trials)",
        headers=["claim", "quantity", "measured", "paper"],
        rows=rows,
        data={
            "none_1000n_1e5t": none_big,
            "random_1000n_1e5t": t1,
            "random_1000n_1e6t": t2,
            "random_100n_1e5t": t3_small,
            "neighbor_1000n_1e5t": nb_big,
            "smart_1000n_1e5t": smart_big,
            "invitation_100n_1e5t": inv_small,
            "invitation_1000n_1e5t": inv_big,
        },
        scale=scale,
    )
