"""repro — reproduction of "Autonomous Load Balancing in Distributed Hash
Tables Using Churn and the Sybil Attack" (Rosen, Levin, Bourgeois, 2021).

Quick start::

    from repro import SimulationConfig, run_trials

    baseline = SimulationConfig(strategy="none", n_nodes=200, n_tasks=20_000)
    sybil = baseline.with_updates(strategy="random_injection")
    print(run_trials(baseline, 10).mean_factor)   # ~5-6x ideal
    print(run_trials(sybil, 10).mean_factor)      # approaches 1x

Layers (bottom-up):

* :mod:`repro.hashspace` — circular id spaces, SHA-1 keys, arcs, projection
* :mod:`repro.chord` — protocol-level Chord (fingers, stabilize, replicas)
* :mod:`repro.sim` — the vectorized tick simulator used for all experiments
* :mod:`repro.core` — the paper's load-balancing strategies
* :mod:`repro.metrics` — balance statistics, histograms, runtime factors
* :mod:`repro.experiments` — each table/figure of the paper, runnable
* :mod:`repro.viz` — ASCII/SVG/CSV rendering of results
* :mod:`repro.apps` — ChordReduce-style MapReduce on the simulated DHT
"""

from repro.config import STRATEGY_NAMES, SimulationConfig
from repro.core import (
    InducedChurn,
    Invitation,
    NeighborInjection,
    NoStrategy,
    RandomInjection,
    SmartNeighborInjection,
    Strategy,
    make_strategy,
)
from repro.errors import ReproError, TrialError
from repro.hashspace import SPACE_64, SPACE_160, Arc, IdSpace
from repro.metrics import LoadStats, load_stats, runtime_factor
from repro.sim import (
    SimulationResult,
    TickEngine,
    TrialCache,
    TrialSet,
    run_simulation,
    run_trial,
    run_trials,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "SimulationConfig",
    "STRATEGY_NAMES",
    "TickEngine",
    "run_simulation",
    "run_trial",
    "run_trials",
    "SimulationResult",
    "TrialSet",
    "TrialCache",
    "TrialError",
    "Strategy",
    "make_strategy",
    "NoStrategy",
    "InducedChurn",
    "RandomInjection",
    "NeighborInjection",
    "SmartNeighborInjection",
    "Invitation",
    "IdSpace",
    "Arc",
    "SPACE_160",
    "SPACE_64",
    "LoadStats",
    "load_stats",
    "runtime_factor",
    "ReproError",
]
