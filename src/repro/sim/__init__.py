"""The vectorized tick simulator — the paper's evaluation vehicle."""

from repro.config import STRATEGY_NAMES, SimulationConfig
from repro.sim.cache import TrialCache, trial_key
from repro.sim.engine import TickEngine, run_simulation
from repro.sim.owners import OwnerRegistry
from repro.sim.persistence import (
    load_result,
    load_sweep,
    load_trialset,
    save_result,
    save_sweep,
    save_trialset,
)
from repro.sim.results import SimulationResult, TrialSet
from repro.sim.state import RingState
from repro.sim.trials import (
    RunStats,
    TrialFailure,
    run_trial,
    run_trials,
    sweep,
)
from repro.obs.trace import TraceEvent, TraceRecorder
from repro.sim.view import SimView
from repro.sim.workload import (
    draw_new_node_id,
    draw_task_keys,
    draw_unique_ids,
    ideal_runtime,
)

__all__ = [
    "SimulationConfig",
    "STRATEGY_NAMES",
    "TickEngine",
    "run_simulation",
    "SimulationResult",
    "TrialSet",
    "RingState",
    "OwnerRegistry",
    "SimView",
    "run_trial",
    "run_trials",
    "sweep",
    "draw_unique_ids",
    "draw_task_keys",
    "draw_new_node_id",
    "ideal_runtime",
    "TraceRecorder",
    "TraceEvent",
    "save_result",
    "load_result",
    "save_trialset",
    "load_trialset",
    "save_sweep",
    "load_sweep",
    "TrialCache",
    "trial_key",
    "TrialFailure",
    "RunStats",
]
