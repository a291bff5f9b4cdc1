"""What ``RingState.build`` allocates, and that its key block stays put.

The build groups every key into one block and hands each slot a slice
of it.  That is only sound while no slot's key array is written in
place, so a churn run must leave the block's bytes unchanged.
"""

import tracemalloc

import numpy as np

from repro.config import FailureModel, SimulationConfig
from repro.hashspace.idspace import SPACE_64
from repro.sim.engine import TickEngine
from repro.sim.state import RingState
from repro.sim.workload import draw_task_keys, draw_unique_ids


def test_build_peak_is_under_three_times_the_keys():
    """Beyond its inputs, building 200k keys onto 1000 nodes peaks at
    under 3x the keys' bytes: the grouped block, the narrow sort words
    and nothing full-width besides."""
    rng = np.random.default_rng(0)
    ids = draw_unique_ids(1000, SPACE_64, rng)
    owners = np.arange(1000, dtype=np.int64)
    keys = draw_task_keys(200_000, SPACE_64, rng)
    RingState.build(SPACE_64, ids, owners, keys, rng)  # warm caches
    tracemalloc.start()
    try:
        state = RingState.build(SPACE_64, ids, owners, keys, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.total_remaining() == keys.size
    assert peak <= 3 * keys.nbytes, peak / keys.nbytes


def test_churn_never_writes_the_grouped_block():
    """200 churn ticks (some departures crash-stop) and a burst of new
    tasks leave the bytes of the block every slot's keys started as a
    slice of unchanged."""
    engine = TickEngine(SimulationConfig(
        strategy="churn", n_nodes=200, n_tasks=100_000, churn_rate=0.05,
        failures=FailureModel(crash_fraction=0.3), seed=3,
    ))
    state = engine.state
    block = state.keys[0].base
    assert all(k.base is block for k in state.keys)
    before = block.copy()
    for _ in range(200):
        engine.step()
    assert engine.tick == 200 and not engine.finished
    assert engine.counters["churn_keys_moved"] > 0
    state.add_tasks(
        draw_task_keys(20_000, engine.space, np.random.default_rng(4))
    )
    state.verify_invariants()
    np.testing.assert_array_equal(block, before)
