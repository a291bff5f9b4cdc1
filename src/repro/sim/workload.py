"""Workload generation: node identifiers and task keys (§V-A of the paper).

The paper draws node IDs and task keys from SHA-1 of random inputs.  In
the ≤64-bit simulation space a SHA-1 of a random input is exactly a
uniform draw, so we sample uniformly (see DESIGN.md "Substitutions").
Node IDs must be unique (a real DHT rejects a colliding join); task keys
may collide freely (two files can hash near each other).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, IdSpaceError
from repro.hashspace.hashing import uniform_ids_array
from repro.hashspace.idspace import IdSpace

__all__ = ["draw_unique_ids", "draw_task_keys", "draw_new_node_id", "ideal_runtime"]


def draw_unique_ids(
    count: int, space: IdSpace, rng: np.random.Generator
) -> np.ndarray:
    """``count`` distinct uniform identifiers (uint64).

    Collisions are vanishingly rare in a 64-bit space but are handled by
    redrawing, so the function is exact for any space width ≥ 8 bits.
    """
    if count > space.size:
        raise ConfigError(
            f"cannot draw {count} unique ids from a 2**{space.bits} space"
        )
    ids = np.unique(uniform_ids_array(count, space, rng))
    while ids.size < count:
        extra = uniform_ids_array(count - ids.size, space, rng)
        ids = np.unique(np.concatenate((ids, extra)))
    # np.unique sorted the ids; a random permutation restores exchangeable
    # assignment of ids to owners
    return rng.permutation(ids)


def draw_task_keys(
    count: int, space: IdSpace, rng: np.random.Generator
) -> np.ndarray:
    """``count`` uniform task keys (collisions allowed, like real hashes)."""
    return uniform_ids_array(count, space, rng)


def draw_new_node_id(
    space: IdSpace, rng: np.random.Generator, exists
) -> int:
    """Draw a uniform identifier not currently on the ring.

    ``exists`` is a predicate (e.g. ``RingState.id_exists``).  A joining
    node or Sybil must not collide with a live identity.

    Each candidate is one scalar ``rng.integers`` draw: the same
    generator call :func:`uniform_ids_array` makes for one id, so the
    stream is identical, without the per-draw array allocation.
    """
    if space.bits > 64:
        raise IdSpaceError(
            f"draw_new_node_id supports at most 64-bit spaces, got {space.bits}"
        )
    high = space.size
    for _ in range(64):
        candidate = int(rng.integers(0, high, dtype=np.uint64))
        if not exists(candidate):
            return candidate
    raise ConfigError(
        "could not find a free identifier after 64 draws; id space too dense"
    )


def ideal_runtime(n_tasks: int, initial_capacity: int) -> float:
    """The paper's ideal runtime: tasks split evenly over the initial
    network and consumed with no churn or Sybils.

    For the homogeneous one-task-per-tick default this is
    ``n_tasks / n_nodes`` (e.g. 100,000 tasks on 1,000 nodes → 100 ticks).
    For heterogeneous strength-based consumption we use the aggregate
    initial capacity per tick (see DESIGN.md "Interpretation decisions").
    """
    if initial_capacity <= 0:
        raise ConfigError("initial capacity must be positive")
    return n_tasks / initial_capacity
