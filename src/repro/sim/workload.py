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
from repro.util.rng import uniform_word_id

__all__ = [
    "draw_unique_ids",
    "draw_task_keys",
    "draw_new_node_id",
    "draw_new_node_ids",
    "ideal_runtime",
]

#: candidate draws per identifier before the space counts as too dense
_MAX_ID_ATTEMPTS = 64


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

    Each candidate is one :func:`~repro.util.rng.uniform_word_id` draw:
    the value :func:`uniform_ids_array` draws for one id, from the same
    stream, without the per-draw array allocation.
    """
    if space.bits > 64:
        raise IdSpaceError(
            f"draw_new_node_id supports at most 64-bit spaces, got {space.bits}"
        )
    bits = space.bits
    for _ in range(_MAX_ID_ATTEMPTS):
        candidate = uniform_word_id(rng, bits)
        if not exists(candidate):
            return candidate
    raise ConfigError(
        "could not find a free identifier after 64 draws; id space too dense"
    )


def draw_new_node_ids(
    count: int, space: IdSpace, rng: np.random.Generator, exist
) -> list[int]:
    """``count`` distinct identifiers not on the ring, drawn in bulk.

    ``exist`` maps a ``uint64`` array to a bool array of ring membership
    (e.g. ``RingState.ids_exist``).  The result, and the generator state
    afterwards, equal ``count`` calls of :func:`draw_new_node_id` whose
    predicate also rejects the ids accepted by earlier calls: one sized
    ``rng.integers`` call yields the same stream as that many scalar
    calls, so the candidates are replayed in stream order — a rejected
    one is skipped and the next stream value goes to the same caller,
    as the scalar loop's redraw would.  Only values the loop would have
    drawn are ever drawn.
    """
    if space.bits > 64:
        raise IdSpaceError(
            f"draw_new_node_ids supports at most 64-bit spaces, got {space.bits}"
        )
    out: list[int] = []
    accepted: set[int] = set()
    misses = 0
    while len(out) < count:
        cands = rng.integers(
            0, space.size, size=count - len(out), dtype=np.uint64
        )
        for cand, hit in zip(cands.tolist(), exist(cands).tolist()):
            if hit or cand in accepted:
                misses += 1
                if misses == _MAX_ID_ATTEMPTS:
                    raise ConfigError(
                        "could not find a free identifier after 64 draws; "
                        "id space too dense"
                    )
            else:
                out.append(cand)
                accepted.add(cand)
                misses = 0
    return out


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
