"""Consumption kernels: the tick loop's hottest arithmetic.

The engine's consumption phase distributes each owner's per-tick rate
across its ring identities, heaviest identity first (§V of the paper).
This module isolates that arithmetic into standalone NumPy kernels so
it can be property-checked against the historical lexsort
implementation, the same reference-equivalence pattern the slab rewrite
used (``NaiveRingState`` vs ``RingState``).

Consumption semantics (the contract the kernels meet bit-for-bit)
-----------------------------------------------------------------

Given per-slot remaining ``counts``, per-owner ``rates``, and a CSR
grouping of the slots by owner (see
:meth:`repro.sim.state.RingState.consumption_groups`, which leaves out
slots without keys: an empty slot is never the heaviest and takes no
residual, so grouping it changes nothing):

1. an owner wants ``min(rate, sum of its slots' counts)`` tasks;
2. the *heaviest* slot (max count; ties broken by lowest ring position)
   absorbs as much of that demand as it can;
3. any residual drains the owner's remaining slots in descending count
   order, ties again broken by lowest ring position (a *stable*
   descending order).

Step 3's tie-break deserves a note: the historical engine used
``np.argsort(-group)`` (introsort).  Owner groups are bounded by
``max_sybils + 1 <= 7`` slots and NumPy's introsort degenerates to a
(stable) insertion sort below 16 elements, so the stable rule above is
bit-identical to every trajectory the old code could produce — but
unlike "whatever introsort does", it is a rule a reference
implementation can state and a test can pin.

The grouped kernel is fully vectorized: segmented max / first-of-max
via ``ufunc.reduceat`` over the cached CSR grouping — O(n) per tick
instead of the old per-tick ``lexsort`` — and a vectorized
cumulative-clip pass for the (rare) residual slots.  Consumption draws
no randomness and the kernels are pure integer arithmetic over
``int64`` arrays, so the grouped kernel's output is also invariant
under any partition of the CSR grouping into contiguous chunks.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "consume_fast",
    "consume_grouped",
    "consume_grouped_reference",
]

_I64 = np.int64


# ----------------------------------------------------------------------
# kernels
# ----------------------------------------------------------------------
def consume_fast(counts: np.ndarray, owner: np.ndarray,
                 rates: np.ndarray) -> int:
    """One-slot-per-owner consumption: each slot is its own group.

    Mutates ``counts`` in place; returns the total consumed.
    """
    take = np.minimum(counts, rates[owner])
    if take.dtype != counts.dtype:
        take = take.astype(counts.dtype)
    counts -= take
    return int(take.sum())


def consume_grouped(
    counts: np.ndarray,
    rates: np.ndarray,
    gorder: np.ndarray,
    starts: np.ndarray,
    sizes: np.ndarray,
    group_owner: np.ndarray,
) -> int:
    """Grouped heaviest-first consumption over a CSR slot grouping.

    ``gorder`` lists slot indices grouped by owner (ascending ring
    position within a group); group ``g`` spans
    ``gorder[starts[g] : starts[g] + sizes[g]]`` and belongs to owner
    ``group_owner[g]``.  ``starts`` must begin at 0; the kernel's output
    is invariant under any contiguous partition of the grouping into
    re-based chunks.

    Mutates ``counts`` in place; returns the total consumed.
    """
    if starts.size == 0:
        return 0
    gcounts = counts[gorder]
    loads = np.add.reduceat(gcounts, starts)
    maxes = np.maximum.reduceat(gcounts, starts)
    want = np.minimum(rates[group_owner], loads)
    # first-of-max per group: positions not achieving the max are pushed
    # past the end, so a segmented min yields the lowest ring position
    pos = np.arange(gcounts.size, dtype=_I64)
    cand = np.where(gcounts == np.repeat(maxes, sizes), pos, gcounts.size)
    heavy = gorder[np.minimum.reduceat(cand, starts)]
    take = np.minimum(want, maxes)
    counts[heavy] -= take
    consumed = int(take.sum())

    residual = want - take
    if residual.any():
        consumed += _drain_residual(
            counts, gorder, starts, sizes, residual
        )
    return consumed


def _drain_residual(
    counts: np.ndarray,
    gorder: np.ndarray,
    starts: np.ndarray,
    sizes: np.ndarray,
    residual: np.ndarray,
) -> int:
    """Drain deficient owners' remaining slots, stable-descending.

    Only groups whose heaviest slot could not cover their demand reach
    this path; their slots are gathered, sorted descending by post-grab
    count (stable: ties keep ascending ring position), and consumed with
    one cumulative-clip pass.
    """
    didx = np.flatnonzero(residual > 0)
    dsizes = sizes[didx]
    ends = np.cumsum(dsizes)
    bases = ends - dsizes
    # within-group offsets 0..size-1, flattened across deficient groups
    offs = np.arange(int(ends[-1]), dtype=_I64) - np.repeat(bases, dsizes)
    sel = gorder[np.repeat(starts[didx], dsizes) + offs]
    group_counts = counts[sel]
    labels = np.repeat(np.arange(didx.size, dtype=_I64), dsizes)
    order = np.lexsort((offs, -group_counts, labels))
    sorted_counts = group_counts[order]
    prefix = np.cumsum(sorted_counts) - sorted_counts
    prefix -= np.repeat(prefix[bases], dsizes)
    take = np.clip(
        np.repeat(residual[didx], dsizes) - prefix, 0, sorted_counts
    )
    counts[sel[order]] -= take
    return int(take.sum())


# ----------------------------------------------------------------------
# reference implementation (the historical per-tick lexsort path)
# ----------------------------------------------------------------------
def consume_grouped_reference(
    counts: np.ndarray, owner: np.ndarray, rates: np.ndarray
) -> int:
    """The pre-kernel engine consumption, kept as the equivalence oracle.

    One ``lexsort`` groups slots by owner with counts descending; the
    first slot of each group absorbs what it can of the owner's demand
    and a Python loop settles the residual.  Property tests pin the
    kernels against this, the same way slab structural ops are pinned
    against ``NaiveRingState``.
    """
    loads = np.bincount(
        owner, weights=counts, minlength=rates.size
    ).astype(_I64)
    want = np.minimum(rates, loads)

    order = np.lexsort((-counts, owner))
    owners_sorted = owner[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = owners_sorted[1:] != owners_sorted[:-1]
    heavy_slots = order[first]
    heavy_owners = owners_sorted[first]

    take = np.minimum(want[heavy_owners], counts[heavy_slots])
    counts[heavy_slots] -= take
    consumed = int(take.sum())

    residual = want[heavy_owners] - take
    if residual.any():
        deficient = residual > 0
        for o, r in zip(heavy_owners[deficient], residual[deficient]):
            r = int(r)
            slots = np.flatnonzero(owner == int(o))
            group = counts[slots]
            for j in np.argsort(-group, kind="stable"):
                if r == 0:
                    break
                grab = min(r, int(group[j]))
                counts[slots[j]] -= grab
                r -= grab
                consumed += grab
    return consumed
