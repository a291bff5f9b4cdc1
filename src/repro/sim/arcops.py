"""Vectorized ring-arc operations on ``uint64`` identifier arrays.

The tick simulator stores node IDs and task keys as NumPy ``uint64``
arrays.  These helpers implement the wrapping-arc predicates and geometry
(`(start, end]` membership, arc lengths, responsibility lookup) without
per-element Python work — they are the hot primitives behind initial task
assignment, joins, and Sybil splits.

All arcs follow the Chord convention used throughout the library: the
node with identifier ``end`` and predecessor ``start`` is responsible for
keys in the clockwise arc ``(start, end]``, and ``start == end`` denotes
the full circle.
"""

from __future__ import annotations

import numpy as np

from repro.errors import IdSpaceError

__all__ = [
    "in_arc_mask",
    "count_in_arc",
    "arc_length",
    "arc_lengths",
    "responsible_slots",
    "slot_arc_starts",
]

_U64 = np.uint64


def in_arc_mask(keys: np.ndarray, start: int, end: int) -> np.ndarray:
    """Boolean mask of ``keys`` lying in the clockwise arc ``(start, end]``.

    ``start == end`` selects everything (full circle).
    """
    k = np.asarray(keys, dtype=_U64)
    s = _U64(start)
    e = _U64(end)
    if s == e:
        return np.ones(k.shape, dtype=bool)
    if s < e:
        return (k > s) & (k <= e)
    return (k > s) | (k <= e)


def count_in_arc(keys: np.ndarray, start: int, end: int, size: int) -> int:
    """Number of ``keys`` in the clockwise arc ``(start, end]``.

    ``size`` is the identifier-space size, a power of two up to
    ``2**64``; ``start == end`` counts everything (full circle).  Equal
    to ``in_arc_mask(keys, start, end).sum()`` with one comparison: a
    key is in the arc iff its clockwise offset past ``start + 1`` is
    below the arc length.
    """
    if start == end:
        return int(keys.size)
    rel = keys - _U64((start + 1) % size)
    if size < 1 << 64:
        rel &= _U64(size - 1)
    return int(np.count_nonzero(rel < _U64((end - start) % size)))


def arc_length(start: int, end: int, size: int) -> int:
    """Number of identifiers in ``(start, end]``; full circle when equal."""
    span = (end - start) % size
    return span if span != 0 else size


def arc_lengths(ids: np.ndarray, size: int) -> np.ndarray:
    """Responsibility-arc length of every slot on a sorted ring.

    ``ids`` must be strictly increasing.  Slot ``i`` owns
    ``(ids[i-1], ids[i]]`` (slot 0 wraps around from the last slot).
    Returned as ``uint64``; a single-slot ring owns the whole space, which
    only fits when ``size <= 2**64`` — callers use a <=64-bit space.
    """
    ids = np.asarray(ids, dtype=_U64)
    n = ids.size
    if n == 0:
        return np.zeros(0, dtype=_U64)
    gaps = np.empty(n, dtype=_U64)
    gaps[1:] = ids[1:] - ids[:-1]
    if n == 1:
        # Full circle.  2**64 does not fit in uint64, so saturate to the
        # largest representable length; callers only compare lengths.
        gaps[0] = _U64(min(size, 1 << 64) - 1)
    else:
        gaps[0] = _U64((int(ids[0]) - int(ids[-1])) % size)
    return gaps


def responsible_slots(ids: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Index of the slot responsible for each key.

    ``ids`` must be sorted ascending (the ring array).  Key ``k`` belongs
    to the first slot with ``ids[i] >= k``; keys above the last id wrap to
    slot 0.
    """
    ids = np.asarray(ids, dtype=_U64)
    if ids.size == 0:
        raise IdSpaceError("cannot assign keys on an empty ring")
    idx = np.searchsorted(ids, np.asarray(keys, dtype=_U64), side="left")
    idx[idx == ids.size] = 0
    return idx


def slot_arc_starts(ids: np.ndarray) -> np.ndarray:
    """Predecessor id (arc start, exclusive) for every slot on the ring."""
    ids = np.asarray(ids, dtype=_U64)
    return np.roll(ids, 1)
