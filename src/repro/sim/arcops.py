"""Vectorized ring-arc operations on ``uint64`` identifier arrays.

The tick simulator stores node IDs and task keys as NumPy ``uint64``
arrays.  These helpers implement the wrapping-arc predicates and geometry
(`(start, end]` membership, arc lengths, responsibility lookup) without
per-element Python work — they are the hot primitives behind initial task
assignment, joins, and Sybil splits.

:func:`responsible_slots` is the plain ``searchsorted`` lookup and the
reference the tests hold :func:`bucket_responsible_slots` to.  The ring
build uses the bucketed form, which replaces a binary search per key by
a table lookup in ``int32``, then :func:`slot_grouping`, which groups
the keys by slot with one in-place sort of narrow composite words.

All arcs follow the Chord convention used throughout the library: the
node with identifier ``end`` and predecessor ``start`` is responsible for
keys in the clockwise arc ``(start, end]``, and ``start == end`` denotes
the full circle.
"""

from __future__ import annotations

import numpy as np

from repro.errors import IdSpaceError, RingError

__all__ = [
    "in_arc_mask",
    "arc_mask",
    "arc_length",
    "arc_lengths",
    "responsible_slots",
    "bucket_responsible_slots",
    "slot_grouping",
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


def arc_mask(keys: np.ndarray, start: int, end: int, size: int) -> np.ndarray:
    """:func:`in_arc_mask` of ``uint64`` keys, by one comparison.

    ``size`` is the identifier-space size, a power of two up to
    ``2**64``; ``start == end`` selects everything (full circle).  A
    key is in the arc ``(start, end]`` iff its clockwise offset past
    ``start + 1`` is below the arc length.
    """
    if start == end:
        return np.ones(keys.shape, dtype=bool)
    rel = keys - _U64((start + 1) % size)
    if size < 1 << 64:
        rel &= _U64(size - 1)
    return rel < _U64((end - start) % size)


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


#: extra bucket-table bits over the ring size: ~16 buckets per slot, so
#: most keys share their bucket with no slot and need no refinement
_BUCKET_EXTRA_BITS = 4
#: cap on the table (2**20 entries, 8 MB): a larger ring just refines more
_MAX_BUCKET_BITS = 20


def bucket_responsible_slots(
    ids: np.ndarray, keys: np.ndarray, bits: int
) -> np.ndarray:
    """:func:`responsible_slots` through a bucket table, for bulk lookups.

    Keys must lie in the ``bits``-wide space.  Bucket ``j`` covers the
    keys whose top ``b`` bits of the *space* equal ``j``, and ``table[j]``
    is the number of ids below the bucket's first key — the answer for
    any key of the bucket that no id of the bucket precedes.  The table
    width ``b`` comes from ``bits`` and the ring size (a width taken from
    the ``uint64`` word would put every key of a narrow space in one
    bucket).  A key whose bucket holds an id (one byte gather of a
    per-bucket flag finds them) then steps past the ids below it, one
    vectorized pass per id, over a shrinking set of keys.  The table,
    the buckets and the result are ``int32`` below 2**31 slots.

    The table costs O(2**b); when there are too few keys to repay it the
    plain binary search runs instead.  Either way the result equals
    :func:`responsible_slots`.
    """
    ids = np.asarray(ids, dtype=_U64)
    keys = np.asarray(keys, dtype=_U64)
    n = ids.size
    if n == 0:
        raise IdSpaceError("cannot assign keys on an empty ring")
    b = min(bits, (n - 1).bit_length() + _BUCKET_EXTRA_BITS, _MAX_BUCKET_BITS)
    if keys.size < 1 << b:
        return responsible_slots(ids, keys)
    index = np.int32 if n < 1 << 31 else np.intp
    shift = _U64(bits - b)
    id_bucket = (ids >> shift).astype(np.intp)
    table = np.zeros((1 << b) + 1, dtype=index)
    np.cumsum(np.bincount(id_bucket, minlength=1 << b), out=table[1:])
    holds_id = np.zeros(1 << b, dtype=bool)
    holds_id[id_bucket] = True
    bucket = np.right_shift(
        keys, shift, out=np.empty(keys.size, dtype=index), casting="unsafe"
    )
    idx = table[bucket]
    act = np.flatnonzero(holds_id[bucket])
    while act.size:
        act = act[ids[idx[act]] < keys[act]]
        idx[act] += 1
        # keys whose bucket still holds an id at or past idx
        act = act[idx[act] != table[bucket[act] + 1]]
    del bucket
    idx[idx == n] = 0
    return idx


def slot_grouping(
    slot_idx: np.ndarray, n_slots: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stable grouping of ``slot_idx`` (values < ``n_slots``) by value.

    Returns ``(order, bounds)``: ``order`` equals
    ``np.argsort(slot_idx, kind="stable")`` — a stable grouping is
    unique — and entry ``i``'s group is ``order[bounds[s] : bounds[s +
    1]]`` for ``s = slot_idx[i]``.  It sorts, in place, the distinct
    words ``(slot << ib) | i``, where ``ib`` bits hold any index ``i``:
    ``uint32`` when they fit in 32 bits, else ``uint64``.  Distinct
    words leave any sort algorithm one order, the stable one; the low
    bits of each sorted word are its ``order`` entry.  Raises
    :class:`RingError` when the words need more than 64 bits.
    """
    slot_idx = np.asarray(slot_idx)
    k = slot_idx.size
    ib = max(k - 1, 0).bit_length()
    width = (n_slots - 1).bit_length() + ib
    if width > 64:
        raise RingError(
            f"{n_slots} slots and {k} entries need {width}-bit sort words"
        )
    word = np.uint32 if width <= 32 else np.uint64
    order = slot_idx.astype(word)
    order <<= word(ib)
    order |= np.arange(k, dtype=word)
    order.sort()
    # slot s's group starts at its lowest possible word, s << ib
    starts = np.arange(1, n_slots, dtype=word) << word(ib)
    bounds = np.concatenate(([0], order.searchsorted(starts), [k]))
    order &= word((1 << ib) - 1)
    return order, bounds


def slot_arc_starts(ids: np.ndarray) -> np.ndarray:
    """Predecessor id (arc start, exclusive) for every slot on the ring."""
    ids = np.asarray(ids, dtype=_U64)
    return np.roll(ids, 1)
