"""Ring state for the vectorized tick simulator.

The simulator models the DHT as a sorted array of **slots** (virtual node
identities — a physical node's main identity or one of its Sybils).  Each
slot owns the clockwise arc from its predecessor (exclusive) to itself
(inclusive), and holds the *remaining* task keys in that arc.

Key storage is designed for the hot loop (see DESIGN.md §5):

* ``keys[i]`` is a ``uint64`` array whose first ``counts[i]`` entries are
  the slot's remaining task keys, in uniformly random order;
* consuming a task is a decrement of ``counts[i]`` (the tail entry is
  considered consumed) — O(1), no per-task objects;
* structural operations (join/Sybil split, leave merge) first materialize
  the remaining prefix, then partition it exactly by key, preserving the
  random-order invariant (merges are reshuffled).

Because consumption order within a slot is uniformly random and splits
partition by key value, the simulator performs *exact key accounting*: a
Sybil acquires precisely the still-unfinished tasks whose keys fall in
its new arc, as in a real DHT with active backups.

Storage layout (the slab)
-------------------------

The four parallel slot arrays live in preallocated *slab* buffers with
amortized-doubling capacity; ``ids``/``owner``/``is_main``/``counts`` are
views of the live prefix.  A single join or leave shifts the prefix in
place (one ``memmove`` per array) instead of reallocating four arrays the
way ``np.insert``/``np.delete`` do.  Merged/partitioned key arrays are
drawn from a small power-of-two buffer pool so the churn hot loop does
not hammer the allocator.  Views returned by the array properties (and
by :meth:`remaining_keys`) are invalidated by the next structural
mutation — read, use, and drop them.

Bulk structure changes go through :meth:`begin_batch_removal` /
:meth:`begin_batch_insertion`, which replay the exact per-operation key
movements (and therefore the exact RNG draw sequence) of the equivalent
sequential ``remove_slot``/``insert_slot`` calls, but apply the slot
array restructuring as one compress or merge pass at commit time.
Seeded trajectories are bit-identical to the sequential path; the
structural cost drops from O(events × n) array rebuilds to O(n + events)
per batch.

An incrementally maintained owner → slot-positions inverted index backs
:meth:`slots_of_owner` / :meth:`main_slot_of` (the former full-array
scans), and :meth:`owner_loads` is cached behind a dirty flag so one
bincount per mutation epoch serves consumption, snapshots, and time
series alike.
"""

from __future__ import annotations

import bisect
import itertools
from typing import NamedTuple

import numpy as np

from repro.errors import IdSpaceError, RingError
from repro.hashspace.idspace import IdSpace
from repro.sim.arcops import arc_lengths, in_arc_mask, responsible_slots
from repro.sim.owners import PROV_BENEVOLENT, PROV_HONEST

__all__ = [
    "RingState",
    "BatchRemoval",
    "BatchInsertion",
    "ConsumptionGroups",
    "median_in_arc",
]

_U64 = np.uint64
_I64 = np.int64

#: shared zero-length key array (never mutated, never pooled)
_EMPTY_KEYS = np.empty(0, dtype=_U64)

_MIN_CAP = 8


def _pow2_at_least(n: int) -> int:
    return max(_MIN_CAP, 1 << max(0, (n - 1).bit_length()))


def median_in_arc(keys: np.ndarray, pred: int, space: IdSpace) -> int | None:
    """Median of ``keys`` by clockwise position after ``pred``.

    ``keys`` are the remaining keys of the arc starting (exclusively) at
    ``pred``, in any order.  Returns None for fewer than 2 keys.
    """
    if keys.size < 2:
        return None
    # clockwise distance from the arc start: uint64 subtraction wraps
    # mod 2**64; masking reduces it to mod 2**bits (2**64 is a multiple
    # of the space size for any bits <= 64)
    ordered = np.sort((keys - _U64(pred)) & _U64(space.max_id))
    mid = ordered[(ordered.size - 1) // 2]
    return (pred + int(mid)) % space.size


class ConsumptionGroups(NamedTuple):
    """CSR grouping of live slots by owner, for the consumption kernels.

    Group ``g`` owns slot indices ``order[starts[g] : starts[g] +
    sizes[g]]`` (ascending ring position) and belongs to physical owner
    ``owners[g]``; owners appear in ascending index order.  Arrays are
    cached by :meth:`RingState.consumption_groups` — treat as read-only.
    """

    order: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    owners: np.ndarray


class _KeyPool:
    """Recycler for ``uint64`` key buffers in power-of-two size classes.

    ``take(n)`` hands out a buffer of capacity ``>= n`` (callers use the
    ``[:n]`` prefix); ``give`` accepts retired buffers back.  Only
    buffers the pool could have produced (owning, power-of-two capacity)
    are retained, so views into other arrays are silently dropped and
    can never be handed out for reuse while aliased.
    """

    #: do not retain buffers above this capacity (bytes ≈ 8 × this)
    MAX_POOLED = 1 << 18
    #: retained buffers per size class
    MAX_PER_CLASS = 32

    def __init__(self) -> None:
        self._classes: dict[int, list[np.ndarray]] = {}

    def take(self, size: int) -> np.ndarray:
        cap = _pow2_at_least(size)
        bucket = self._classes.get(cap)
        if bucket:
            return bucket.pop()
        return np.empty(cap, dtype=_U64)

    def give(self, arr: np.ndarray) -> None:
        cap = arr.size
        if (
            arr.base is not None
            or arr.dtype != _U64
            or cap < _MIN_CAP
            or cap > self.MAX_POOLED
            or cap & (cap - 1)
        ):
            return
        bucket = self._classes.setdefault(cap, [])
        if len(bucket) < self.MAX_PER_CLASS:
            bucket.append(arr)


class _OwnerIndex:
    """Inverted index: owner → its slot *identifiers* (+ main identity).

    The index stores slot ids rather than slot positions: ids are stable
    under the prefix shifts every insert/remove performs, so incremental
    maintenance is one tiny in-group ``memmove`` plus a prefix-offset
    slice update — no O(n) position-fixup passes.  Queries translate the
    ids back to positions with one ``searchsorted`` against the (sorted)
    live ``ids`` array.  Rebuilt lazily after batch operations, which
    set ``dirty``.
    """

    def __init__(self) -> None:
        self.dirty = True
        self._n = 0
        self._buf = np.empty(_MIN_CAP, dtype=_U64)
        self._bins = 0
        self._start = np.zeros(1, dtype=_I64)
        self._cnt = np.zeros(0, dtype=_I64)
        self._main_id = np.zeros(0, dtype=_U64)
        self._main_cnt = np.zeros(0, dtype=_I64)

    # -- construction ---------------------------------------------------
    def rebuild(
        self, ids: np.ndarray, owner: np.ndarray, is_main: np.ndarray
    ) -> None:
        n = owner.size
        bins = max(self._bins, int(owner.max()) + 1 if n else 1)
        if self._buf.size < n:
            self._buf = np.empty(_pow2_at_least(n), dtype=_U64)
        # stable sort groups by owner; ids stay ascending within a group
        self._buf[:n] = ids[np.argsort(owner, kind="stable")]
        self._n = n
        self._bins = bins
        self._cnt = np.bincount(owner, minlength=bins).astype(_I64)
        self._start = np.zeros(bins + 1, dtype=_I64)
        np.cumsum(self._cnt, out=self._start[1:])
        self._main_cnt = np.bincount(
            owner[is_main], minlength=bins
        ).astype(_I64)
        self._main_id = np.zeros(bins, dtype=_U64)
        mains = np.flatnonzero(is_main)
        self._main_id[owner[mains]] = ids[mains]
        self.dirty = False

    def _grow_bins(self, bins: int) -> None:
        extra = bins - self._bins
        self._cnt = np.concatenate((self._cnt, np.zeros(extra, dtype=_I64)))
        self._start = np.concatenate(
            (self._start, np.full(extra, self._start[-1], dtype=_I64))
        )
        self._main_cnt = np.concatenate(
            (self._main_cnt, np.zeros(extra, dtype=_I64))
        )
        self._main_id = np.concatenate(
            (self._main_id, np.zeros(extra, dtype=_U64))
        )
        self._bins = bins

    # -- queries (index must be clean) ----------------------------------
    def group_ids(self, owner: int) -> np.ndarray:
        """The owner's slot identifiers, ascending (do not mutate)."""
        if owner >= self._bins or owner < 0:
            return np.empty(0, dtype=_U64)
        s = int(self._start[owner])
        return self._buf[s : s + int(self._cnt[owner])]

    def slots_of(self, ids: np.ndarray, owner: int) -> np.ndarray:
        """The owner's slot positions (ascending) in the live ring."""
        group = self.group_ids(owner)
        if group.size == 0:
            return np.empty(0, dtype=_I64)
        return ids.searchsorted(group).astype(_I64, copy=False)

    def main_count(self, owner: int) -> int:
        if owner >= self._bins or owner < 0:
            return 0
        return int(self._main_cnt[owner])

    def main_slot(self, ids: np.ndarray, owner: int) -> int:
        """Position of the owner's main identity (requires main_count==1)."""
        return int(ids.searchsorted(self._main_id[owner]))

    # -- incremental maintenance ----------------------------------------
    def note_insert(self, ident: int, owner: int, is_main: bool) -> None:
        if self.dirty:
            return
        n = self._n
        if owner >= self._bins:
            self._grow_bins(owner + 1)
        if self._buf.size < n + 1:
            grown = np.empty(_pow2_at_least(n + 1), dtype=_U64)
            grown[:n] = self._buf[:n]
            self._buf = grown
        buf = self._buf
        s = int(self._start[owner])
        c = int(self._cnt[owner])
        loc = s + int(buf[s : s + c].searchsorted(_U64(ident)))
        buf[loc + 1 : n + 1] = buf[loc:n]
        buf[loc] = ident
        self._start[owner + 1 :] += 1
        self._cnt[owner] += 1
        self._n = n + 1
        if is_main:
            self._main_id[owner] = ident
            self._main_cnt[owner] += 1

    def note_remove(self, ident: int, owner: int, is_main: bool) -> None:
        if self.dirty:
            return
        n = self._n
        buf = self._buf
        s = int(self._start[owner])
        c = int(self._cnt[owner])
        loc = s + int(buf[s : s + c].searchsorted(_U64(ident)))
        if loc >= n or buf[loc] != ident:  # desynced — fall back
            self.dirty = True
            return
        buf[loc : n - 1] = buf[loc + 1 : n]
        self._start[owner + 1 :] -= 1
        self._cnt[owner] -= 1
        self._n = n - 1
        if is_main:
            self._main_cnt[owner] -= 1
            if self._main_id[owner] == ident and self._main_cnt[owner]:
                # another main exists whose identity we don't track
                self.dirty = True


class RingState:
    """Mutable ring of slots with exact task-key accounting.

    Parameters
    ----------
    space:
        Identifier space (must be at most 64 bits wide).
    ids:
        Strictly increasing ``uint64`` array of slot identifiers.
    owner:
        Physical-owner index per slot.
    is_main:
        True for a physical node's main identity, False for Sybil slots.
    keys:
        Per-slot arrays of task keys (randomly ordered); the whole array
        is "remaining" at construction time.
    rng:
        Generator used for reshuffling merged key arrays.
    provenance:
        Optional int8 provenance code per slot (see
        :mod:`repro.sim.owners`); defaults to honest for main slots and
        benevolent-Sybil for the rest.
    """

    def __init__(
        self,
        space: IdSpace,
        ids: np.ndarray,
        owner: np.ndarray,
        is_main: np.ndarray,
        keys: list[np.ndarray],
        rng: np.random.Generator,
        provenance: np.ndarray | None = None,
    ):
        if space.bits > 64:
            raise IdSpaceError("RingState requires a <=64-bit id space")
        self.space = space
        ids = np.asarray(ids, dtype=_U64)
        owner = np.asarray(owner, dtype=_I64)
        is_main = np.asarray(is_main, dtype=bool)
        keys = [np.asarray(k, dtype=_U64) for k in keys]
        if provenance is None:
            provenance = np.where(
                is_main, PROV_HONEST, PROV_BENEVOLENT
            ).astype(np.int8)
        else:
            provenance = np.asarray(provenance, dtype=np.int8)

        n = ids.size
        cap = _pow2_at_least(n)
        self._n = n
        self._ids_buf = np.empty(cap, dtype=_U64)
        self._owner_buf = np.empty(cap, dtype=_I64)
        self._main_buf = np.empty(cap, dtype=bool)
        self._counts_buf = np.empty(cap, dtype=_I64)
        self._prov_buf = np.empty(cap, dtype=np.int8)
        self._ids_buf[:n] = ids
        self._owner_buf[:n] = owner
        self._main_buf[:n] = is_main
        self._counts_buf[:n] = [k.size for k in keys]
        self._prov_buf[:n] = provenance
        self.keys: list[np.ndarray] = keys
        self.rng = rng
        self.n_sybil_slots = int((~is_main).sum()) if n else 0

        self._pool = _KeyPool()
        self._index = _OwnerIndex()
        self._loads_cache: np.ndarray | None = None
        self._loads_dirty = True
        self._groups_cache: ConsumptionGroups | None = None
        self._refresh_views()

        self._check_shapes()
        if n and not (self.ids[:-1] < self.ids[1:]).all():
            raise RingError("slot ids must be strictly increasing")

    # ------------------------------------------------------------------
    # slab plumbing
    # ------------------------------------------------------------------
    def _refresh_views(self) -> None:
        n = self._n
        self._ids_view = self._ids_buf[:n]
        self._owner_view = self._owner_buf[:n]
        self._main_view = self._main_buf[:n]
        self._counts_view = self._counts_buf[:n]
        self._prov_view = self._prov_buf[:n]

    @property
    def ids(self) -> np.ndarray:
        """Slot identifiers (live-prefix view; invalidated by mutations)."""
        return self._ids_view

    @property
    def owner(self) -> np.ndarray:
        """Physical-owner index per slot (live-prefix view)."""
        return self._owner_view

    @property
    def is_main(self) -> np.ndarray:
        """Main-identity flags per slot (live-prefix view)."""
        return self._main_view

    @property
    def counts(self) -> np.ndarray:
        """Remaining-task counts per slot (live-prefix view)."""
        return self._counts_view

    @property
    def provenance(self) -> np.ndarray:
        """Slot provenance codes (live-prefix view; see repro.sim.owners)."""
        return self._prov_view

    def _slab_bufs(self) -> tuple[np.ndarray, ...]:
        return (self._ids_buf, self._owner_buf, self._main_buf,
                self._counts_buf, self._prov_buf)

    def _grow(self, needed: int) -> None:
        cap = _pow2_at_least(max(needed, 2 * self._ids_buf.size))
        n = self._n
        for name in ("_ids_buf", "_owner_buf", "_main_buf", "_counts_buf",
                     "_prov_buf"):
            old = getattr(self, name)
            new = np.empty(cap, dtype=old.dtype)
            new[:n] = old[:n]
            setattr(self, name, new)

    def _shift_insert(
        self,
        pos: int,
        nid: np.uint64,
        owner: int,
        is_main: bool,
        count: int,
        prov: int,
    ) -> None:
        n = self._n
        if n + 1 > self._ids_buf.size:
            self._grow(n + 1)
        for buf in self._slab_bufs():
            buf[pos + 1 : n + 1] = buf[pos:n]
        self._ids_buf[pos] = nid
        self._owner_buf[pos] = owner
        self._main_buf[pos] = is_main
        self._counts_buf[pos] = count
        self._prov_buf[pos] = prov
        self._n = n + 1
        self._groups_cache = None
        self._refresh_views()

    def _shift_remove(self, pos: int) -> None:
        n = self._n
        for buf in self._slab_bufs():
            buf[pos : n - 1] = buf[pos + 1 : n]
        self._n = n - 1
        self._groups_cache = None
        self._refresh_views()

    def _compress_alive(
        self, alive: np.ndarray, dead: list[int] | None = None
    ) -> None:
        """Drop all slots with ``alive[i] == False`` in one pass.

        ``dead``, when given, lists the dropped positions (any order) so
        the keys list can be spliced segment-wise instead of filtered
        element-wise.
        """
        keep = np.flatnonzero(alive)
        k = keep.size
        if k == self._n:
            return
        for buf in self._slab_bufs():
            buf[:k] = buf[: self._n][keep]
        if dead is not None:
            keys = self.keys
            new_keys: list[np.ndarray] = []
            prev = 0
            for d in sorted(dead):
                new_keys.extend(keys[prev:d])
                prev = d + 1
            new_keys.extend(keys[prev:])
            self.keys = new_keys
        else:
            self.keys = list(itertools.compress(self.keys, alive.tolist()))
        self._n = k
        self._groups_cache = None
        self._refresh_views()
        self.n_sybil_slots = k - int(np.count_nonzero(self._main_buf[:k]))
        self._index.dirty = True
        self._loads_dirty = True

    def _admit_pending(
        self,
        positions: np.ndarray,
        pend_ids: np.ndarray,
        pend_owner: np.ndarray,
        pend_main: np.ndarray,
        pend_prov: np.ndarray,
        pend_keys: list[np.ndarray],
    ) -> None:
        """Splice ``m`` pre-sorted pending slots into the ring in one pass.

        ``positions[j]`` is the insertion point of ``pend_ids[j]`` in the
        *current* ``ids`` array (``np.searchsorted`` semantics).
        """
        n, m = self._n, pend_ids.size
        new_n = n + m
        targets = positions + np.arange(m, dtype=positions.dtype)
        if new_n <= self._ids_buf.size and m <= 8:
            # shift surviving segments right (descending, no overlap bugs)
            bounds = np.append(positions, n)
            for j in range(m - 1, -1, -1):
                lo, hi = int(bounds[j]), int(bounds[j + 1])
                if hi > lo:
                    for buf in self._slab_bufs():
                        buf[lo + j + 1 : hi + j + 1] = buf[lo:hi]
        elif new_n <= self._ids_buf.size:
            # many pending slots: one gather-scatter per buffer beats
            # m segment shifts
            gap = np.ones(new_n, dtype=bool)
            gap[targets] = False
            dst_idx = np.flatnonzero(gap)
            for buf in self._slab_bufs():
                tmp = buf[:n].copy()
                buf[dst_idx] = tmp
        else:
            old = self._slab_bufs()
            self._grow(new_n)
            gap = np.ones(new_n, dtype=bool)
            gap[targets] = False
            dst_idx = np.flatnonzero(gap)
            for src, dst in zip(old, self._slab_bufs()):
                dst[dst_idx] = src[:n]
        self._ids_buf[targets] = pend_ids
        self._owner_buf[targets] = pend_owner
        self._main_buf[targets] = pend_main
        self._prov_buf[targets] = pend_prov
        self._counts_buf[targets] = [k.size for k in pend_keys]

        new_keys: list[np.ndarray] = []
        prev = 0
        for j in range(m):
            p = int(positions[j])
            new_keys.extend(self.keys[prev:p])
            new_keys.append(pend_keys[j])
            prev = p
        new_keys.extend(self.keys[prev:])
        self.keys = new_keys

        self._n = new_n
        self._groups_cache = None
        self._refresh_views()
        self.n_sybil_slots += m - int(np.count_nonzero(pend_main))
        self._index.dirty = True
        self._loads_dirty = True

    def _ensure_index(self) -> _OwnerIndex:
        if self._index.dirty:
            self._index.rebuild(self._ids_view, self.owner, self.is_main)
        return self._index

    def mark_loads_dirty(self) -> None:
        """Invalidate the cached owner-loads vector.

        Callers that mutate ``counts`` directly (the engine's vectorized
        consumption) must call this; all RingState mutators do it
        automatically.
        """
        self._loads_dirty = True

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        space: IdSpace,
        node_ids: np.ndarray,
        node_owners: np.ndarray,
        task_keys: np.ndarray,
        rng: np.random.Generator,
    ) -> "RingState":
        """Build the initial ring: sort node ids and assign task keys.

        ``node_ids`` must be unique.  ``task_keys`` are assigned to the
        responsible slot by the ``(pred, self]`` rule; within a slot they
        keep their (random) generation order, which realizes the
        uniform-consumption-order invariant for free.
        """
        node_ids = np.asarray(node_ids, dtype=_U64)
        node_owners = np.asarray(node_owners, dtype=_I64)
        if node_ids.size == 0:
            raise RingError("cannot build an empty ring")
        if np.unique(node_ids).size != node_ids.size:
            raise RingError("node ids must be unique")
        order = np.argsort(node_ids)
        ids = node_ids[order]
        owner = node_owners[order]
        is_main = np.ones(ids.size, dtype=bool)

        task_keys = np.asarray(task_keys, dtype=_U64)
        slot_idx = responsible_slots(ids, task_keys)
        grouping = np.argsort(slot_idx, kind="stable")
        grouped = task_keys[grouping]
        per_slot = np.bincount(slot_idx, minlength=ids.size)
        offsets = np.concatenate(([0], np.cumsum(per_slot)))
        keys = [
            grouped[offsets[i] : offsets[i + 1]].copy()
            for i in range(ids.size)
        ]
        return cls(space, ids, owner, is_main, keys, rng)

    # ------------------------------------------------------------------
    # read-only queries
    # ------------------------------------------------------------------
    @property
    def n_slots(self) -> int:
        return self._n

    def total_remaining(self) -> int:
        """Unfinished tasks across the whole ring."""
        return int(self.counts.sum())

    def remaining_keys(self, slot: int) -> np.ndarray:
        """View of the slot's remaining task keys (do not mutate)."""
        return self.keys[slot][: self.counts[slot]]

    def pred_id(self, slot: int) -> int:
        """Predecessor identifier (the exclusive start of the slot's arc)."""
        return int(self.ids[slot - 1])  # negative index wraps to the last slot

    def slot_arc(self, slot: int) -> tuple[int, int]:
        """The slot's responsibility arc ``(pred_id, own_id]``."""
        return self.pred_id(slot), int(self.ids[slot])

    def gaps(self) -> np.ndarray:
        """Responsibility-arc length of every slot (uint64)."""
        return arc_lengths(self.ids, self.space.size)

    def slot_gap(self, slot: int) -> int:
        """Arc length of one slot."""
        if self.n_slots == 1:
            return self.space.size - 1  # saturated full circle
        return (int(self.ids[slot]) - self.pred_id(slot)) % self.space.size

    def id_exists(self, ident: int) -> bool:
        ids = self._ids_view
        # _U64 needles matter: a small python int infers int64 and makes
        # searchsorted cast the whole uint64 array per call
        pos = int(ids.searchsorted(_U64(ident)))
        return pos < ids.size and int(ids[pos]) == ident

    def find_slot(self, key: int) -> int:
        """Index of the slot responsible for ``key``."""
        if self.n_slots == 0:
            raise RingError("empty ring")
        pos = int(np.searchsorted(self.ids, _U64(key), side="left"))
        return pos if pos < self.n_slots else 0

    def slots_of_owner(self, owner: int) -> np.ndarray:
        """All slot indices belonging to a physical owner (ascending)."""
        return self._ensure_index().slots_of(self._ids_view, int(owner))

    def owner_load(self, owner: int) -> int:
        """Remaining tasks across one owner's slots (indexed lookup)."""
        slots = self._ensure_index().slots_of(self._ids_view, int(owner))
        return int(self.counts[slots].sum())

    def main_slot_of(self, owner: int) -> int:
        """Index of the owner's main-identity slot."""
        index = self._ensure_index()
        owner = int(owner)
        n_mains = index.main_count(owner)
        if n_mains != 1:
            raise RingError(
                f"owner {owner} has {n_mains} main slots (expected 1)"
            )
        return index.main_slot(self._ids_view, owner)

    def successor_slots(self, slot: int, k: int) -> np.ndarray:
        """Indices of the ``k`` slots clockwise after ``slot``."""
        return (slot + 1 + np.arange(k)) % self.n_slots

    def predecessor_slots(self, slot: int, k: int) -> np.ndarray:
        """Indices of the ``k`` slots counter-clockwise before ``slot``."""
        return (slot - 1 - np.arange(k)) % self.n_slots

    def owner_loads(self, n_owners: int) -> np.ndarray:
        """Remaining tasks per physical owner (int64, length ``n_owners``).

        Cached between mutations; treat the returned array as read-only.
        """
        cached = self._loads_cache
        if (
            cached is not None
            and not self._loads_dirty
            and cached.size == n_owners
        ):
            return cached
        loads = np.bincount(
            self.owner, weights=self.counts, minlength=n_owners
        ).astype(_I64)
        self._loads_cache = loads
        self._loads_dirty = False
        return loads

    def consumption_groups(self) -> ConsumptionGroups:
        """Owner-grouped CSR layout of the live slots (cached).

        One stable argsort per *structural* epoch replaces the per-tick
        ``lexsort`` the consumption phase historically paid: the grouping
        only changes when slots are inserted or removed, not when counts
        are consumed, so between churn events every tick reuses it.  The
        arrays are shared — callers must not mutate them.
        """
        cached = self._groups_cache
        if cached is not None:
            return cached
        owner = self._owner_view
        gorder = np.argsort(owner, kind="stable").astype(_I64)
        owners_sorted = owner[gorder]
        first = np.ones(gorder.size, dtype=bool)
        if gorder.size:
            first[1:] = owners_sorted[1:] != owners_sorted[:-1]
        starts = np.flatnonzero(first).astype(_I64)
        sizes = np.diff(np.append(starts, gorder.size)).astype(_I64)
        groups = ConsumptionGroups(
            order=gorder,
            starts=starts,
            sizes=sizes,
            owners=owners_sorted[starts],
        )
        self._groups_cache = groups
        return groups

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_tasks(self, keys: np.ndarray) -> None:
        """Inject newly arrived task keys into their responsible slots.

        Supports the streaming-arrival extension.  One sort-by-slot pass
        merges and reshuffles every affected slot at once (tail
        consumption stays uniformly random per slot: each group is
        ordered by i.i.d. random ranks).
        """
        keys = np.asarray(keys, dtype=_U64)
        if keys.size == 0:
            return
        slot_idx = responsible_slots(self.ids, keys)
        affected = np.unique(slot_idx)
        counts = self.counts
        old_sizes = counts[affected]
        fresh_sizes = np.bincount(slot_idx, minlength=self.n_slots)[affected]
        group_sizes = old_sizes + fresh_sizes
        total = int(group_sizes.sum())

        # lay out [old | fresh] per affected slot, grouped
        flat = np.empty(total, dtype=_U64)
        fresh_grouped = keys[np.argsort(slot_idx, kind="stable")]
        offsets = np.concatenate(([0], np.cumsum(group_sizes)))
        fresh_off = 0
        for g, slot in enumerate(affected.tolist()):
            lo = int(offsets[g])
            old_n = int(old_sizes[g])
            new_n = int(fresh_sizes[g])
            flat[lo : lo + old_n] = self.remaining_keys(slot)
            flat[lo + old_n : lo + old_n + new_n] = fresh_grouped[
                fresh_off : fresh_off + new_n
            ]
            fresh_off += new_n
        # uniform shuffle within each group: sort by (group, random rank)
        labels = np.repeat(np.arange(affected.size), group_sizes)
        ranks = self.rng.random(total)
        flat = flat[np.lexsort((ranks, labels))]
        for g, slot in enumerate(affected.tolist()):
            merged = flat[int(offsets[g]) : int(offsets[g + 1])]
            self._pool.give(self.keys[slot])
            self.keys[slot] = merged
            counts[slot] = merged.size
        self._loads_dirty = True

    def consume_at(self, slots: np.ndarray, amounts: np.ndarray) -> None:
        """Consume ``amounts[i]`` tasks from ``slots[i]`` (vectorized)."""
        self.counts[slots] -= amounts
        self._loads_dirty = True
        if (self.counts[slots] < 0).any():
            raise RingError("consumed more tasks than a slot holds")

    def insert_slot(
        self,
        new_id: int,
        owner: int,
        *,
        is_main: bool,
        provenance: int | None = None,
    ) -> tuple[int, int]:
        """Insert a new identity and transfer the keys it is responsible for.

        Returns ``(slot_index, acquired_count)``.  Raises
        :class:`IdSpaceError` when ``new_id`` collides with an existing
        slot (callers redraw).  ``provenance`` defaults to honest for
        main identities and benevolent-Sybil otherwise; the adversary
        plane passes an explicit code.
        """
        nid = _U64(self.space.validate(new_id))
        pos = int(np.searchsorted(self.ids, nid, side="left"))
        if pos < self.n_slots and self.ids[pos] == nid:
            raise IdSpaceError(f"identifier {new_id} already on the ring")
        succ = pos if pos < self.n_slots else 0
        pred = self.pred_id(succ)

        remaining = self.remaining_keys(succ)
        mask = in_arc_mask(remaining, pred, int(nid))
        taken_n = int(np.count_nonzero(mask))
        kept_n = remaining.size - taken_n
        if taken_n:
            taken = self._pool.take(taken_n)
            np.compress(mask, remaining, out=taken[:taken_n])
        else:
            taken = _EMPTY_KEYS
        if kept_n:
            kept = self._pool.take(kept_n)
            np.compress(~mask, remaining, out=kept[:kept_n])
        else:
            kept = _EMPTY_KEYS
        old_succ_keys = self.keys[succ]

        if provenance is None:
            provenance = PROV_HONEST if is_main else PROV_BENEVOLENT
        self._shift_insert(pos, nid, owner, is_main, taken_n, provenance)
        self.keys.insert(pos, taken)
        if not is_main:
            self.n_sybil_slots += 1

        succ_new = succ + 1 if pos <= succ else succ
        self.keys[succ_new] = kept
        self._counts_buf[succ_new] = kept_n
        self._pool.give(old_succ_keys)
        self._index.note_insert(int(nid), int(owner), bool(is_main))
        self._loads_dirty = True
        return pos, taken_n

    def remove_slot(self, slot: int) -> int:
        """Remove a slot, merging its remaining keys into its successor.

        Models both a node leaving under churn (active backups make the
        hand-off lossless) and a Sybil quitting.  Returns the number of
        keys transferred.
        """
        if self.n_slots <= 1:
            raise RingError("cannot remove the last slot on the ring")
        succ = (slot + 1) % self.n_slots
        moved = int(self.counts[slot])
        if moved:
            succ_rem = self.remaining_keys(succ)
            total = moved + succ_rem.size
            merged = self._pool.take(total)
            merged[:moved] = self.remaining_keys(slot)
            merged[moved:total] = succ_rem
            # reshuffle so tail-consumption stays uniform over the merge
            # (shuffle of the concatenation == the old rng.permutation)
            self.rng.shuffle(merged[:total])
            self._pool.give(self.keys[succ])
            self.keys[succ] = merged
            self._counts_buf[succ] = total
        removed_id = int(self._ids_view[slot])
        removed_owner = int(self.owner[slot])
        removed_main = bool(self.is_main[slot])
        if not removed_main:
            self.n_sybil_slots -= 1
        self._pool.give(self.keys[slot])
        self.keys.pop(slot)
        self._shift_remove(slot)
        self._index.note_remove(removed_id, removed_owner, removed_main)
        self._loads_dirty = True
        return moved

    def remove_owner(self, owner: int) -> int:
        """Remove every slot of a physical owner (main + Sybils).

        Returns the number of keys handed off to successors.  One index
        lookup replaces the historical rescan-after-every-removal loop;
        slots are removed in ascending order (each removal shifts the
        later positions down by one), which replays the sequential RNG
        draw order exactly.
        """
        slots = self._ensure_index().slots_of(self._ids_view, int(owner))
        moved = 0
        for j, slot in enumerate(slots.tolist()):
            moved += self.remove_slot(int(slot) - j)
        return moved

    def retire_sybils(self, owner: int) -> int:
        """Remove the owner's Sybil slots, keeping its main identity.

        Returns the number of Sybil slots removed.  One-pass like
        :meth:`remove_owner`.  Never empties the ring: when churn has
        already taken the owner's main identity, its last Sybil may be
        the last slot alive — that identity stays put (the same guard
        the engine applies to churn departures).
        """
        slots = self._ensure_index().slots_of(self._ids_view, int(owner))
        is_main = self.is_main
        targets = [int(s) for s in slots.tolist() if not is_main[s]]
        removed = 0
        for slot in targets:
            if self.n_slots <= 1:
                break
            # ascending targets: each prior removal shifted this slot
            # down by one, exactly as the sequential loop would see it
            self.remove_slot(slot - removed)
            removed += 1
        return removed

    # ------------------------------------------------------------------
    # batch structure changes (used by the engine's churn phase)
    # ------------------------------------------------------------------
    def begin_batch_removal(self, owners=None) -> "BatchRemoval":
        """Start a batched removal; call :meth:`BatchRemoval.commit`.

        Pass ``owners`` (the owner indices that may be removed) when the
        set is known up front — the batch then locates their slots with
        one selective scan instead of consulting the full owner index.
        """
        return BatchRemoval(self, owners)

    def begin_batch_insertion(self) -> "BatchInsertion":
        """Start a batched insertion; call :meth:`BatchInsertion.commit`."""
        return BatchInsertion(self)

    def median_key(self, slot: int) -> int | None:
        """Median remaining key of the slot *by ring position within its arc*.

        Used by the ``placement="median"`` ablation: a Sybil placed at the
        median key takes over half the slot's remaining tasks.  Returns
        None when the slot has fewer than 2 remaining keys.
        """
        return median_in_arc(
            self.remaining_keys(slot), self.pred_id(slot), self.space
        )

    # ------------------------------------------------------------------
    # validation (tests / debugging)
    # ------------------------------------------------------------------
    def _check_shapes(self) -> None:
        m = self._n
        if not (
            self.owner.size == m
            and self.is_main.size == m
            and len(self.keys) == m
            and self.counts.size == m
        ):
            raise RingError("ring arrays have inconsistent lengths")

    def verify_invariants(self) -> None:
        """Raise :class:`RingError` if any structural invariant is broken."""
        self._check_shapes()
        if self.n_slots == 0:
            raise RingError("empty ring")
        if not (self.ids[:-1] < self.ids[1:]).all():
            raise RingError("ids not strictly increasing")
        if (self.counts < 0).any():
            raise RingError("negative remaining count")
        for i in range(self.n_slots):
            if self.counts[i] > self.keys[i].size:
                raise RingError(f"slot {i}: count exceeds stored keys")
            remaining = self.remaining_keys(i)
            if remaining.size:
                pred, own = self.slot_arc(i)
                if not in_arc_mask(remaining, pred, own).all():
                    raise RingError(f"slot {i}: key outside responsibility arc")
        if self.n_sybil_slots != int((~self.is_main).sum()):
            raise RingError("sybil slot counter out of sync")
        if self.provenance.size != self.n_slots or (
            (self.provenance < 0) | (self.provenance > 2)
        ).any():
            raise RingError("slot provenance out of sync")
        self._verify_index()
        self._verify_loads_cache()

    def _verify_index(self) -> None:
        index = self._index
        if index.dirty:
            return
        owner = self.owner
        ids = self._ids_view
        for o in np.unique(owner).tolist():
            expected = np.flatnonzero(owner == o)
            group = index.group_ids(int(o))
            if (
                group.size != expected.size
                or (group != ids[expected]).any()
            ):
                raise RingError(f"owner index out of sync for owner {o}")
            mains = np.flatnonzero((owner == o) & self.is_main)
            if index.main_count(int(o)) != mains.size:
                raise RingError(f"main count out of sync for owner {o}")
            if mains.size == 1 and index.main_slot(ids, int(o)) != int(
                mains[0]
            ):
                raise RingError(f"main identity out of sync for owner {o}")

    def _verify_loads_cache(self) -> None:
        cached = self._loads_cache
        if cached is None or self._loads_dirty:
            return
        fresh = np.bincount(
            self.owner, weights=self.counts, minlength=cached.size
        ).astype(_I64)
        if fresh.size != cached.size or (fresh != cached).any():
            raise RingError("owner loads cache out of sync")


class BatchRemoval:
    """Batched slot removal with sequential-equivalent key movement.

    ``remove_owner``/``retire_sybils`` replay the exact merge-and-shuffle
    sequence of repeated :meth:`RingState.remove_slot` calls (ascending
    slot order, as the sequential loop produced) against *stable* slot
    positions; :meth:`commit` compresses the slab once.  RNG consumption
    is bit-identical to the sequential path.
    """

    def __init__(self, state: RingState, owners=None):
        self._state = state
        n = state.n_slots
        # bytearray, not a bool ndarray: per-event scalar indexing is the
        # hottest operation in a churn batch and python-level bytearray
        # access is several times cheaper than numpy scalar access
        self._alive = bytearray(b"\x01") * n
        self._n = n
        self._skip: dict[int, int] = {}
        self._dead: list[int] = []
        self._live = n
        self._committed = False
        if owners is None:
            # owner queries against pre-batch positions via the index
            state._ensure_index()
            self._slots_by_owner: dict[int, list[int]] | None = None
        else:
            # the caller knows the owner set up front (the engine's
            # churn phase does): one flag-gather scan beats rebuilding
            # the full owner index for a handful of departures
            arr = np.asarray(owners, dtype=_I64)
            grouped: dict[int, list[int]] = {}
            if arr.size:
                ow = state.owner
                hi = int(ow.max()) + 1 if ow.size else 1
                flags = np.zeros(hi, dtype=bool)
                flags[arr[(arr >= 0) & (arr < hi)]] = True
                sel = np.flatnonzero(flags[ow])
                for p in sel.tolist():
                    o = int(ow[p])
                    if o in grouped:
                        grouped[o].append(p)
                    else:
                        grouped[o] = [p]
            self._slots_by_owner = grouped
        # hot references — stable for the lifetime of the batch, since
        # no structural op rebinds the prefix views until commit()
        self._counts = state.counts
        self._keys = state.keys
        self._pool = state._pool
        self._pool_classes = state._pool._classes
        self._shuffle = state.rng.shuffle

    @property
    def live_slots(self) -> int:
        """Slots still on the ring, counting pending removals."""
        return self._live

    def _owner_slots(self, owner: int) -> list[int]:
        """Pre-batch slot positions of ``owner``, ascending."""
        if self._slots_by_owner is not None:
            slots = self._slots_by_owner.get(int(owner))
            if slots is not None:
                return slots
        state = self._state
        return state._ensure_index().slots_of(state.ids, int(owner)).tolist()

    def owner_live_count(self, owner: int) -> int:
        slots = self._owner_slots(owner)
        if self._live == self._n:
            return len(slots)
        alive = self._alive
        return sum(1 for s in slots if alive[s])

    def remove_owner(self, owner: int) -> int:
        """Queue removal of all the owner's slots; returns keys moved."""
        moved = 0
        alive = self._alive
        for slot in self._owner_slots(owner):
            if alive[slot]:
                moved += self._remove_one(slot)
        return moved

    def remove_owner_guarded(self, owner: int) -> int | None:
        """Queue removal of all the owner's slots unless that would
        empty the ring; returns keys moved, or None if guarded.

        Fuses the :meth:`owner_live_count` check with the removal so the
        engine's churn loop touches the owner's slot list once.
        """
        alive = self._alive
        slots = self._owner_slots(owner)
        if self._live != self._n:
            slots = [s for s in slots if alive[s]]
        if self._live - len(slots) < 1:
            return None
        moved = 0
        for slot in slots:
            moved += self._remove_one(slot)
        return moved

    def crash_owner_guarded(
        self, owner: int, replication: int | None
    ) -> tuple[int, int] | None:
        """Queue a crash-stop removal of all the owner's slots.

        Unlike :meth:`remove_owner_guarded` (a graceful leave, where the
        departing node hands every key to its successor), a crash loses
        any key that is not replicated: a slot's keys survive only if
        one of its ``replication`` immediate successors on the pre-batch
        ring is still alive *within this batch* to serve the backup.
        ``replication=None`` models the paper's perfect-backup
        idealization (the next live successor always has a copy).

        All the owner's slots are marked dead before any recovery is
        resolved, so a backup can never land on another identity of the
        crashed owner.  Returns ``(recovered, lost)`` key counts, or
        None if removing the owner would empty the ring (the engine
        treats that as ring death).
        """
        alive = self._alive
        slots = self._owner_slots(owner)
        if self._live != self._n:
            slots = [s for s in slots if alive[s]]
        if self._live - len(slots) < 1:
            return None
        n = self._n
        counts = self._counts
        keys = self._keys
        classes = self._pool_classes
        # phase 1: mark every slot dead, capturing its key buffer
        captured: list[tuple[int, np.ndarray, int]] = []
        for slot in slots:
            captured.append((slot, keys[slot], int(counts[slot])))
            keys[slot] = _EMPTY_KEYS
            counts[slot] = 0
            alive[slot] = 0
            self._skip[slot] = (slot + 1) % n
            self._dead.append(slot)
            self._live -= 1
        # phase 2: resolve each slot's keys against the backup holders
        recovered = 0
        lost = 0
        for slot, buf, moved in captured:
            if moved:
                if replication is None:
                    succ = self._next_alive(slot)
                else:
                    succ = -1
                    j = slot
                    for _ in range(replication):
                        j += 1
                        if j == n:
                            j = 0
                        if alive[j]:
                            succ = j
                            break
                if succ < 0:
                    lost += moved
                else:
                    recovered += moved
                    n_succ = int(counts[succ])
                    total = moved + n_succ
                    cap = 8 if total <= 8 else 1 << (total - 1).bit_length()
                    bucket = classes.get(cap)
                    merged = (
                        bucket.pop() if bucket else np.empty(cap, dtype=_U64)
                    )
                    merged[:moved] = buf[:moved]
                    merged[moved:total] = keys[succ][:n_succ]
                    self._shuffle(merged[:total])
                    old = keys[succ]
                    cap = old.size
                    if (
                        old.base is None
                        and 8 <= cap <= 262144
                        and not cap & (cap - 1)
                    ):
                        bucket = classes.setdefault(cap, [])
                        if len(bucket) < 32:
                            bucket.append(old)
                    keys[succ] = merged
                    counts[succ] = total
            cap = buf.size
            if buf.base is None and 8 <= cap <= 262144 and not cap & (cap - 1):
                bucket = classes.setdefault(cap, [])
                if len(bucket) < 32:
                    bucket.append(buf)
        return recovered, lost

    def retire_sybils(self, owner: int) -> int:
        """Queue removal of the owner's Sybil slots; returns how many.

        Mirrors :meth:`RingState.retire_sybils`: the last live slot is
        never queued, so a batch can't empty the ring either.
        """
        is_main = self._state.is_main
        alive = self._alive
        removed = 0
        for slot in self._owner_slots(owner):
            if alive[slot] and not is_main[slot]:
                if self._live <= 1:
                    break
                self._remove_one(slot)
                removed += 1
        return removed

    def _next_alive(self, slot: int) -> int:
        n = self._n
        j = (slot + 1) % n
        path = []
        while not self._alive[j]:
            path.append(j)
            j = self._skip.get(j, (j + 1) % n)
        for p in path:  # path compression
            self._skip[p] = j
        return j

    def _remove_one(self, slot: int) -> int:
        if self._live <= 1:
            raise RingError("cannot remove the last slot on the ring")
        alive = self._alive
        if not alive[slot]:
            raise RingError(f"slot {slot} already removed in this batch")
        succ = slot + 1
        if succ == self._n:
            succ = 0
        if not alive[succ]:
            succ = self._next_alive(slot)
        counts = self._counts
        keys = self._keys
        classes = self._pool_classes
        moved = int(counts[slot])
        if moved:
            n_succ = int(counts[succ])
            total = moved + n_succ
            # pool take/give inlined: these three calls are the hottest
            # allocator traffic in a churn batch
            cap = 8 if total <= 8 else 1 << (total - 1).bit_length()
            bucket = classes.get(cap)
            merged = bucket.pop() if bucket else np.empty(cap, dtype=_U64)
            merged[:moved] = keys[slot][:moved]
            merged[moved:total] = keys[succ][:n_succ]
            self._shuffle(merged[:total])
            old = keys[succ]
            cap = old.size
            if (
                old.base is None
                and 8 <= cap <= 262144
                and not cap & (cap - 1)
            ):
                bucket = classes.setdefault(cap, [])
                if len(bucket) < 32:
                    bucket.append(old)
            keys[succ] = merged
            counts[succ] = total
        old = keys[slot]
        cap = old.size
        if old.base is None and 8 <= cap <= 262144 and not cap & (cap - 1):
            bucket = classes.setdefault(cap, [])
            if len(bucket) < 32:
                bucket.append(old)
        keys[slot] = _EMPTY_KEYS
        counts[slot] = 0
        alive[slot] = 0
        self._skip[slot] = (slot + 1) % self._n
        self._dead.append(slot)
        self._live -= 1
        return moved

    def commit(self) -> None:
        """Compress the slab, dropping every queued slot in one pass."""
        if self._committed:
            raise RingError("batch removal already committed")
        self._committed = True
        alive = np.frombuffer(self._alive, dtype=bool)
        self._state._compress_alive(alive, dead=self._dead)
        self._state._loads_dirty = True


class BatchInsertion:
    """Batched slot insertion with sequential-equivalent key partitioning.

    ``add`` resolves each new identity's predecessor/successor against
    the *merged* view of the live ring plus already-pending insertions,
    and partitions the successor's remaining keys exactly as a sequential
    :meth:`RingState.insert_slot` would; :meth:`commit` splices all
    pending slots into the slab in one pass.
    """

    def __init__(self, state: RingState):
        self._state = state
        self._pend_ids: list[int] = []  # sorted
        self._pend_set: set[int] = set()
        # ident -> (owner, is_main, provenance)
        self._records: dict[int, tuple[int, bool, int]] = {}
        # live slot -> pending idents landing in its arc
        self._by_slot: dict[int, list[int]] = {}
        # live slot -> (pred_id, remaining-keys view) of its arc
        self._arc: dict[int, tuple[int, np.ndarray]] = {}
        self._committed = False
        # hot references — stable for the lifetime of the batch, since
        # pending slots are only spliced into the slab at commit()
        self._ids = state.ids
        self._keys = state.keys
        self._counts = state.counts
        self._size = state.space.size
        self._wrap = _U64(state.space.max_id)
        # uint64 arithmetic wraps mod 2**64 already when the space is the
        # full 64 bits, so the reduce-mod-size masking can be skipped
        self._mask = None if state.space.bits == 64 else self._wrap
        self._searchsorted = self._ids.searchsorted
        # the engine probes id_exists immediately before add: remember
        # the last miss so add() can skip the repeated ring lookup
        self._last_miss: tuple[int, int] | None = None

    def id_exists(self, ident: int) -> bool:
        """Membership test over live plus pending identities."""
        if ident in self._pend_set:
            return True
        ids = self._ids
        # _U64 needle matters: a small python int infers int64 and makes
        # searchsorted cast the whole uint64 array per call
        pos = int(self._searchsorted(_U64(ident)))
        if pos < ids.size and int(ids[pos]) == ident:
            return True
        self._last_miss = (int(ident), pos)
        return False

    def add(
        self,
        ident: int,
        owner: int,
        *,
        is_main: bool,
        provenance: int | None = None,
    ) -> int:
        """Queue one insertion; returns the number of keys acquired.

        The acquired count is the number of keys the identity would take
        if inserted right now — counted by a range query over the
        enclosing live slot's sorted arc offsets — but no keys actually
        move until :meth:`commit` redistributes each affected arc in one
        vectorized pass.  Since splits consume no randomness, the counts
        and the final key layout are bit-identical to sequential
        :meth:`RingState.insert_slot` calls.
        """
        size = self._size
        nid = int(ident)
        if nid < 0 or nid >= size:
            self._state.space.validate(nid)  # raises with the right message
        ids = self._ids
        n = ids.size
        last = self._last_miss
        if last is not None and last[0] == nid:
            # the caller just probed id_exists(nid): reuse its lookup
            self._last_miss = None
            pos = last[1]
            if nid in self._pend_set:
                raise IdSpaceError(f"identifier {ident} already on the ring")
        else:
            pos = int(self._searchsorted(_U64(nid), side="left"))
            if (pos < n and ids[pos] == nid) or nid in self._pend_set:
                raise IdSpaceError(f"identifier {ident} already on the ring")
        slot = pos if pos < n else 0
        arc = self._arc.get(slot)
        if arc is None:
            pred_id = int(ids[slot - 1])  # negative index wraps
            remaining = self._keys[slot][: int(self._counts[slot])]
            arc = (pred_id, remaining)
            self._arc[slot] = arc
        pred_id, remaining = arc
        # own offset, and the offset of the nearest pending predecessor
        # inside the same arc (keys below it were already claimed)
        dv = (nid - pred_id) % size
        dp = 0
        pend = self._pend_ids
        if pend:
            i = bisect.bisect_left(pend, nid)
            p_pred = pend[i - 1] if i > 0 else pend[-1]
            d = (nid - p_pred) % size
            if d < dv:
                dp = dv - d
        # count keys whose arc offset lies in (dp, dv]: shifting the arc
        # start past dp turns the range test into one compare — a key at
        # offset <= dp (including 0, the arc start itself) wraps to a
        # huge value and is excluded, matching the (pred, self] rule
        rel = remaining - (pred_id + dp + 1) % size
        if self._mask is not None:
            rel &= self._mask
        acquired = int(np.count_nonzero(rel <= dv - dp - 1))
        if provenance is None:
            provenance = PROV_HONEST if is_main else PROV_BENEVOLENT
        bisect.insort(pend, nid)
        self._pend_set.add(nid)
        self._records[nid] = (int(owner), bool(is_main), int(provenance))
        lst = self._by_slot.get(slot)
        if lst is None:
            self._by_slot[slot] = [nid]
        else:
            lst.append(nid)
        return acquired

    def add_many(self, idents, owners, *, is_main: bool) -> None:
        """Queue several insertions at once, without acquired counts.

        The bulk form of :meth:`add` for callers that already know (or
        do not need) how many keys each identity takes: one vectorized
        lookup replaces the per-identity range count.  The committed
        ring is the same as after one :meth:`add` per identity, in any
        order.
        """
        idents = [int(i) for i in idents]
        if not idents:
            return
        size = self._size
        for ident in (min(idents), max(idents)):
            if ident < 0 or ident >= size:
                self._state.space.validate(ident)  # raises
        ids = self._ids
        n = ids.size
        new = np.array(idents, dtype=_U64)
        pos = self._searchsorted(new)
        inside = pos < n
        if (
            (ids[pos[inside]] == new[inside]).any()
            or len(set(idents)) != len(idents)
            or not self._pend_set.isdisjoint(idents)
        ):
            raise IdSpaceError("identifier already on the ring")
        provenance = PROV_HONEST if is_main else PROV_BENEVOLENT
        records = self._records
        by_slot = self._by_slot
        arc = self._arc
        keys = self._keys
        slots = np.where(inside, pos, 0)
        # slot 0's predecessor index -1 wraps to the last slot
        preds = ids[slots - 1].tolist()
        remaining = self._counts[slots].tolist()
        for ident, owner, slot, pred, count in zip(
            idents, owners, slots.tolist(), preds, remaining
        ):
            records[ident] = (int(owner), is_main, provenance)
            lst = by_slot.get(slot)
            if lst is None:
                by_slot[slot] = [ident]
                if slot not in arc:
                    arc[slot] = (pred, keys[slot][:count])
            else:
                lst.append(ident)
        self._pend_ids = sorted(self._pend_ids + idents)
        self._pend_set.update(idents)

    def commit(self) -> None:
        """Redistribute every affected arc and splice in one merge pass.

        Arcs that attracted exactly one pending identity (the common case
        under realistic churn) are partitioned together in one vectorized
        compress over the concatenation of their remaining keys; arcs
        with several pending identities fall back to a per-arc pass.
        """
        if self._committed:
            raise RingError("batch insertion already committed")
        self._committed = True
        state = self._state
        m = len(self._pend_ids)
        if m == 0:
            return
        size = self._size
        keys = self._keys
        counts = self._counts
        pool = state._pool
        mask = self._mask
        taken: dict[int, np.ndarray] = {}

        v_slots: list[int] = []
        v_idents: list[int] = []
        multi: list[tuple[int, list[int]]] = []
        arcs = self._arc
        if self._ids.size > 1:
            for slot, idents in self._by_slot.items():
                if not arcs[slot][1].size:
                    # an arc with no remaining keys has nothing to split
                    for ident in idents:
                        taken[ident] = _EMPTY_KEYS
                elif len(idents) == 1:
                    v_slots.append(slot)
                    v_idents.append(idents[0])
                else:
                    multi.append((slot, idents))
        else:
            # the full-circle arc needs its offset-0 special case below
            multi = list(self._by_slot.items())

        if v_slots:
            key_parts = [arcs[s][1] for s in v_slots]
            cnts = np.fromiter(
                (k.size for k in key_parts), dtype=_I64, count=len(v_slots)
            )
            all_keys = np.concatenate(key_parts)
            preds = np.array([arcs[s][0] for s in v_slots], dtype=_U64)
            bounds = np.array(v_idents, dtype=_U64)
            # key in (pred, bound] ⟺ (key - pred - 1) mod size <= span
            lo = preds + _U64(1)
            span = bounds - preds - _U64(1)
            rel = all_keys - np.repeat(lo, cnts)
            if mask is not None:
                span &= mask
                rel &= mask
            tmask = rel <= np.repeat(span, cnts)
            tk = all_keys[tmask]
            kp = all_keys[~tmask]
            key_rank = np.repeat(np.arange(len(v_slots)), cnts)
            tcnt = np.bincount(key_rank[tmask], minlength=len(v_slots))
            kcnt = cnts - tcnt
            tends = np.cumsum(tcnt).tolist()
            kends = np.cumsum(kcnt).tolist()
            counts[np.array(v_slots, dtype=_I64)] = kcnt
            prev = 0
            for i, ident in enumerate(v_idents):
                end = tends[i]
                taken[ident] = tk[prev:end]
                prev = end
            prev = 0
            for i, slot in enumerate(v_slots):
                end = kends[i]
                pool.give(keys[slot])
                keys[slot] = kp[prev:end]
                prev = end

        single = self._ids.size == 1
        for slot, idents in multi:
            pred_id, remaining = arcs[slot]
            idents.sort(key=lambda p: (p - pred_id) % size)
            bound_offs = np.array(
                [(p - pred_id) % size for p in idents], dtype=_U64
            )
            offs = (remaining - _U64(pred_id)) & self._wrap
            # each key goes to the first boundary at-or-past its offset;
            # past the last boundary it stays with the live slot
            tgt = bound_offs.searchsorted(offs, side="left")
            if single:
                # full-circle arc: a key equal to the slot's own id has
                # offset 0 but belongs to the slot itself
                tgt[offs == 0] = len(idents)
            order = np.argsort(tgt, kind="stable")
            grouped = remaining[order]
            seg = np.bincount(tgt, minlength=len(idents) + 1)
            hi = 0
            for j, ident in enumerate(idents):
                lo, hi = hi, hi + int(seg[j])
                taken[ident] = grouped[lo:hi]
            kept = grouped[hi:].copy()
            pool.give(keys[slot])
            keys[slot] = kept
            counts[slot] = kept.size

        pend_ids = np.array(self._pend_ids, dtype=_U64)
        records = [self._records[i] for i in self._pend_ids]
        pend_owner = np.array([r[0] for r in records], dtype=_I64)
        pend_main = np.array([r[1] for r in records], dtype=bool)
        pend_prov = np.array([r[2] for r in records], dtype=np.int8)
        pend_keys = [taken[i] for i in self._pend_ids]
        positions = state.ids.searchsorted(pend_ids, side="left")
        state._admit_pending(
            positions.astype(_I64),
            pend_ids,
            pend_owner,
            pend_main,
            pend_prov,
            pend_keys,
        )
