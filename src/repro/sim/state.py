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

The five slot columns live in two preallocated *slab* buffers with
amortized-doubling capacity — an ``int64`` one for ids (viewed as
``uint64``), owners and counts, an ``int8`` one for the main flags
(viewed as bool) and provenance — and ``ids``/``owner``/``is_main``/
``counts``/``provenance`` are views of their live prefix.  Every
structural change, a single join or leave included, moves the rows in
:meth:`RingState._restructure`: a batch of a few events shifts the
prefix in place (one ``memmove`` per buffer and run of survivors
between two events), a larger one gathers every buffer once.  Views
returned by the array properties (and by :meth:`remaining_keys`) are
invalidated by the next structural mutation — read, use, and drop them.

The initial ring is built with one sort over narrow words: a bucket
table over the top bits of the id space finds each key's slot in
``int32``, and one in-place sort of distinct ``(slot, generation
index)`` words, ``uint32`` where they fit, groups the keys in
generation order within each slot.  Every slot's key array starts as a
slice of the one grouped block, which nothing writes in place: merges
concatenate, splits compress, and :meth:`RingState.add_tasks` assigns
new arrays (see :meth:`RingState.build`).

A churn tick's structure change is one :class:`RingBatch`, begun with
:meth:`begin_batch_removal` (or :meth:`begin_batch_insertion` when
nobody leaves).  Its removals replay the exact key movements (and
therefore the exact RNG draw sequence) of the equivalent sequential
``remove_slot`` calls at stable slot positions.  Its one ``add`` takes
the tick's joiners at once, as arrays: it sorts their ids, places them
with one ``searchsorted`` among the slots the removals leave and splits
each arc they land in once; a split draws no randomness, so the layout
equals sequential ``insert_slot`` calls in any order.  Its one commit
restructures the slab in :meth:`RingState._restructure`: one pass that
drops the dead slots and splices in the new ones (with the sort-free
build that preceded the composite sort, the benchmark's 1000-node /
1M-task churn trials went from 1.015 to 0.652 ms per churn-0.01 tick
and from 0.282 to 0.199 ms per churn-0.001 tick, host-scaled, build
included).  Seeded trajectories are bit-identical to the sequential
path; the structural cost drops from O(events × n) array rebuilds to
O(n + events) per tick.
A strategy round commits through :meth:`commit_round`: its retired
Sybils hold no keys, so they skip the replay and leave in the same pass
that splices in the round's new Sybils, each affected arc split once.

:meth:`slots_of_owner` / :meth:`main_slot_of` compare the owner column
once per call: no hot path asks them (a strategy round reads its own
lists, a churn tick's batch finds its named owners with one scan; the
one-owner :meth:`retire_sybils` compares once).
:meth:`owner_loads` is cached behind a dirty flag so one bincount per
mutation epoch serves consumption, snapshots, and time series alike.
"""

from __future__ import annotations

import bisect
from itertools import chain
from typing import NamedTuple

import numpy as np

from repro.errors import IdSpaceError, RingError
from repro.hashspace.idspace import IdSpace
from repro.sim.arcops import (
    arc_mask,
    bucket_responsible_slots,
    in_arc_mask,
    slot_grouping,
)
from repro.sim.owners import PROV_BENEVOLENT, PROV_HONEST

__all__ = [
    "RingState",
    "RingBatch",
    "ConsumptionGroups",
    "median_in_arc",
]

_U64 = np.uint64
_I64 = np.int64

#: shared zero-length key array (never mutated)
_EMPTY_KEYS = np.empty(0, dtype=_U64)

_MIN_CAP = 8

#: a batch of at most this many events edits the keys list in place —
#: one pointer ``memmove`` per event.  A larger one builds a new list:
#: by the slab's own gather when the ring has at most
#: ``_GATHER_SLOTS_PER_EVENT`` slots per event (about 40 us per 1k
#: slots), else by one splice (about 0.3 us per event plus a slice copy
#: of the ring).  On a shared 2-vCPU Xeon, a strategy round's ~1.3k
#: events on 2k slots took 325 us in place, 400 us spliced and 95 us
#: gathered; 400 events on 10k slots 790 / 200 / 520 us
_EDIT_IN_PLACE_EVENTS = 128
_GATHER_SLOTS_PER_EVENT = 16

#: a restructure of at most this many events shifts the slab prefix in
#: place, one ``memmove`` per buffer and run of survivors between two
#: events; a larger one gathers every buffer once.  On a shared 2-vCPU
#: Xeon one removal took 8 us shifted against 21 us gathered on 1k
#: slots, and 23 against 118 us on 10k; from about 6 events on,
#: shifting was no faster at either size
_SHIFT_EVENTS = 4

#: a restructure places more pending slots than this (a strategy round's
#: hundreds of Sybils) with one vectorized searchsorted; fewer (a churn
#: tick's joins) with a bisect each, which is cheaper below ~32
_VECTOR_FINAL = 32


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


def _spliced(
    keys: list[np.ndarray],
    dead: list[int],
    at: list[int],
    new_keys: list[np.ndarray],
) -> list[np.ndarray]:
    """``keys`` without the ``dead`` positions, with ``new_keys[j]``
    inserted before position ``at[j]`` (both ascending; an insertion at
    a dropped position lands before it)."""
    out: list[np.ndarray] = []
    prev = di = 0
    for p, k in zip(at, new_keys):
        while di < len(dead) and dead[di] < p:
            out.extend(keys[prev : dead[di]])
            prev = dead[di] + 1
            di += 1
        out.extend(keys[prev:p])
        out.append(k)
        prev = p
    for d in dead[di:]:
        out.extend(keys[prev:d])
        prev = d + 1
    out.extend(keys[prev:])
    return out


def _as_list(seq) -> list[int]:
    return seq if type(seq) is list else seq.tolist()


def _ids_present(
    ids: np.ndarray, idents: np.ndarray, alive: bytearray | None
) -> np.ndarray:
    """Which of ``idents`` are on the sorted ring ``ids``; with ``alive``
    flags, only slots still flagged alive count."""
    pos = ids.searchsorted(idents)
    hit = ids.take(pos, mode="clip") == idents
    if alive is not None and hit.any():
        hit &= np.frombuffer(alive, dtype=bool).take(pos, mode="clip")
    return hit


def _sorted_ids(space: IdSpace, idents) -> tuple[np.ndarray, np.ndarray]:
    """``idents`` as a sorted ``uint64`` array, and the order that sorts
    them; raises :class:`IdSpaceError` if one is outside ``space``."""
    try:
        new = np.array(idents, dtype=_U64)
    except OverflowError:  # a negative id
        for ident in idents:
            space.validate(ident)  # raises
        raise
    order = new.argsort()
    new = new[order]
    if new.size and new.item(-1) >= space.size:
        space.validate(new.item(-1))  # raises
    return new, order


def _join_masks(
    rest: np.ndarray,
    pred_id: int,
    run: list[int],
    idents: list[int],
    when: list[int],
    size: int,
) -> list[tuple[int, np.ndarray]]:
    """What each of an arc's joiners took from the arc's remaining keys
    ``rest`` when it joined, as ``(join index, mask)`` in join order.

    ``run`` lists the joiners (indices into the sorted ids ``idents``)
    clockwise from ``pred_id``, the arc's start, and ``when[j]`` is
    joiner ``j``'s place in join order.  A joiner took the keys past its
    nearest earlier-joined predecessor in the arc, as sequential
    :meth:`RingState.insert_slot` calls would.
    """
    masks: list[tuple[int, np.ndarray]] = []
    joined: list[int] = []  # run positions joined so far, ascending
    for c in sorted(range(len(run)), key=lambda c: when[run[c]]):
        q = bisect.bisect_left(joined, c)
        start = idents[run[joined[q - 1]]] if q else pred_id
        masks.append(
            (when[run[c]], arc_mask(rest, start, idents[run[c]], size))
        )
        joined.insert(q, c)
    return masks


class _Pending(NamedTuple):
    """New slots awaiting :meth:`RingState._restructure`, sorted by id;
    ``keys[j]`` holds slot ``j``'s ``counts[j]`` remaining keys, and
    ``at[j]`` is its insertion point among the ring's slots before the
    batch (``ids.searchsorted``), found once by the builder.  Each
    column is an array or a list."""

    ids: np.ndarray | list[int]
    owner: np.ndarray | list[int]
    is_main: np.ndarray | list[bool]
    counts: np.ndarray | list[int]
    provenance: np.ndarray | list[int]
    keys: list[np.ndarray]
    at: np.ndarray | list[int]


#: the joins of a batch whose add took none
_NO_JOINS = _Pending([], [], [], [], [], [], [])


class ConsumptionGroups(NamedTuple):
    """CSR grouping by owner of the slots that held keys when the
    structural epoch began, for the consumption kernels.

    Group ``g`` owns slot indices ``order[starts[g] : starts[g] +
    sizes[g]]`` (ascending ring position) and belongs to physical owner
    ``owners[g]``; owners appear in ascending index order, and an owner
    with no such slot has no group.  Arrays are cached by
    :meth:`RingState.consumption_groups` — treat as read-only.
    """

    order: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    owners: np.ndarray


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
        self._n = n
        self._set_slab(_pow2_at_least(n), 0)
        self._ids_row[:n] = ids
        self._owner_row[:n] = owner
        self._main_row[:n] = is_main
        self._counts_row[:n] = [k.size for k in keys]
        self._prov_row[:n] = provenance
        self.keys: list[np.ndarray] = keys
        self.rng = rng
        self.n_sybil_slots = int((~is_main).sum()) if n else 0

        self._loads_cache: np.ndarray | None = None
        self._loads_dirty = True
        self._groups_cache: ConsumptionGroups | None = None
        # total of counts; None until read after a mutation
        self._remaining: int | None = None
        self._refresh_views()

        self._check_shapes()
        if n and not (self.ids[:-1] < self.ids[1:]).all():
            raise RingError("slot ids must be strictly increasing")

    # ------------------------------------------------------------------
    # slab plumbing
    # ------------------------------------------------------------------
    def _set_slab(self, cap: int, keep: int) -> None:
        """Allocate the slab at capacity ``cap``, keeping ``keep`` slots.

        Two buffers hold the five slot columns, so a structural change
        moves them with two array operations instead of five: ``_wide``
        (int64 rows: ids viewed as uint64, owner, counts) and
        ``_narrow`` (int8 rows: is_main viewed as bool, provenance).
        """
        wide = np.empty((3, cap), dtype=_I64)
        narrow = np.empty((2, cap), dtype=np.int8)
        if keep:
            wide[:, :keep] = self._wide[:, :keep]
            narrow[:, :keep] = self._narrow[:, :keep]
        self._wide = wide
        self._narrow = narrow
        self._bind_rows()

    def _bind_rows(self) -> None:
        # whole-capacity row views, for scalar and tail writes
        wide, narrow = self._wide, self._narrow
        self._ids_row = wide[0].view(_U64)
        self._owner_row = wide[1]
        self._counts_row = wide[2]
        self._main_row = narrow[0].view(bool)
        self._prov_row = narrow[1]

    def __getstate__(self) -> dict:
        # views do not survive a copy as views: rebuild them from the
        # slab (see __setstate__) instead of copying them independently
        return {
            k: v for k, v in self.__dict__.items()
            if not k.endswith(("_row", "_view"))
        }

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind_rows()
        self._refresh_views()

    def _refresh_views(self) -> None:
        n = self._n
        self._ids_view = self._ids_row[:n]
        self._owner_view = self._owner_row[:n]
        self._main_view = self._main_row[:n]
        self._counts_view = self._counts_row[:n]
        self._prov_view = self._prov_row[:n]

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

    def _grow(self, needed: int) -> None:
        self._set_slab(
            _pow2_at_least(max(needed, 2 * self._ids_row.size)), self._n
        )

    def _restructure(
        self, dead, pending: "_Pending | None" = None
    ) -> None:
        """Drop the slots at ``dead`` and splice in ``pending``.

        ``dead`` lists positions in ascending order: a list, or an index
        array from a round commit; ``pending`` holds new slots sorted by
        id, none equal to a surviving id (one may reuse the id of a
        dropped slot).  The loads cache and consumption groups are
        invalidated once.  Every structure change ends here:
        a single join or leave, a churn tick, a strategy round.

        A batch of at most ``_SHIFT_EVENTS`` events moves each run of
        survivors between two events once, in place, by its own shift
        (one ``memmove`` per buffer and run), and writes each new
        slot's row with scalar stores; a larger one
        moves every survivor with one gather per buffer, indexed by
        arrays.  The keys list is edited in place unless the batch is
        large, when a gather or a splice builds a new list (see
        ``_EDIT_IN_PLACE_EVENTS``).
        """
        n = self._n
        m = 0 if pending is None else len(pending.keys)
        events = len(dead) + m
        # a batch's crash-stop losses changed counts before it got here
        self._remaining = None
        if not events:
            return
        new_n = n - len(dead) + m
        if n + m > self._ids_row.size:
            self._grow(n + m)
        # each pending slot's final position: past the surviving slots
        # before its insertion point and the earlier pending slots
        final: list[int] | np.ndarray = []
        if m:
            at = pending.at
            if m <= _VECTOR_FINAL and type(dead) is list:
                at = _as_list(at)
                final = [
                    p - bisect.bisect_left(dead, p) + j
                    for j, p in enumerate(at)
                ]
            else:
                pos = np.asarray(at)
                if len(dead):
                    pos = pos - np.searchsorted(dead, pos)
                final = pos + np.arange(m)
        bufs = (self._wide, self._narrow)
        if events <= _SHIFT_EVENTS:
            # the survivors between two events are a run with its own
            # shift; moving left-shifted runs in ascending order and
            # right-shifted ones in descending order, no run overwrites
            # one not yet moved
            dead_l = _as_list(dead)
            cuts = sorted(
                [(d + 1, -1) for d in dead_l]
                + [(p, 1) for p in (_as_list(pending.at) if m else ())]
            )
            left: list[tuple[int, int, int]] = []
            right: list[tuple[int, int, int]] = []
            shift = 0
            for c, (lo, step) in enumerate(cuts):
                shift += step
                hi = cuts[c + 1][0] if c + 1 < len(cuts) else n
                if hi - 1 in dead_l:  # a run ends before a dropped slot
                    hi -= 1
                if lo < hi and shift:
                    (left if shift < 0 else right).append((lo, hi, shift))
            for lo, hi, by in left + right[::-1]:
                for buf in bufs:
                    buf[:, lo + by : hi + by] = buf[:, lo:hi]
            for j, f in enumerate(final):
                self._ids_row[f] = pending.ids[j]
                self._owner_row[f] = pending.owner[j]
                self._main_row[f] = pending.is_main[j]
                self._counts_row[f] = pending.counts[j]
                self._prov_row[f] = pending.provenance[j]
        else:
            alive = np.ones(n, dtype=bool)
            alive[dead] = False
            gather = alive.nonzero()[0]
            if m:
                # stage the pending slots past the live prefix, so one
                # gather places every slot
                rows = slice(n, n + m)
                self._ids_row[rows] = pending.ids
                self._owner_row[rows] = pending.owner
                self._main_row[rows] = pending.is_main
                self._counts_row[rows] = pending.counts
                self._prov_row[rows] = pending.provenance
                is_old = np.ones(new_n, dtype=bool)
                is_old[final] = False
                survivors = gather
                gather = np.empty(new_n, dtype=np.intp)
                gather[is_old] = survivors
                gather[final] = np.arange(n, n + m)
            for buf in bufs:
                buf[:, :new_n] = buf.take(gather, axis=1)
        new_keys = [] if pending is None else pending.keys
        if events <= _EDIT_IN_PLACE_EVENTS:
            keys = self.keys
            for d in reversed(dead):
                del keys[d]
            for f, k in zip(final, new_keys):
                keys.insert(f, k)
        elif n <= _GATHER_SLOTS_PER_EVENT * events:
            # the slab's own gather, over [survivors | staged pending]
            staged = np.fromiter(
                chain(self.keys, new_keys), dtype=object, count=n + m
            )
            self.keys = staged.take(gather).tolist()
        else:
            at = [] if pending is None else pending.at
            self.keys = _spliced(
                self.keys, _as_list(dead), _as_list(at), new_keys
            )

        self._n = new_n
        self._groups_cache = None
        self._refresh_views()
        self.n_sybil_slots = new_n - int(np.count_nonzero(self._main_view))
        self._loads_dirty = True

    def mark_loads_dirty(self) -> None:
        """Invalidate the cached owner-loads vector.

        Callers that mutate ``counts`` directly must call this (or,
        when they know exactly how much they took, :meth:`note_consumed`);
        all RingState mutators do it automatically.  It also drops the cached remaining total.
        """
        self._loads_dirty = True
        self._remaining = None

    def note_consumed(self, consumed: int) -> None:
        """Record that ``consumed`` tasks were taken from ``counts`` in
        place (the engine's consumption kernels): the loads cache goes
        dirty and the cached remaining total drops by ``consumed``."""
        self._loads_dirty = True
        if self._remaining is not None:
            self._remaining -= consumed

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
        uniform-consumption-order invariant for free.  The keys are
        grouped by :func:`~repro.sim.arcops.slot_grouping` and taken
        once into one block; each slot holds a slice of it.
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
        order, bounds = slot_grouping(
            bucket_responsible_slots(ids, task_keys, space.bits), ids.size
        )
        grouped = task_keys[order]
        del order
        # slices of the one grouped block: no slot's key array is ever
        # written in place (merges concatenate, splits compress)
        bounds = bounds.tolist()
        keys = [grouped[bounds[i] : bounds[i + 1]] for i in range(ids.size)]
        return cls(space, ids, owner, is_main, keys, rng)

    # ------------------------------------------------------------------
    # read-only queries
    # ------------------------------------------------------------------
    @property
    def n_slots(self) -> int:
        return self._n

    def total_remaining(self) -> int:
        """Unfinished tasks across the whole ring (cached: one sum per
        mutation, kept exact across consumption by
        :meth:`note_consumed`)."""
        remaining = self._remaining
        if remaining is None:
            remaining = self._remaining = int(self._counts_view.sum())
        return remaining

    def remaining_keys(self, slot: int) -> np.ndarray:
        """View of the slot's remaining task keys (do not mutate)."""
        return self.keys[slot][: self.counts[slot]]

    def pred_id(self, slot: int) -> int:
        """Predecessor identifier (the exclusive start of the slot's arc)."""
        return int(self.ids[slot - 1])  # negative index wraps to the last slot

    def slot_arc(self, slot: int) -> tuple[int, int]:
        """The slot's responsibility arc ``(pred_id, own_id]``."""
        return self.pred_id(slot), int(self.ids[slot])

    def id_exists(self, ident: int) -> bool:
        ids = self._ids_view
        # _U64 needles matter: a small python int infers int64 and makes
        # searchsorted cast the whole uint64 array per call
        pos = int(ids.searchsorted(_U64(ident)))
        return pos < ids.size and int(ids[pos]) == ident

    def ids_exist(self, idents: np.ndarray) -> np.ndarray:
        """:meth:`id_exists` over a ``uint64`` array (bool array)."""
        return _ids_present(self._ids_view, idents, None)

    def slots_of_owner(self, owner: int) -> np.ndarray:
        """All slot indices belonging to a physical owner (ascending)."""
        return np.flatnonzero(self._owner_view == owner)

    def main_slot_of(self, owner: int) -> int:
        """Index of the owner's main-identity slot."""
        slots = self.slots_of_owner(owner)
        mains = slots[self._main_view[slots]]
        if mains.size != 1:
            raise RingError(
                f"owner {int(owner)} has {mains.size} main slots (expected 1)"
            )
        return int(mains[0])

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
        """Owner-grouped CSR layout of the *active* slots (cached).

        One stable argsort per *structural* epoch replaces the per-tick
        ``lexsort`` the consumption phase historically paid: the grouping
        only changes when slots are inserted or removed, not when counts
        are consumed, so between churn events every tick reuses it.

        Only slots holding keys when the epoch starts are grouped.
        Within an epoch counts only fall, and a zero-count slot is never
        an owner's heaviest slot nor takes any residual, so the kernels
        consume exactly what they would over every live slot.  The one
        mutation that raises counts without a structural change,
        :meth:`add_tasks`, drops the cache.  The arrays are shared —
        callers must not mutate them.
        """
        cached = self._groups_cache
        if cached is not None:
            return cached
        active = np.flatnonzero(self._counts_view)
        owner = self._owner_view[active]
        # stable: a group keeps ascending ring position
        by_owner = np.argsort(owner, kind="stable")
        gorder = active[by_owner].astype(_I64)
        owners_sorted = owner[by_owner]
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
        order, bounds = slot_grouping(
            bucket_responsible_slots(self.ids, keys, self.space.bits),
            self.n_slots,
        )
        fresh_grouped = keys[order]
        del order
        per_slot = np.diff(bounds)
        affected = np.flatnonzero(per_slot)
        counts = self.counts
        old_sizes = counts[affected]
        group_sizes = old_sizes + per_slot[affected]
        total = int(group_sizes.sum())

        # lay out [old | fresh] per affected slot, grouped
        flat = np.empty(total, dtype=_U64)
        offsets = np.concatenate(([0], np.cumsum(group_sizes)))
        bounds = bounds.tolist()
        for g, slot in enumerate(affected.tolist()):
            lo = int(offsets[g])
            old_n = int(old_sizes[g])
            flat[lo : lo + old_n] = self.remaining_keys(slot)
            flat[lo + old_n : int(offsets[g + 1])] = fresh_grouped[
                bounds[slot] : bounds[slot + 1]
            ]
        # uniform shuffle within each group: sort by (group, random rank)
        labels = np.repeat(np.arange(affected.size), group_sizes)
        ranks = self.rng.random(total)
        flat = flat[np.lexsort((ranks, labels))]
        for g, slot in enumerate(affected.tolist()):
            merged = flat[int(offsets[g]) : int(offsets[g + 1])]
            self.keys[slot] = merged
            counts[slot] = merged.size
        self._loads_dirty = True
        self._remaining = None
        # a drained slot may hold keys again: regroup
        self._groups_cache = None

    def consume_at(self, slots: np.ndarray, amounts: np.ndarray) -> None:
        """Consume ``amounts[i]`` tasks from ``slots[i]`` (vectorized)."""
        self.counts[slots] -= amounts
        # a repeated slot takes one amount only: re-sum, don't subtract
        self.mark_loads_dirty()
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
        nid = int(self.space.validate(new_id))
        ids = self._ids_view
        pos = int(ids.searchsorted(_U64(nid)))
        if pos < self._n and ids.item(pos) == nid:
            raise IdSpaceError(f"identifier {new_id} already on the ring")
        succ = pos if pos < self._n else 0
        remaining = self.remaining_keys(succ)
        mask = arc_mask(remaining, self.pred_id(succ), nid, self.space.size)
        taken = remaining.compress(mask)
        kept = remaining.compress(~mask)
        self.keys[succ] = kept
        self._counts_view[succ] = kept.size
        if provenance is None:
            provenance = PROV_HONEST if is_main else PROV_BENEVOLENT
        self._restructure([], _Pending(
            [nid], [owner], [is_main], [taken.size], [provenance], [taken],
            [pos],
        ))
        return pos, taken.size

    def _merge(self, succ: int, buf: np.ndarray, moved: int) -> None:
        """Hand ``buf[:moved]`` to slot ``succ``: its remaining keys
        become the union, reshuffled so tail consumption stays uniform
        over the merge.  Every removal's keys move here."""
        counts = self._counts_view
        merged = np.concatenate(
            (buf[:moved], self.keys[succ][: counts.item(succ)])
        )
        # draws exactly as NaiveRingState's rng.permutation(merged)
        self.rng.shuffle(merged)
        self.keys[succ] = merged
        counts[succ] = merged.size

    def remove_slot(self, slot: int) -> int:
        """Remove a slot, merging its remaining keys into its successor.

        Models both a node leaving under churn (active backups make the
        hand-off lossless) and a Sybil quitting.  Returns the number of
        keys transferred.
        """
        if self._n <= 1:
            raise RingError("cannot remove the last slot on the ring")
        moved = self._counts_view.item(slot)
        if moved:
            self._merge((slot + 1) % self._n, self.keys[slot], moved)
        self._restructure([slot])
        return moved

    def retire_sybils(self, owner: int) -> int:
        """Remove the owner's Sybil slots, keeping its main identity.

        Returns the number of Sybil slots removed.  One
        :class:`RingBatch` without joins, replaying the sequential
        ascending-order removals.  Never empties the ring: when churn has
        already taken the owner's main identity, its last Sybil may be
        the last slot alive — that identity stays put (the same guard
        the engine applies to churn departures).
        """
        batch = RingBatch(self)
        is_main = self._main_view
        removed = 0
        for slot in self.slots_of_owner(owner).tolist():
            if batch._live <= 1:
                break
            if not is_main[slot]:
                batch._remove_one(slot)
                removed += 1
        batch.commit()
        return removed

    def commit_round(
        self,
        dead: list[int],
        ids: list[int],
        owners: list[int],
        keyed: dict[int, list[tuple[int, np.ndarray]]] | None = None,
        mains=(),
    ) -> None:
        """Commit a strategy round in one slab pass: drop the keyless
        slots at the distinct positions ``dead`` (any order) and insert
        a slot ``ids[j]`` of owner ``owners[j]`` for each ``j`` (any
        order): a Sybil, or a main identity for each ``j`` in ``mains``
        (a moved main, whose old slot is among the dropped).

        :class:`~repro.sim.view.SimView` hands over what its round
        recorded, so nothing is searched for again.  ``keyed`` maps each
        round-start slot that new Sybils took keys from to those Sybils,
        as ``(j, mask)`` in join order, ``mask`` selecting what the Sybil
        took from that slot's remaining keys when it joined.  A new slot
        not listed took no keys when it joined and never gains any: its
        arc only shrinks, or grows by arcs of retired keyless slots.  A
        keyed one lies in its slot's round-start arc, so only those
        arcs split, by the masks alone (see :meth:`_split_keyed`); the
        new ids are sorted and placed with one ``searchsorted``.

        The result equals removing the dead slots one by one with
        :meth:`remove_slot` — none holds keys, so no merge reshuffle
        draws from the RNG — then inserting each new slot with
        :meth:`insert_slot` (``is_main=j in mains``), in any order.  A
        new slot may reuse the id of a dropped slot.  Raises, before
        changing anything, :class:`RingError` if a position is out of
        range, a dropped slot holds keys or no slot would survive the
        drop, and :class:`IdSpaceError` if an id is outside the space or
        on the ring and not dropped.

        Replaying the recorded rounds of seed-1 1000-node / 100k-task
        trials on a shared 2-vCPU host (each commit on a freshly
        restored ring, minimum of 9 runs), a trial's commits summed to
        44 ms for random injection against 69 ms when every arc was
        searched for and split again, 66 against 109 ms for neighbor
        injection, 54 against 72 ms for smart neighbor injection and 26
        against 29 ms for invitation.
        """
        n = self._n
        drop = np.sort(np.asarray(dead, dtype=np.intp))
        if drop.size:
            if drop[0] < 0 or drop[-1] >= n:
                raise RingError(f"slot position out of range for {n} slots")
            if drop.size == n:
                raise RingError("cannot remove the last slot on the ring")
            if self._counts_view[drop].any():
                raise RingError("cannot drop a slot that holds remaining keys")
        pending = None
        if ids:
            new, order = _sorted_ids(self.space, ids)
            m = new.size
            at = self._ids_view.searchsorted(new)
            hit = at[self._ids_view.take(at, mode="clip") == new]
            if hit.size and np.setdiff1d(hit, drop).size:
                raise IdSpaceError("identifier already on the ring")
            counts = np.zeros(m, dtype=_I64)
            part_keys = [_EMPTY_KEYS] * m
            if keyed:
                self._split_keyed(keyed, order, counts, part_keys)
            is_main = np.zeros(m, dtype=bool)
            if len(mains):
                is_main[mains] = True
                is_main = is_main[order]
            pending = _Pending(
                ids=new,
                owner=np.array(owners, dtype=_I64)[order],
                is_main=is_main,
                counts=counts,
                provenance=np.where(
                    is_main, PROV_HONEST, PROV_BENEVOLENT
                ).astype(np.int8),
                keys=part_keys,
                at=at,
            )
        self._restructure(drop, pending)

    def _split_keyed(
        self,
        keyed: dict[int, list[tuple[int, np.ndarray]]],
        order: np.ndarray,
        counts: np.ndarray,
        part_keys: list[np.ndarray],
    ) -> None:
        """Split each arc named in ``keyed`` among the new slots that
        took keys from it — a strategy round's Sybils, a churn tick's
        joiners — by their masks alone, writing each new slot's keys and
        count at its sorted position (``order`` sorts the new ids).

        A key goes to the last join whose mask selected it — each join
        took its keys from whoever held them — and stays with the slot
        if none did: one compress per join and one for the slot."""
        keys, slot_counts = self.keys, self._counts_view
        rank = order.argsort()
        for slot, joins in keyed.items():
            rest = keys[slot][: slot_counts.item(slot)]
            if len(joins) == 1:
                (j, claimed), = joins
                r = rank.item(j)
                part_keys[r] = rest.compress(claimed)
                counts[r] = part_keys[r].size
            else:
                claimed = np.zeros(rest.size, dtype=bool)
                for j, mask in reversed(joins):
                    r = rank.item(j)
                    part_keys[r] = rest.compress(mask & ~claimed)
                    counts[r] = part_keys[r].size
                    claimed |= mask
            kept = rest.compress(~claimed)
            keys[slot] = kept
            slot_counts[slot] = kept.size

    # ------------------------------------------------------------------
    # batch structure changes (used by the engine's churn phase)
    # ------------------------------------------------------------------
    def begin_batch_removal(self, owners) -> "RingBatch":
        """Start a churn tick's batch: it may remove some of ``owners``
        (the owner indices named here: one scan locates their slots),
        then take the tick's joins; call :meth:`RingBatch.commit`."""
        return RingBatch(self, owners)

    def begin_batch_insertion(self) -> "RingBatch":
        """Start the batch of a tick with joins but no departures; call
        :meth:`RingBatch.commit`."""
        return RingBatch(self)

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
        self._verify_loads_cache()

    def _verify_loads_cache(self) -> None:
        cached = self._loads_cache
        if cached is None or self._loads_dirty:
            return
        fresh = np.bincount(
            self.owner, weights=self.counts, minlength=cached.size
        ).astype(_I64)
        if fresh.size != cached.size or (fresh != cached).any():
            raise RingError("owner loads cache out of sync")


class RingBatch:
    """One churn tick's ring change: departures, then joins, committed
    in one slab pass.

    A tick queues its departures with :meth:`remove_owner_guarded` /
    :meth:`crash_owner_guarded`, tests new ids with :meth:`ids_exist`
    against the ring they leave, queues its joins with one :meth:`add`
    and calls :meth:`commit` once.  After :meth:`add`, a removal or a
    second :meth:`add` raises :class:`RingError`, and so does a second
    :meth:`commit`.

    Removals replay the exact merge-and-shuffle sequence of repeated
    :meth:`RingState.remove_slot` calls (ascending slot order, as the
    sequential loop produced) against *stable* slot positions, so RNG
    consumption is bit-identical to the sequential path.  :meth:`add`
    takes every joiner at once, as arrays in join order: the ids are
    sorted once and placed with one ``searchsorted`` among the live
    slots, and each join's selection mask is taken in its arc.
    :meth:`commit` splits each keyed arc once by those masks, by the
    rule a strategy round's commit uses (:meth:`RingState._split_keyed`),
    then drops the dead slots and splices in the joins in one
    :meth:`RingState._restructure`.  A split draws no randomness, so the
    final layout equals sequential :meth:`RingState.insert_slot` calls
    in any order, and :attr:`acquired` holds their per-join counts.
    :meth:`RingState.retire_sybils` is one batch without joins.
    """

    def __init__(self, state: RingState, owners=()):
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
        # the joins (set by add), and what the commit's split takes
        # besides them: each keyed arc's joins as (join index, mask) in
        # join order, and the order that sorts the new ids
        self._pending: _Pending | None = None
        self._split: tuple[
            dict[int, list[tuple[int, np.ndarray]]], np.ndarray
        ] | None = None
        self._committed = False
        #: keys each joiner took when it joined, in join order: those in
        #: (its nearest earlier-joined predecessor, its id] — the count a
        #: sequential ``insert_slot`` returns (set by :meth:`add`)
        self.acquired: list[int] = []
        # each named owner's pre-batch slot positions, ascending: one
        # membership scan of the owner column.  Flags past the largest
        # listed owner stay False, and the clipped gather maps every
        # larger owner there
        arr = np.asarray(owners, dtype=_I64)
        grouped: dict[int, list[int]] = {o: [] for o in arr.tolist()}
        if arr.size:
            if arr.min() < 0:
                raise RingError("owner indices must be non-negative")
            ow = state.owner
            flags = np.zeros(int(arr.max()) + 2, dtype=bool)
            flags[arr] = True
            hits = flags.take(ow, mode="clip").nonzero()[0]
            for p, o in zip(hits.tolist(), ow[hits].tolist()):
                grouped[o].append(p)
        self._slots_by_owner = grouped
        # hot references — stable for the lifetime of the batch, since
        # no structural op rebinds the prefix views until commit()
        self._counts = state.counts
        self._keys = state.keys
        self._merge = state._merge

    def _owner_slots(self, owner: int) -> list[int]:
        """Pre-batch positions of the slots of ``owner`` still alive in
        this batch, ascending; raises :class:`RingError` once the batch
        holds its joins, or for an owner not named when it began."""
        if self._pending is not None:
            raise RingError("ring batch already holds its joins")
        slots = self._slots_by_owner.get(int(owner))
        if slots is None:
            raise RingError(f"owner {int(owner)} was not named for this batch")
        if self._live != self._n:
            alive = self._alive
            slots = [s for s in slots if alive[s]]
        return slots

    def remove_owner_guarded(self, owner: int) -> int | None:
        """Queue removal of all the owner's slots unless that would
        empty the ring; returns keys moved, or None (nothing queued)
        if guarded.  The guard and the removal share one read of the
        owner's slot list.
        """
        slots = self._owner_slots(owner)
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
        slots = self._owner_slots(owner)
        if self._live - len(slots) < 1:
            return None
        alive = self._alive
        n = self._n
        counts = self._counts
        keys = self._keys
        # phase 1: mark every slot dead, capturing its key buffer
        captured = [(slot, keys[slot], int(counts[slot])) for slot in slots]
        for slot in slots:
            self._mark_dead(slot)
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
                    self._merge(succ, buf, moved)
        return recovered, lost

    def ids_exist(self, idents: np.ndarray) -> np.ndarray:
        """:meth:`RingState.ids_exist` on the ring this batch leaves:
        a slot queued for removal no longer counts."""
        return _ids_present(self._state.ids, idents, self._alive)

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

    def _mark_dead(self, slot: int) -> None:
        self._keys[slot] = _EMPTY_KEYS
        self._counts[slot] = 0
        self._alive[slot] = 0
        self._skip[slot] = (slot + 1) % self._n
        self._dead.append(slot)
        self._live -= 1

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
        moved = self._counts.item(slot)
        if moved:
            self._merge(succ, self._keys[slot], moved)
        self._mark_dead(slot)
        return moved

    def add(self, idents, owners, *, is_main: bool) -> int:
        """Queue the joins of identity ``idents[j]`` (a list of ints or a
        ``uint64`` array) for owner ``owners[j]``, in join order; returns
        the keys they take in total.  Once per batch, after its removals.

        Raises, before queueing anything, :class:`IdSpaceError` if an id
        is outside the space, on the ring the removals leave, or twice
        in the batch.
        """
        if self._pending is not None:
            raise RingError("ring batch already holds its joins")
        state = self._state
        new, order = _sorted_ids(state.space, idents)
        m = new.size
        owner = np.asarray(owners, dtype=_I64)
        if owner.shape != (m,):
            raise RingError("one owner per joining identity")
        if not m:
            self._pending = _NO_JOINS
            return 0
        joins = new.tolist()
        # the sorted joins[j] is the when[j]-th to join
        when = order.tolist()
        if len(set(joins)) < m:
            raise IdSpaceError("identifier joins twice in one batch")
        ids = live_ids = state.ids
        live: np.ndarray | None = None
        if self._dead:
            live = np.frombuffer(self._alive, dtype=bool).nonzero()[0]
            live_ids = ids.take(live)
        n_live = live_ids.size
        # each id's successor among the live slots; n_live past the top
        # live id, where the ring wraps to the first
        place = live_ids.searchsorted(new)
        succ = place.tolist()
        # the ids past the top live id open the first live slot's arc:
        # rotate them to the front, so each arc's joiners are one run of
        # ``runs``, clockwise
        runs = list(range(m))
        wrapped = m - bisect.bisect_left(succ, n_live)
        if wrapped:
            runs = runs[m - wrapped :] + runs[: m - wrapped]
        keys, counts, size = state.keys, state.counts, state.space.size
        keyed: dict[int, list[tuple[int, np.ndarray]]] = {}
        acquired = [0] * m
        first = 0
        while first < m:
            k = succ[runs[first]] % n_live
            end = first + 1
            while end < m and succ[runs[end]] % n_live == k:
                end += 1
            run = runs[first:end]
            first = end
            # only the run's last id can equal its successor's
            last = joins[run[-1]]
            if live_ids.item(k) == last:
                raise IdSpaceError(f"identifier {last} already on the ring")
            slot = k if live is None else live.item(k)
            rest = keys[slot][: counts.item(slot)]
            if not rest.size:
                continue
            pred = live_ids.item(k - 1)
            if len(run) > 1:
                joined = _join_masks(rest, pred, run, joins, when, size)
            elif k:
                # past the first slot no arc wraps: one key compare
                joined = [(when[run[0]], rest <= _U64(last))]
            else:
                joined = [(when[run[0]], arc_mask(rest, pred, last, size))]
            keyed[slot] = joined
            for j, mask in joined:
                acquired[j] = int(np.count_nonzero(mask))
        self._split = (keyed, order)
        self._pending = _Pending(
            ids=new,
            owner=owner.take(order),
            is_main=[is_main] * m,
            counts=np.zeros(m, dtype=_I64),
            provenance=[PROV_HONEST if is_main else PROV_BENEVOLENT] * m,
            keys=[_EMPTY_KEYS] * m,
            at=place if live is None else ids.searchsorted(new),
        )
        self.acquired = acquired
        return sum(acquired)

    def commit(self) -> None:
        """Split the keyed arcs, then drop the dead slots and splice in
        the joins in one slab pass."""
        if self._committed:
            raise RingError("ring batch already committed")
        self._committed = True
        state, pending = self._state, self._pending
        if self._split is not None:
            state._split_keyed(*self._split, pending.counts, pending.keys)
        state._restructure(sorted(self._dead), pending)
