"""Circular identifier spaces for distributed hash tables.

A Chord-style DHT places nodes and keys on a ring of ``2**bits``
identifiers.  All arithmetic (distance, midpoints, interval membership)
wraps modulo the ring size.  :class:`IdSpace` centralizes that modular
arithmetic so that the rest of the library never hand-rolls wraparound
logic.

The paper uses SHA-1, i.e. a 160-bit space.  The protocol-level Chord
implementation uses the full 160 bits (Python integers); the fast tick
simulator uses a 64-bit space (NumPy ``uint64``), which is statistically
indistinguishable for load-balance purposes (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from repro.errors import IdSpaceError
from repro.util.rng import bounded_int, uniform_word_id

__all__ = ["IdSpace", "SPACE_160", "SPACE_64", "SPACE_32"]


@dataclass(frozen=True)
class IdSpace:
    """A circular identifier space of ``2**bits`` points.

    Parameters
    ----------
    bits:
        Width of identifiers in bits.  Must be positive.

    Examples
    --------
    >>> space = IdSpace(8)
    >>> space.size
    256
    >>> space.distance(250, 5)   # clockwise distance, wrapping
    11
    >>> space.in_interval(2, 250, 5)
    True
    """

    bits: int

    def __post_init__(self) -> None:
        if self.bits <= 0:
            raise IdSpaceError(f"bits must be positive, got {self.bits}")

    # cached: modular arithmetic reads these on every call, and a frozen
    # instance's ``bits`` never changes
    @cached_property
    def size(self) -> int:
        """Number of identifiers in the space (``2**bits``)."""
        return 1 << self.bits

    @cached_property
    def max_id(self) -> int:
        """Largest valid identifier (``2**bits - 1``)."""
        return self.size - 1

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def contains(self, ident: int) -> bool:
        """Return True if ``ident`` is a valid identifier in this space."""
        return 0 <= ident < self.size

    def validate(self, ident: int) -> int:
        """Return ``ident`` unchanged, raising :class:`IdSpaceError` if invalid."""
        if not self.contains(ident):
            raise IdSpaceError(
                f"identifier {ident!r} outside [0, 2**{self.bits})"
            )
        return ident

    def wrap(self, value: int) -> int:
        """Reduce an arbitrary integer into the space (mod ``2**bits``)."""
        return value & self.max_id

    # ------------------------------------------------------------------
    # modular arithmetic
    # ------------------------------------------------------------------
    def distance(self, start: int, end: int) -> int:
        """Clockwise distance from ``start`` to ``end`` (0 when equal)."""
        return (end - start) & self.max_id

    def add(self, ident: int, delta: int) -> int:
        """Move ``delta`` steps clockwise from ``ident`` (delta may be negative)."""
        return (ident + delta) & self.max_id

    def midpoint(self, start: int, end: int) -> int:
        """The identifier halfway along the clockwise arc from start to end.

        For a zero-length arc (``start == end``, i.e. the full circle) this
        is the antipode of ``start``.
        """
        span = self.distance(start, end)
        if span == 0:
            span = self.size
        return self.add(start, span // 2)

    def in_interval(
        self,
        ident: int,
        start: int,
        end: int,
        *,
        closed_left: bool = False,
        closed_right: bool = True,
    ) -> bool:
        """Interval membership on the ring, clockwise from start to end.

        Default bounds are ``(start, end]`` — the Chord convention for the
        range of keys a node with id ``end`` and predecessor ``start`` is
        responsible for.  When ``start == end`` the interval is the whole
        ring (every node is responsible for everything in a 1-node ring).
        """
        if start == end:
            # Full ring, except a fully-open degenerate interval excludes
            # the single boundary point.
            if not closed_left and not closed_right:
                return ident != start
            return True
        d_end = self.distance(start, ident)
        d_span = self.distance(start, end)
        if d_end == 0:  # ident == start
            return closed_left
        if d_end == d_span:  # ident == end
            return closed_right
        return d_end < d_span

    # ------------------------------------------------------------------
    # sampling and iteration helpers
    # ------------------------------------------------------------------
    def random_id(self, rng: np.random.Generator) -> int:
        """Draw a uniformly distributed identifier as a Python int.

        Works for any bit width: identifiers wider than 64 bits are
        assembled from 64-bit words.
        """
        if self.bits <= 63:
            return bounded_int(rng, self.size)
        if self.bits == 64:
            # 2**64 exceeds the default int64 bound: one uint64 word
            return uniform_word_id(rng, 64)
        words = (self.bits + 63) // 64
        value = 0
        for _ in range(words):
            value = (value << 64) | uniform_word_id(rng, 64)
        return value & self.max_id

    def random_in_interval(
        self, rng: np.random.Generator, start: int, end: int
    ) -> int:
        """Uniform identifier strictly inside the clockwise arc (start, end).

        Raises :class:`IdSpaceError` when the open arc is empty (adjacent
        identifiers leave no room for a new one).
        """
        span = self.distance(start, end)
        if span == 0:
            span = self.size
        if span <= 1:
            raise IdSpaceError(
                f"open interval ({start}, {end}) contains no identifiers"
            )
        # offsets 1 .. span-1 keep the draw strictly inside the arc
        if span - 1 <= (1 << 63):
            offset = 1 + bounded_int(rng, span - 1)
        else:  # very wide arcs in >64-bit spaces
            offset = 1 + self.random_id(rng) % (span - 1)
        return self.add(start, offset)

    def evenly_spaced(self, count: int, *, phase: int = 0) -> list[int]:
        """``count`` identifiers spaced as evenly as the space allows.

        Used for the paper's Figure 3 (an idealized, perfectly balanced
        node placement).
        """
        if count <= 0:
            raise IdSpaceError(f"count must be positive, got {count}")
        return [self.wrap(phase + (i * self.size) // count) for i in range(count)]

    def iter_powers(self, ident: int) -> Iterator[int]:
        """Yield ``ident + 2**k`` for k = 0..bits-1 — Chord finger starts."""
        for k in range(self.bits):
            yield self.add(ident, 1 << k)


#: The paper's SHA-1 space.
SPACE_160 = IdSpace(160)
#: Space used by the vectorized tick simulator (fits NumPy uint64).
SPACE_64 = IdSpace(64)
#: A tiny space that makes collisions and wraps easy to exercise in tests.
SPACE_32 = IdSpace(32)
