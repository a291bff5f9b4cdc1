"""Reproducible random-stream management.

All stochastic components in the library draw from NumPy ``Generator``
objects derived from a single :class:`numpy.random.SeedSequence`.  Trials
of an experiment get *spawned* child sequences, so

* the same top-level seed always reproduces the same results, and
* trials are statistically independent and can run in parallel without
  sharing generator state.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "make_rng",
    "spawn_rngs",
    "spawn_seeds",
    "bounded_int",
    "uniform_word_id",
]

_WORD = 1 << 64
_LOW64 = _WORD - 1

#: bit generators whose ``random_raw`` words are the 64-bit words
#: NumPy's draws consume; any other (MT19937 yields 32-bit raw words)
#: takes ``rng.integers`` itself
_RAW64 = (np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64, np.random.Philox)


def make_rng(seed: int | None | np.random.SeedSequence = None) -> np.random.Generator:
    """Build a PCG64 generator from a seed, SeedSequence, or fresh entropy."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.PCG64(seed))
    return np.random.default_rng(seed)


def spawn_seeds(seed: int | None, count: int) -> list[np.random.SeedSequence]:
    """``count`` independent child seed sequences from a root seed."""
    root = np.random.SeedSequence(seed)
    return root.spawn(count)


def spawn_rngs(seed: int | None, count: int) -> list[np.random.Generator]:
    """``count`` independent generators from a root seed."""
    return [make_rng(child) for child in spawn_seeds(seed, count)]


def bounded_int(rng: np.random.Generator, n: int) -> int:
    """``int(rng.integers(0, n))``, drawn from the same stream, cheaper.

    For ``2**32 < n <= 2**63`` NumPy draws the default-``int64`` value
    with Lemire's multiply-shift over one 64-bit word, redrawing only
    while the product's low word is below ``(2**64 - n) % n``; this
    replays that over ``random_raw`` words, so the value and the
    generator state afterwards are identical, without the scalar call's
    overhead.  Smaller bounds draw buffered 32-bit halves, which raw
    words cannot replay, and larger ones are invalid for ``int64``:
    both go to ``rng.integers`` itself, as does a bit generator whose
    raw words are not 64-bit.  ``tests/test_rng.py`` pins the replay
    against NumPy.
    """
    bitgen = rng.bit_generator
    if n <= 1 << 32 or n > 1 << 63 or not isinstance(bitgen, _RAW64):
        return int(rng.integers(0, n))
    raw = bitgen.random_raw
    m = raw() * n
    if m & _LOW64 < n:
        threshold = (_WORD - n) % n
        while m & _LOW64 < threshold:
            m = raw() * n
    return m >> 64


def uniform_word_id(rng: np.random.Generator, bits: int) -> int:
    """``int(rng.integers(0, 2**bits, dtype=np.uint64))`` for
    ``bits <= 64``, drawn from the same stream.

    Above 32 bits NumPy's draw is the top ``bits`` of one 64-bit word
    (the whole word at 64 bits), which a 64-bit ``random_raw`` yields
    directly.
    """
    bitgen = rng.bit_generator
    if 32 < bits <= 64 and isinstance(bitgen, _RAW64):
        return bitgen.random_raw() >> (64 - bits)
    return int(rng.integers(0, 1 << bits, dtype=np.uint64))
