"""The raw-word draw helpers replay NumPy's scalar draws exactly.

:func:`repro.util.rng.bounded_int` and :func:`repro.util.rng.uniform_word_id`
reimplement NumPy's bounded-integer paths over ``random_raw`` words.
Every seeded result that places an identifier depends on that replay
being exact, value for value and down to the generator state (including
PCG64's buffered 32-bit half), so a NumPy release that changes its
bounded-integer algorithm must fail here before it moves a fingerprint.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.hashspace.idspace import IdSpace
from repro.sim.engine import TickEngine
from repro.sim.workload import draw_new_node_id
from repro.util.rng import bounded_int, make_rng, uniform_word_id

#: bounds on both sides of each NumPy path switch: the buffered 32-bit
#: path (n <= 2**32), Lemire over one 64-bit word above it, with a high
#: rejection rate near 2**63, and the int64 ceiling itself
BOUNDS = [
    2, 3, 1000, 2**32 - 3, 2**32 - 1, 2**32, 2**32 + 1, 2**32 + 3,
    2**40 + 7, 2**62 + 1, 3 * 2**61 + 5, 2**63 - 1, 2**63,
]
WIDTHS = [8, 32, 33, 40, 64]


def _draw_pair(kind: int, arg: int, ref: np.random.Generator,
               rng: np.random.Generator):
    """One operation on the reference and on the helper generator."""
    if kind == 0:
        return int(ref.integers(0, arg)), bounded_int(rng, arg)
    if kind == 1:
        bits = WIDTHS[arg % len(WIDTHS)]
        return (
            int(ref.integers(0, 1 << bits, dtype=np.uint64)),
            uniform_word_id(rng, bits),
        )
    if kind == 2:
        return ref.random(), rng.random()
    if kind == 3:
        return ref.permutation(5).tolist(), rng.permutation(5).tolist()
    # small-range draws use (and leave) PCG64's buffered 32-bit half
    return int(ref.integers(0, 7)), int(rng.integers(0, 7))


def test_interleaved_stream_matches_numpy():
    """300 seeds x 200 interleaved operations."""
    for seed in range(300):
        ref, rng = make_rng(seed), make_rng(seed)
        script = make_rng(10**6 + seed)
        kinds = script.integers(0, 5, size=200).tolist()
        picks = script.integers(0, len(BOUNDS), size=200).tolist()
        for kind, pick in zip(kinds, picks):
            arg = BOUNDS[pick] if kind == 0 else pick
            want, got = _draw_pair(kind, arg, ref, rng)
            assert got == want, (seed, kind, arg)
        assert rng.bit_generator.state == ref.bit_generator.state, seed


@pytest.mark.parametrize("n", BOUNDS)
def test_bounded_int_each_bound(n):
    ref, rng = make_rng(7), make_rng(7)
    ref.integers(0, 7)  # leave a buffered 32-bit half behind
    rng.integers(0, 7)
    for _ in range(500):
        assert bounded_int(rng, n) == int(ref.integers(0, n))
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize(
    "bitgen",
    [np.random.PCG64DXSM, np.random.SFC64, np.random.Philox, np.random.MT19937],
)
def test_other_bit_generators_match_numpy(bitgen):
    """64-bit raw words replay like PCG64's; MT19937's are 32-bit, so
    its draws must go to ``rng.integers`` (a raw-word replay would give
    ids below 2**32)."""
    ref, rng = (np.random.Generator(bitgen(11)) for _ in range(2))
    for i in range(2000):
        n = BOUNDS[i % len(BOUNDS)]
        assert bounded_int(rng, n) == int(ref.integers(0, n)), n
        bits = WIDTHS[i % len(WIDTHS)]
        assert uniform_word_id(rng, bits) == int(
            ref.integers(0, 1 << bits, dtype=np.uint64)
        ), bits
    assert _plain(rng.bit_generator.state) == _plain(ref.bit_generator.state)


def _plain(state):
    """A bit generator state with its arrays as lists, for ``==``."""
    if isinstance(state, dict):
        return {k: _plain(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


def test_out_of_range_bound_raises_like_numpy():
    with pytest.raises(ValueError):
        make_rng(0).integers(0, 2**63 + 1)
    with pytest.raises(ValueError):
        bounded_int(make_rng(0), 2**63 + 1)


@pytest.mark.parametrize("bits", WIDTHS)
def test_draw_new_node_id_matches_scalar_reference(bits):
    space = IdSpace(bits)
    ref, rng = make_rng(bits), make_rng(bits)
    taken: set[int] = set()
    for _ in range(100):
        want = None
        while want is None or want in taken:
            want = int(ref.integers(0, space.size, dtype=np.uint64))
        got = draw_new_node_id(space, rng, taken.__contains__)
        assert got == want
        taken.add(got)
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("bits", WIDTHS)
def test_place_in_slot_matches_scalar_reference(bits):
    engine = TickEngine(SimulationConfig(
        strategy="random_injection", n_nodes=12, n_tasks=200, bits=bits,
        seed=bits,
    ))
    view, state = engine.view, engine.state
    size = state.space.size
    for slot in range(state.n_slots):
        ref = copy.deepcopy(engine.rng)
        start, end = state.slot_arc(slot)
        span = (end - start) % size or size
        want = None
        for _ in range(8 if span > 1 else 0):
            ident = (start + 1 + int(ref.integers(0, span - 1))) % size
            if ident != end and not state.id_exists(ident):
                want = ident
                break
        assert view._place_in_slot(slot) == want
        assert engine.rng.bit_generator.state == ref.bit_generator.state


def _reference_random_id(space: IdSpace, ref: np.random.Generator) -> int:
    if space.bits <= 63:
        return int(ref.integers(0, space.size))
    value = 0
    for _ in range((space.bits + 63) // 64):
        value = (value << 64) | int(ref.integers(0, 1 << 64, dtype=np.uint64))
    return value & space.max_id


@pytest.mark.parametrize("bits", [8, 33, 64, 160])
def test_idspace_draws_match_scalar_reference(bits):
    space = IdSpace(bits)
    ref, rng = make_rng(bits), make_rng(bits)
    for _ in range(200):
        start = space.random_id(rng)
        assert start == _reference_random_id(space, ref)
        end = space.add(start, 2 + start % (space.size // 3))
        span = space.distance(start, end)
        got = space.random_in_interval(rng, start, end)
        if span - 1 <= 1 << 63:
            offset = int(ref.integers(0, span - 1))
        else:
            offset = _reference_random_id(space, ref) % (span - 1)
        assert got == space.add(start, 1 + offset)
    assert rng.bit_generator.state == ref.bit_generator.state
