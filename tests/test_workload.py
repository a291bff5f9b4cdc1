"""Tests for workload generation and the ideal-runtime definition."""

import numpy as np
import pytest

from repro.errors import ConfigError, IdSpaceError
from repro.hashspace.hashing import uniform_ids_array
from repro.hashspace.idspace import IdSpace
from repro.sim.workload import (
    draw_new_node_id,
    draw_new_node_ids,
    draw_task_keys,
    draw_unique_ids,
    ideal_runtime,
)


class TestDrawUniqueIds:
    def test_unique_and_in_range(self, rng):
        space = IdSpace(10)
        ids = draw_unique_ids(500, space, rng)
        assert np.unique(ids).size == 500
        assert int(ids.max()) < 1024

    def test_exhaustive_draw(self, rng):
        space = IdSpace(8)
        ids = draw_unique_ids(256, space, rng)
        assert np.unique(ids).size == 256

    def test_overfull_raises(self, rng):
        with pytest.raises(ConfigError):
            draw_unique_ids(300, IdSpace(8), rng)

    def test_not_sorted(self, rng):
        """Ids must be permuted so owner index is independent of position."""
        ids = draw_unique_ids(1000, IdSpace(32), rng)
        assert not (ids[:-1] <= ids[1:]).all()


class TestDrawTaskKeys:
    def test_shape_dtype(self, rng):
        keys = draw_task_keys(1234, IdSpace(64), rng)
        assert keys.shape == (1234,)
        assert keys.dtype == np.uint64


class TestDrawNewNodeId:
    def test_avoids_existing(self, rng):
        space = IdSpace(8)
        taken = set(range(0, 256, 2))  # all even ids occupied
        for _ in range(20):
            ident = draw_new_node_id(space, rng, lambda i: i in taken)
            assert ident % 2 == 1

    def test_gives_up_when_full(self, rng):
        space = IdSpace(8)
        with pytest.raises(ConfigError):
            draw_new_node_id(space, rng, lambda i: True)

    @pytest.mark.parametrize("bits", [16, 63, 64])
    def test_stream_matches_array_draws(self, bits):
        """The scalar draw yields the ids (and leaves the generator
        state) that one-element ``uniform_ids_array`` draws would."""
        space = IdSpace(bits)
        scalar = np.random.default_rng(bits)
        array = np.random.default_rng(bits)
        drawn = [
            draw_new_node_id(space, scalar, lambda i: False)
            for _ in range(10_000)
        ]
        expected = [
            int(uniform_ids_array(1, space, array)[0]) for _ in range(10_000)
        ]
        assert drawn == expected
        assert scalar.bit_generator.state == array.bit_generator.state

    def test_rejects_wide_space(self, rng):
        with pytest.raises(IdSpaceError):
            draw_new_node_id(IdSpace(65), rng, lambda i: False)


class TestDrawNewNodeIds:
    @pytest.mark.parametrize("bits", [8, 16, 31, 32, 33, 63, 64])
    def test_sized_draw_is_the_scalar_stream(self, bits):
        """One sized ``integers`` call yields the values, and leaves the
        generator state, that the same number of scalar calls do."""
        high = 1 << bits
        sized = np.random.default_rng(bits)
        scalar = np.random.default_rng(bits)
        for k in (1, 2, 7, 300):
            got = sized.integers(0, high, size=k, dtype=np.uint64).tolist()
            want = [
                int(scalar.integers(0, high, dtype=np.uint64))
                for _ in range(k)
            ]
            assert got == want
            assert sized.bit_generator.state == scalar.bit_generator.state

    @pytest.mark.parametrize("bits", [8, 16, 64])
    @pytest.mark.parametrize("count", [1, 5, 40])
    def test_replays_the_scalar_loop(self, bits, count):
        """Equal ids and generator state to ``count`` scalar draws, each
        rejecting the ring and the ids accepted before it — in an 8-bit
        space with half the ids taken, collisions are common."""
        space = IdSpace(bits)
        taken = set(range(0, min(space.size, 256), 2))

        def exist(cands):
            return np.array([int(c) in taken for c in cands.tolist()])

        batched = np.random.default_rng(count)
        looped = np.random.default_rng(count)
        got = draw_new_node_ids(count, space, batched, exist)
        accepted: set[int] = set()
        want = []
        for _ in range(count):
            ident = draw_new_node_id(
                space, looped, lambda i: i in taken or i in accepted
            )
            accepted.add(ident)
            want.append(ident)
        assert got == want
        assert batched.bit_generator.state == looped.bit_generator.state

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_draw_bound_is_per_identifier(self, seed):
        """The 64-draw bound restarts with each identifier: in a space
        with 56 free ids, 40 joiners take far more than 64 rejected
        draws in total, and still succeed as the scalar loop does."""
        space = IdSpace(8)
        taken = set(range(200))

        def exist(cands):
            return np.array([int(c) in taken for c in cands.tolist()])

        batched = np.random.default_rng(seed)
        looped = np.random.default_rng(seed)
        got = draw_new_node_ids(40, space, batched, exist)
        accepted: set[int] = set()
        for ident in got:
            assert ident == draw_new_node_id(
                space, looped, lambda i: i in taken or i in accepted
            )
            accepted.add(ident)
        assert batched.bit_generator.state == looped.bit_generator.state

    def test_gives_up_when_full(self, rng):
        def exist(cands):
            return np.ones(cands.size, dtype=bool)

        with pytest.raises(ConfigError):
            draw_new_node_ids(3, IdSpace(8), rng, exist)

    def test_gives_up_when_the_batch_fills_the_space(self, rng):
        """The ids of one call count as taken for the ones after."""
        space = IdSpace(8)
        with pytest.raises(ConfigError):
            draw_new_node_ids(257, space, rng, lambda c: np.zeros(c.size, bool))

    def test_rejects_wide_space(self, rng):
        with pytest.raises(IdSpaceError):
            draw_new_node_ids(1, IdSpace(65), rng, lambda c: c < 0)


class TestIdealRuntime:
    def test_paper_example(self):
        # 1000 nodes, 100,000 tasks, one task per tick -> 100 ticks
        assert ideal_runtime(100_000, 1000) == 100.0

    def test_heterogeneous_capacity(self):
        assert ideal_runtime(300, 30) == 10.0

    def test_zero_capacity_raises(self):
        with pytest.raises(ConfigError):
            ideal_runtime(100, 0)
