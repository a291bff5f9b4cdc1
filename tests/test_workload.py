"""Tests for workload generation and the ideal-runtime definition."""

import numpy as np
import pytest

from repro.errors import ConfigError, IdSpaceError
from repro.hashspace.hashing import uniform_ids_array
from repro.hashspace.idspace import IdSpace
from repro.sim.workload import (
    draw_new_node_id,
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


class TestIdealRuntime:
    def test_paper_example(self):
        # 1000 nodes, 100,000 tasks, one task per tick -> 100 ticks
        assert ideal_runtime(100_000, 1000) == 100.0

    def test_heterogeneous_capacity(self):
        assert ideal_runtime(300, 30) == 10.0

    def test_zero_capacity_raises(self):
        with pytest.raises(ConfigError):
            ideal_runtime(100, 0)
