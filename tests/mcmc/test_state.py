"""Tests for repro.mcmc.state — configuration bookkeeping invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ChainError
from repro.geometry.circle import Circle
from repro.mcmc.state import CircleConfiguration


class TestBasics:
    def test_add_remove(self):
        cfg = CircleConfiguration()
        i = cfg.add(10, 20, 5)
        assert cfg.n == 1
        assert cfg.circle_at(i) == Circle(10, 20, 5)
        removed = cfg.remove(i)
        assert removed == Circle(10, 20, 5)
        assert cfg.n == 0

    def test_remove_inactive_raises(self):
        cfg = CircleConfiguration()
        with pytest.raises(ChainError):
            cfg.remove(0)

    def test_add_bad_radius_raises(self):
        with pytest.raises(ChainError):
            CircleConfiguration().add(0, 0, -1)

    def test_index_reuse_lifo(self):
        cfg = CircleConfiguration()
        i = cfg.add(1, 1, 1)
        cfg.remove(i)
        j = cfg.add(2, 2, 2)
        assert i == j

    def test_move_center(self):
        cfg = CircleConfiguration()
        i = cfg.add(5, 5, 2)
        old = cfg.move_center(i, 8, 9)
        assert old == (5, 5)
        assert cfg.position_of(i) == (8, 9)
        assert cfg.neighbours_within(8, 9, 0.1) == [i]

    def test_set_radius(self):
        cfg = CircleConfiguration()
        i = cfg.add(5, 5, 2)
        old = cfg.set_radius(i, 3.5)
        assert old == 2.0
        assert cfg.radius_of(i) == 3.5

    def test_set_radius_invalid(self):
        cfg = CircleConfiguration()
        i = cfg.add(5, 5, 2)
        with pytest.raises(ChainError):
            cfg.set_radius(i, 0)

    def test_growth_beyond_initial_capacity(self):
        cfg = CircleConfiguration()
        idx = [cfg.add(float(k), float(k), 1.0) for k in range(200)]
        assert cfg.n == 200
        assert len(set(idx)) == 200
        cfg.check_invariants()

    def test_clear(self):
        cfg = CircleConfiguration()
        for k in range(10):
            cfg.add(k, k, 1)
        cfg.clear()
        assert cfg.n == 0
        cfg.check_invariants()


class TestQueries:
    def test_neighbours_within(self):
        cfg = CircleConfiguration(hash_cell_size=8)
        a = cfg.add(0, 0, 1)
        b = cfg.add(3, 0, 1)
        c = cfg.add(30, 0, 1)
        assert set(cfg.neighbours_within(0, 0, 5)) == {a, b}
        assert set(cfg.neighbours_within(0, 0, 5, exclude=a)) == {b}

    def test_nearest_within(self):
        cfg = CircleConfiguration()
        a = cfg.add(0, 0, 1)
        b = cfg.add(2, 0, 1)
        cfg.add(9, 0, 1)
        assert cfg.nearest_within(0.1, 0, 5, exclude=a) == b

    def test_indices_in_rect(self):
        cfg = CircleConfiguration()
        a = cfg.add(5, 5, 1)
        cfg.add(15, 15, 1)
        assert cfg.indices_in_rect(0, 0, 10, 10) == [a]


class TestBulkTransfer:
    def test_roundtrip_arrays(self):
        cfg = CircleConfiguration()
        for k in range(5):
            cfg.add(k * 10.0, k * 5.0, 1.0 + k)
        xs, ys, rs = cfg.to_arrays()
        back = CircleConfiguration.from_arrays(xs, ys, rs)
        assert back.n == 5
        assert np.allclose(back.to_arrays()[0], xs)

    def test_from_arrays_shape_mismatch(self):
        with pytest.raises(ChainError):
            CircleConfiguration.from_arrays([1, 2], [1], [1, 2])

    def test_from_circles(self):
        circles = [Circle(1, 2, 3), Circle(4, 5, 6)]
        cfg = CircleConfiguration.from_circles(circles)
        assert cfg.circles() == circles

    def test_copy_independent(self):
        cfg = CircleConfiguration()
        i = cfg.add(1, 1, 1)
        cp = cfg.copy()
        cfg.move_center(i, 9, 9)
        assert cp.circles()[0] == Circle(1, 1, 1)


class TestInvariantsUnderRandomOps:
    @given(st.lists(st.integers(0, 3), min_size=0, max_size=120), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_random_op_sequence(self, ops, seed):
        """Apply a random add/remove/move/resize sequence; invariants hold
        and active circles match a shadow dict."""
        rng = np.random.default_rng(seed)
        cfg = CircleConfiguration(hash_cell_size=16)
        shadow = {}
        for op in ops:
            if op == 0 or not shadow:  # add
                i = cfg.add(float(rng.uniform(0, 100)), float(rng.uniform(0, 100)), 2.0)
                shadow[i] = cfg.circle_at(i)
            elif op == 1:  # remove
                i = list(shadow)[int(rng.integers(len(shadow)))]
                cfg.remove(i)
                del shadow[i]
            elif op == 2:  # move
                i = list(shadow)[int(rng.integers(len(shadow)))]
                x, y = float(rng.uniform(0, 100)), float(rng.uniform(0, 100))
                cfg.move_center(i, x, y)
                shadow[i] = Circle(x, y, shadow[i].r)
            else:  # resize
                i = list(shadow)[int(rng.integers(len(shadow)))]
                r = float(rng.uniform(0.5, 10))
                cfg.set_radius(i, r)
                shadow[i] = Circle(shadow[i].x, shadow[i].y, r)
        cfg.check_invariants()
        assert cfg.n == len(shadow)
        for i, c in shadow.items():
            assert cfg.circle_at(i) == c


# -- SoA round-trip invariants ------------------------------------------------

class TestSoARoundTrip:
    def test_to_from_arrays_round_trip(self):
        cfg = CircleConfiguration()
        for x, y, r in [(5.0, 6.0, 2.0), (15.0, 4.0, 3.5), (9.0, 12.0, 1.25)]:
            cfg.add(x, y, r)
        cfg.remove(1)
        xs, ys, rs = cfg.to_arrays()
        clone = CircleConfiguration.from_arrays(xs, ys, rs)
        assert clone.n == cfg.n
        assert clone.circles() == cfg.circles()
        clone.check_invariants()

    def test_copy_preserves_geometry_and_indices(self):
        cfg = CircleConfiguration()
        for x, y, r in [(5.0, 6.0, 2.0), (15.0, 4.0, 3.5), (9.0, 12.0, 1.25)]:
            cfg.add(x, y, r)
        clone = cfg.copy()
        assert clone.circles() == cfg.circles()
        clone.add(1.0, 1.0, 1.0)
        assert clone.n == cfg.n + 1  # independent storage
        cfg.check_invariants()
        clone.check_invariants()

    def test_from_arrays_rejects_ragged_input(self):
        with pytest.raises(ChainError):
            CircleConfiguration.from_arrays([1.0, 2.0], [1.0], [1.0, 1.0])

    def test_free_list_reuse_is_lifo(self):
        """Rollback parity depends on remove+add restoring the exact
        slot — the free list must be LIFO."""
        cfg = CircleConfiguration()
        a = cfg.add(5.0, 5.0, 2.0)
        b = cfg.add(9.0, 9.0, 2.0)
        cfg.remove(a)
        assert cfg.add(6.0, 6.0, 2.0) == a
        cfg.remove(b)
        cfg.remove(a)
        assert cfg.add(7.0, 7.0, 2.0) == a
        assert cfg.add(8.0, 8.0, 2.0) == b
