"""Tests for repro.mcmc.coverage — incremental raster correctness.

The key property: any sequence of add/remove operations leaves counts
identical to a from-scratch rasterisation, and the weighted deltas
correspond exactly to the pixels whose covered-state flipped.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ChainError
from repro.mcmc.coverage import CoverageRaster
from repro.mcmc.posterior import PosteriorState


def brute_force_mask(h, w, x, y, r, row_off=0, col_off=0):
    cols = np.arange(w) + 0.5 + col_off
    rows = np.arange(h) + 0.5 + row_off
    return (cols[None, :] - x) ** 2 + (rows[:, None] - y) ** 2 <= r * r


class TestSingleDisc:
    def test_add_matches_bruteforce(self):
        cov = CoverageRaster(20, 30)
        w = np.ones((20, 30))
        cov.add_disc(10.0, 8.0, 4.0, w)
        expected = brute_force_mask(20, 30, 10.0, 8.0, 4.0)
        assert np.array_equal(cov.counts > 0, expected)

    def test_add_returns_weight_sum(self):
        cov = CoverageRaster(20, 20)
        weights = np.random.default_rng(0).random((20, 20))
        delta = cov.add_disc(10, 10, 3, weights)
        mask = brute_force_mask(20, 20, 10, 10, 3)
        assert delta == pytest.approx(weights[mask].sum())

    def test_remove_restores_zero(self):
        cov = CoverageRaster(20, 20)
        w = np.ones((20, 20))
        cov.add_disc(10, 10, 3, w)
        delta = cov.remove_disc(10, 10, 3, w)
        assert np.all(cov.counts == 0)
        assert delta == pytest.approx(brute_force_mask(20, 20, 10, 10, 3).sum())

    def test_remove_underflow_raises(self):
        """The underflow guard lives behind debug_checks (hot path skips
        the extra fancy-index pass per removal)."""
        cov = CoverageRaster(10, 10, debug_checks=True)
        with pytest.raises(ChainError):
            cov.remove_disc(5, 5, 2, np.ones((10, 10)))
        trial = CoverageRaster(10, 10, debug_checks=True)
        with pytest.raises(ChainError):
            trial.trial_remove_disc(5, 5, 2, np.ones((10, 10)))

    def test_remove_underflow_unchecked_by_default(self):
        cov = CoverageRaster(10, 10)
        cov.remove_disc(5, 5, 2, np.ones((10, 10)))  # no raise; counts go negative
        assert cov.counts.min() < 0

    def test_disc_outside_raster_is_noop(self):
        cov = CoverageRaster(10, 10)
        assert cov.add_disc(100, 100, 3, np.ones((10, 10))) == 0.0
        assert np.all(cov.counts == 0)

    def test_disc_clipped_at_edge(self):
        cov = CoverageRaster(10, 10)
        w = np.ones((10, 10))
        cov.add_disc(0.0, 5.0, 3.0, w)  # centre on left edge
        expected = brute_force_mask(10, 10, 0.0, 5.0, 3.0)
        assert np.array_equal(cov.counts > 0, expected)


class TestOverlappingDiscs:
    def test_delta_counts_only_flips(self):
        """Adding a second overlapping disc only pays for newly covered
        pixels; removing it only refunds those."""
        cov = CoverageRaster(30, 30)
        w = np.ones((30, 30))
        m1 = brute_force_mask(30, 30, 12, 15, 5)
        m2 = brute_force_mask(30, 30, 18, 15, 5)
        cov.add_disc(12, 15, 5, w)
        delta2 = cov.add_disc(18, 15, 5, w)
        assert delta2 == pytest.approx((m2 & ~m1).sum())
        refund = cov.remove_disc(18, 15, 5, w)
        assert refund == pytest.approx((m2 & ~m1).sum())
        assert np.array_equal(cov.counts > 0, m1)

    def test_counts_stack(self):
        cov = CoverageRaster(20, 20)
        w = np.zeros((20, 20))
        cov.add_disc(10, 10, 4, w)
        cov.add_disc(10, 10, 4, w)
        assert cov.counts.max() == 2


class TestOffsets:
    def test_offset_window(self):
        """A raster over a patch sees the same pixels as the matching
        slice of a full raster."""
        full = CoverageRaster(40, 40)
        patch = CoverageRaster(10, 12, row_offset=15, col_offset=20)
        w_full = np.ones((40, 40))
        w_patch = np.ones((10, 12))
        full.add_disc(25.0, 19.0, 4.0, w_full)
        patch.add_disc(25.0, 19.0, 4.0, w_patch)
        assert np.array_equal(full.counts[15:25, 20:32], patch.counts)

    def test_window_rect(self):
        patch = CoverageRaster(10, 12, row_offset=15, col_offset=20)
        r = patch.window_rect()
        assert (r.x0, r.y0, r.x1, r.y1) == (20, 15, 32, 25)


class TestBulk:
    def test_rebuild_matches_incremental(self):
        rng = np.random.default_rng(2)
        cov = CoverageRaster(50, 50)
        w = np.zeros((50, 50))
        xs = rng.uniform(0, 50, 12)
        ys = rng.uniform(0, 50, 12)
        rs = rng.uniform(1, 6, 12)
        for x, y, r in zip(xs, ys, rs):
            cov.add_disc(x, y, r, w)
        rebuilt = CoverageRaster(50, 50)
        rebuilt.rebuild_from(xs, ys, rs)
        assert rebuilt.equals(cov)

    def test_covered_weight_sum(self):
        cov = CoverageRaster(20, 20)
        weights = np.random.default_rng(3).random((20, 20))
        cov.add_disc(10, 10, 4, weights)
        mask = brute_force_mask(20, 20, 10, 10, 4)
        assert cov.covered_weight_sum(weights) == pytest.approx(weights[mask].sum())


class TestPropertySequences:
    @given(
        st.lists(
            st.tuples(st.floats(-5, 35), st.floats(-5, 35), st.floats(0.5, 8)),
            min_size=1,
            max_size=15,
        ),
        st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_add_remove_roundtrip(self, discs, seed):
        """Adding all discs then removing them in a random order restores
        an all-zero raster, and paired deltas cancel exactly."""
        rng = np.random.default_rng(seed)
        cov = CoverageRaster(30, 30)
        weights = rng.random((30, 30))
        add_deltas = [cov.add_disc(x, y, r, weights) for x, y, r in discs]
        order = rng.permutation(len(discs))
        # Removing in arbitrary order gives different per-disc deltas, but
        # the total refund must equal the total cost.
        total_refund = sum(
            cov.remove_disc(*discs[i], weights) for i in order
        )
        assert np.all(cov.counts == 0)
        assert total_refund == pytest.approx(sum(add_deltas), rel=1e-9, abs=1e-9)

    @given(
        st.lists(
            st.tuples(st.floats(0, 30), st.floats(0, 30), st.floats(0.5, 6)),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_counts_match_bruteforce(self, discs):
        cov = CoverageRaster(30, 30)
        w = np.zeros((30, 30))
        expected = np.zeros((30, 30), dtype=int)
        for x, y, r in discs:
            cov.add_disc(x, y, r, w)
            expected += brute_force_mask(30, 30, x, y, r).astype(int)
        assert np.array_equal(cov.counts, expected)


# -- raster reuse / reset ----------------------------------------------------

class TestRasterReuse:
    def test_reset_reuse_is_bit_identical_to_fresh(self):
        """A raster reset to a smaller window must price and commit
        exactly as a freshly constructed raster of that window —
        oversized centre grids slice identically."""
        rng = np.random.default_rng(3)
        big_weights = rng.random((48, 48)) * 2.0 - 1.0
        small_weights = rng.random((20, 24)) * 2.0 - 1.0

        reused = CoverageRaster(48, 48)
        reused.add_disc(20.0, 20.0, 8.0, big_weights)  # warm scratch
        reused.reset(20, 24, row_offset=3, col_offset=5)
        fresh = CoverageRaster(20, 24, row_offset=3, col_offset=5)

        for cov in (reused, fresh):
            cov.add_disc(12.0, 10.0, 4.0, small_weights)
        d_reused = reused.trial_add_disc(14.0, 11.0, 3.5, small_weights)
        d_fresh = fresh.trial_add_disc(14.0, 11.0, 3.5, small_weights)
        assert d_reused == d_fresh
        reused.commit_pending()
        fresh.commit_pending()
        assert np.array_equal(reused.counts, fresh.counts)

    def test_reset_refuses_pending_state(self):
        cov = CoverageRaster(16, 16)
        cov.trial_add_disc(8.0, 8.0, 3.0, np.ones((16, 16)))
        with pytest.raises(ChainError):
            cov.reset(16, 16)
        cov.discard_pending()
        cov.reset(12, 12)
        assert cov.counts.shape == (12, 12)

    def test_posterior_adopts_and_resets_raster(self, small_filtered, small_spec):
        cached = CoverageRaster(8, 8)
        cached.add_disc(4.0, 4.0, 2.0, np.ones((8, 8)))
        post = PosteriorState(small_filtered, small_spec, coverage=cached)
        assert post.coverage is cached
        assert cached.counts.shape == (small_filtered.height, small_filtered.width)
        assert cached.counts.sum() == 0
        post.insert_circle(30.0, 30.0, 6.0)
        post.verify_consistency()

    def test_local_phase_worker_reuses_thread_raster(
        self, small_filtered, small_spec, move_config
    ):
        from repro.core.partition_runner import _acquire_worker_raster, _worker_state

        if hasattr(_worker_state, "raster"):
            del _worker_state.raster
        first = _acquire_worker_raster(32, 32)
        second = _acquire_worker_raster(48, 16)
        assert first is second


# -- counts-only debug cross-check (satellite: debug_checks fixtures) --------

class TestCountsOnlyDebugChecks:
    def test_rebuild_from_runs_window_cross_check(self):
        """With debug_checks on, every counts-only rasterisation is
        re-derived through the legacy window path and compared."""
        cov = CoverageRaster(24, 24, debug_checks=True)
        cov.rebuild_from([6.0, 15.0, 11.0], [7.0, 14.0, 9.0], [3.0, 4.0, 2.5])
        reference = CoverageRaster(24, 24)
        reference.rebuild_from([6.0, 15.0, 11.0], [7.0, 14.0, 9.0], [3.0, 4.0, 2.5])
        assert np.array_equal(cov.counts, reference.counts)

    def test_rebuild_cross_check_covers_degenerate_discs(self):
        cov = CoverageRaster(24, 24, debug_checks=True)
        # Off-grid and sub-pixel discs exercise the None-window cases.
        cov.rebuild_from([-40.0, 6.2], [-40.0, 6.8], [2.0, 0.01])
        assert cov.counts.sum() >= 0

    def test_verify_consistency_uses_debug_rebuild(
        self, small_filtered, small_spec
    ):
        post = PosteriorState(small_filtered, small_spec)
        post.insert_circle(30.0, 30.0, 6.0)
        post.insert_circle(33.0, 31.0, 4.0)
        post.verify_consistency()  # turns debug_checks on for the rebuild
