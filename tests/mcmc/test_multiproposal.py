"""Bit-parity and distribution suite for the K-way multiproposal kernel.

Two gates, mirroring the trial/commit suite's structure:

* **Bitwise** — width 1 must reproduce the classic single-proposal
  drivers (MarkovChain, MC3, the periodic sampler, every engine
  strategy) bit for bit: same RNG consumption, same floats, same trace
  points.  At every width the batched stacked-rasterisation path must
  match the sequential reference implementation (``batch=False``,
  identical RNG order) bit for bit.
* **Distributional** — widths > 1 change RNG consumption, so they are
  gated statistically: acceptance rates and posterior/count summaries
  of a width-4 chain must agree with the width-1 chain within loose
  tolerances at matched iteration counts.

Plus the supporting invariants: coverage-level batch pricing vs
sequential trial pricing (property-tested), SoA round-trips, raster
reuse via ``reset()``, counts-only debug cross-checks, and the
allocation discipline of the steady-state batched path.
"""

import dataclasses
import math
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ChainError
from repro.mcmc import (
    CircleConfiguration,
    MarkovChain,
    MoveGenerator,
    MultiproposalChain,
    PosteriorState,
)
from repro.mcmc.coverage import CoverageRaster
from repro.mcmc.mc3 import MetropolisCoupledChains


# -- coverage-level batch pricing (property tests) ---------------------------

disc_st = st.tuples(
    st.floats(min_value=-5.0, max_value=37.0),
    st.floats(min_value=-5.0, max_value=37.0),
    st.floats(min_value=0.5, max_value=9.0),
)

op_st = st.tuples(st.sampled_from([1, -1]), disc_st)


def _seeded_raster(weights_seed: int, base_discs) -> tuple:
    rng = np.random.default_rng(weights_seed)
    weights = rng.random((32, 32)) * 2.0 - 1.0
    cov = CoverageRaster(32, 32)
    for x, y, r in base_discs:
        cov.add_disc(x, y, r, weights)
    return cov, weights


class TestBatchPricing:
    @settings(max_examples=40, deadline=None)
    @given(
        base=st.lists(disc_st, min_size=1, max_size=4),
        groups=st.lists(st.lists(disc_st, min_size=1, max_size=3), min_size=1, max_size=6),
    )
    def test_batch_add_groups_match_sequential_trials(self, base, groups):
        """Each group priced by trial_price_batch must equal the same
        ops priced sequentially via trial_add_disc + discard, bitwise —
        groups are alternative futures, blind to one another."""
        cov_b, weights = _seeded_raster(0, base)
        cov_s, _ = _seeded_raster(0, base)

        batch_groups = [[(1, x, y, r) for (x, y, r) in g] for g in groups]
        priced = cov_b.trial_price_batch(batch_groups, weights)
        cov_b.discard_batch()

        for g, deltas in zip(groups, priced):
            expected = [cov_s.trial_add_disc(x, y, r, weights) for x, y, r in g]
            cov_s.discard_pending()
            assert deltas == expected  # bitwise, not approx

    @settings(max_examples=40, deadline=None)
    @given(
        base=st.lists(disc_st, min_size=2, max_size=4),
        moves=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
                       min_size=1, max_size=5),
    )
    def test_batch_translate_groups_match_sequential_trials(self, base, moves):
        """Remove+add groups (translate-shaped) must see their own
        earlier op through the pending overlay, exactly as the
        sequential trial pair does."""
        cov_b, weights = _seeded_raster(1, base)
        cov_s, _ = _seeded_raster(1, base)
        x0, y0, r0 = base[0]

        batch_groups = [
            [(-1, x0, y0, r0), (1, x0 + dx, y0 + dy, r0)] for dx, dy in moves
        ]
        priced = cov_b.trial_price_batch(batch_groups, weights)
        cov_b.discard_batch()

        for (dx, dy), deltas in zip(moves, priced):
            d_rm = cov_s.trial_remove_disc(x0, y0, r0, weights)
            d_ad = cov_s.trial_add_disc(x0 + dx, y0 + dy, r0, weights)
            cov_s.discard_pending()
            assert deltas == [d_rm, d_ad]

    @settings(max_examples=30, deadline=None)
    @given(
        base=st.lists(disc_st, min_size=1, max_size=3),
        groups=st.lists(st.lists(disc_st, min_size=1, max_size=2), min_size=2, max_size=4),
        winner=st.integers(min_value=0, max_value=3),
    )
    def test_commit_batch_group_matches_sequential_commit(self, base, groups, winner):
        winner = winner % len(groups)
        cov_b, weights = _seeded_raster(2, base)
        cov_s, _ = _seeded_raster(2, base)

        batch_groups = [[(1, x, y, r) for (x, y, r) in g] for g in groups]
        cov_b.trial_price_batch(batch_groups, weights)
        cov_b.commit_batch_group(winner)

        for x, y, r in groups[winner]:
            cov_s.trial_add_disc(x, y, r, weights)
        cov_s.commit_pending()
        assert np.array_equal(cov_b.counts, cov_s.counts)

    def test_degenerate_window_prices_zero(self):
        """Ops whose disc misses every pixel centre price 0.0 and commit
        as exact no-ops, same as the sequential trial path."""
        weights = np.ones((16, 16))
        cov = CoverageRaster(16, 16)
        priced = cov.trial_price_batch([[(1, -50.0, -50.0, 1.0)]], weights)
        assert priced == [[0.0]]
        cov.commit_batch_group(0)
        assert cov.counts.sum() == 0

    def test_legacy_ops_refuse_staged_batch(self):
        weights = np.ones((16, 16))
        cov = CoverageRaster(16, 16)
        cov.trial_price_batch([[(1, 8.0, 8.0, 3.0)]], weights)
        assert cov.batch_pending_count == 1
        with pytest.raises(ChainError):
            cov.add_disc(8.0, 8.0, 3.0, weights)
        cov.discard_batch()
        assert cov.batch_pending_count == 0
        cov.add_disc(8.0, 8.0, 3.0, weights)  # fine again


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
        """Rollback/reapply parity depends on remove+add restoring the
        exact slot — the free list must be LIFO."""
        cfg = CircleConfiguration()
        a = cfg.add(5.0, 5.0, 2.0)
        b = cfg.add(9.0, 9.0, 2.0)
        cfg.remove(a)
        assert cfg.add(6.0, 6.0, 2.0) == a
        cfg.remove(b)
        cfg.remove(a)
        assert cfg.add(7.0, 7.0, 2.0) == a
        assert cfg.add(8.0, 8.0, 2.0) == b


# -- chain-level parity -------------------------------------------------------

def _mp_chain(small_filtered, small_spec, move_config, width, seed, batch=True):
    post = PosteriorState(small_filtered, small_spec)
    gen = MoveGenerator(small_spec, move_config)
    return MultiproposalChain(
        post, gen, width=width, seed=seed, record_every=50, batch=batch
    )


class TestChainParity:
    def test_width1_bitwise_equals_markov_chain(
        self, small_filtered, small_spec, move_config
    ):
        classic = MarkovChain(
            PosteriorState(small_filtered, small_spec),
            MoveGenerator(small_spec, move_config),
            seed=17,
            record_every=50,
        )
        res_c = classic.run(2_000)
        mp = _mp_chain(small_filtered, small_spec, move_config, width=1, seed=17)
        res_m = mp.run(2_000)

        assert res_m.final_circles == res_c.final_circles
        assert res_m.posterior_trace.values == res_c.posterior_trace.values
        assert res_m.posterior_trace.iterations == res_c.posterior_trace.iterations
        assert res_m.count_trace.values == res_c.count_trace.values
        assert res_m.stats.generated == res_c.stats.generated
        assert res_m.stats.proposed == res_c.stats.proposed
        assert res_m.stats.accepted == res_c.stats.accepted
        assert mp.post.log_posterior == classic.post.log_posterior
        assert np.array_equal(mp.post.coverage.counts, classic.post.coverage.counts)
        mp.post.verify_consistency()

    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    def test_batched_equals_sequential_reference(
        self, width, small_filtered, small_spec, move_config
    ):
        batched = _mp_chain(small_filtered, small_spec, move_config, width, seed=23)
        res_b = batched.run(1_500)
        reference = _mp_chain(
            small_filtered, small_spec, move_config, width, seed=23, batch=False
        )
        res_r = reference.run(1_500)

        assert res_b.rounds == res_r.rounds
        assert res_b.final_circles == res_r.final_circles
        assert res_b.posterior_trace.values == res_r.posterior_trace.values
        assert res_b.posterior_trace.iterations == res_r.posterior_trace.iterations
        assert res_b.count_trace.values == res_r.count_trace.values
        assert res_b.stats.generated == res_r.stats.generated
        assert res_b.stats.proposed == res_r.stats.proposed
        assert res_b.stats.accepted == res_r.stats.accepted
        assert batched.post.log_posterior == reference.post.log_posterior
        assert np.array_equal(
            batched.post.coverage.counts, reference.post.coverage.counts
        )
        batched.post.verify_consistency()

    def test_run_truncates_final_round_exactly(
        self, small_filtered, small_spec, move_config
    ):
        mp = _mp_chain(small_filtered, small_spec, move_config, width=8, seed=5)
        result = mp.run(1_003)
        assert result.iterations == 1_003

    def test_mc3_width1_bitwise_equals_classic_driver(
        self, small_filtered, small_spec, move_config
    ):
        mc1 = dataclasses.replace(move_config, proposal_batch=1)

        def build(mc):
            posts = [PosteriorState(small_filtered, small_spec) for _ in range(3)]
            gens = [MoveGenerator(small_spec, mc) for _ in range(3)]
            return MetropolisCoupledChains(
                posts, gens, temperatures=[1.0, 1.6, 2.4], swap_every=25, seed=31
            )

        classic = build(move_config)
        res_c = classic.run(600)
        mp = build(mc1)
        res_m = mp.run(600)

        assert res_m.swap_attempts == res_c.swap_attempts
        assert res_m.swap_accepts == res_c.swap_accepts
        assert res_m.cold_posterior_trace.values == res_c.cold_posterior_trace.values
        assert res_m.cold_stats.generated == res_c.cold_stats.generated
        assert res_m.cold_stats.accepted == res_c.cold_stats.accepted
        for post_m, post_c in zip(mp.posts, classic.posts):
            assert post_m.log_posterior == post_c.log_posterior
            assert post_m.snapshot_circles() == post_c.snapshot_circles()
            post_m.verify_consistency()

    def test_mc3_width4_advances_and_stays_consistent(
        self, small_filtered, small_spec, move_config
    ):
        mc4 = dataclasses.replace(move_config, proposal_batch=4)
        posts = [PosteriorState(small_filtered, small_spec) for _ in range(3)]
        gens = [MoveGenerator(small_spec, mc4) for _ in range(3)]
        chains = MetropolisCoupledChains(
            posts, gens, temperatures=[1.0, 1.6, 2.4], swap_every=25, seed=31
        )
        result = chains.run(600)
        assert result.iterations == 600
        for post in chains.posts:
            post.verify_consistency()

    def test_periodic_sampler_width1_parity(
        self, small_filtered, small_spec, move_config
    ):
        from repro.core.periodic import PeriodicPartitioningSampler
        from repro.core.phases import PhaseSchedule

        mc1 = dataclasses.replace(move_config, proposal_batch=1)

        def run(mc):
            schedule = PhaseSchedule(local_iters=60, qg=mc.qg)
            with PeriodicPartitioningSampler(
                small_filtered, small_spec, mc, schedule, seed=31, record_every=100
            ) as sampler:
                result = sampler.run(1_200)
                sampler.post.verify_consistency()
                return result, sampler.post.log_posterior

        res_c, lp_c = run(move_config)
        res_m, lp_m = run(mc1)
        assert lp_m == lp_c
        assert res_m.posterior_trace.values == res_c.posterior_trace.values
        assert res_m.count_trace.values == res_c.count_trace.values
        assert [
            (c.x, c.y, c.r) for c in res_m.final_circles
        ] == [(c.x, c.y, c.r) for c in res_c.final_circles]


# -- engine-level parity (all four strategies) --------------------------------

class TestEngineParity:
    @pytest.mark.parametrize(
        "strategy", ["naive", "blind", "intelligent", "periodic"]
    )
    def test_strategy_width1_bitwise_parity(self, strategy):
        from repro.bench.workloads import synthetic_workload
        from repro.engine import run as engine_run

        workload = synthetic_workload(size=96, n_circles=8, seed=5)
        request = workload.request(
            strategy, iterations=1_000, executor="serial", seed=42
        )
        mc1 = dataclasses.replace(workload.moves, proposal_batch=1)
        request_mp = dataclasses.replace(request, move_config=mc1)

        classic = engine_run(request)
        mp = engine_run(request_mp)
        assert mp.circles == classic.circles  # bitwise, not approx
        assert mp.n_tasks == classic.n_tasks

    def test_proposal_batch_changes_request_key(self):
        from repro.bench.workloads import synthetic_workload
        from repro.engine import request_key

        workload = synthetic_workload(size=96, n_circles=8, seed=5)
        request = workload.request("naive", iterations=500, executor="serial", seed=1)
        mc4 = dataclasses.replace(workload.moves, proposal_batch=4)
        request_mp = dataclasses.replace(request, move_config=mc4)
        assert request_key(request) != request_key(request_mp)


# -- distribution gates for width > 1 ----------------------------------------

class TestDistribution:
    def test_width4_matches_width1_statistics(
        self, small_filtered, small_spec, move_config
    ):
        """Width changes RNG consumption, so widths > 1 are gated
        statistically: acceptance rate and posterior/count summaries of
        independent replicas must agree across widths."""
        iters, burn, replicas = 4_000, 1_500, 6

        def summarise(width, seed):
            chain = _mp_chain(
                small_filtered, small_spec, move_config, width, seed=seed
            )
            chain.run(burn)
            result = chain.run(iters)
            tail = result.posterior_trace.values[
                len(result.posterior_trace.values) // 2 :
            ]
            counts = result.count_trace.values[
                len(result.count_trace.values) // 2 :
            ]
            return (
                result.stats.acceptance_rate(),
                statistics.fmean(tail),
                statistics.fmean(counts),
            )

        stats_1 = [summarise(1, 100 + i) for i in range(replicas)]
        stats_4 = [summarise(4, 200 + i) for i in range(replicas)]

        def columns(rows):
            return list(zip(*rows))

        # Welch z-test per summary: between-replica variance dominates
        # (independent chains settle in different modes), so the gate is
        # "width-4 mean within 4 standard errors of width-1 mean", with
        # a small relative floor for near-degenerate spreads.
        for col_1, col_4, label in zip(
            columns(stats_1),
            columns(stats_4),
            ("acceptance rate", "posterior mean", "count mean"),
        ):
            m1, m4 = statistics.fmean(col_1), statistics.fmean(col_4)
            se = math.sqrt(
                statistics.variance(col_1) / replicas
                + statistics.variance(col_4) / replicas
            )
            limit = max(4.0 * se, 0.10 * max(abs(m1), 1e-9))
            assert abs(m1 - m4) < limit, (label, m1, m4, se)

    def test_round_consumption_matches_geometric_law(
        self, small_filtered, small_spec, move_config
    ):
        """E[iterations/round] = (1 - p_r^K)/(1 - p_r) with p_r the
        per-iteration rejection probability — the speculative-round law
        the multiproposal kernel inherits."""
        chain = _mp_chain(small_filtered, small_spec, move_config, width=8, seed=7)
        chain.run(2_000)
        start_iter, start_rounds = chain.iteration, chain.rounds
        result = chain.run(6_000)
        consumed = result.iterations - start_iter
        rounds = result.rounds - start_rounds
        p_r = 1.0 - result.stats.acceptance_rate()
        expected = (1.0 - p_r**8) / (1.0 - p_r)
        assert consumed / rounds == pytest.approx(expected, rel=0.30)


# -- allocation discipline of the batched path --------------------------------

class TestBatchAllocationDiscipline:
    """Steady-state discipline of trial_price_batch itself, mirroring
    the raster-level guard of the sequential trial suite.  (Full chain
    runs are excluded on purpose: numpy's ``Generator.integers`` calls
    ``np.asarray`` internally on every draw, in classic and batched
    chains alike, so a chain-level constructor guard cannot hold.)"""

    def _steady_raster(self):
        rng = np.random.default_rng(13)
        weights = rng.random((96, 96)) * 2.0 - 1.0
        cov = CoverageRaster(96, 96)
        cov.add_disc(48.0, 48.0, 20.0, weights)
        groups = [
            [(1, 30.0 + 3.0 * k, 40.0, 6.0)] if k % 2 else
            [(-1, 48.0, 48.0, 20.0), (1, 50.0 + k, 47.0, 19.0)]
            for k in range(8)
        ]
        # Warm every scratch pool (batch + per-op trial) to its
        # high-water mark before measuring.
        for _ in range(5):
            cov.trial_price_batch(groups, weights)
            cov.discard_batch()
        return cov, weights, groups

    def test_steady_batch_rounds_call_no_array_constructors(self, monkeypatch):
        """Once batch scratch is warm, whole price/discard rounds make
        no Python-level numpy constructor calls — the stacked windows
        are pooled exactly like the sequential trial scratch."""
        cov, weights, groups = self._steady_raster()
        calls = []

        def counting(name, orig):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return orig(*args, **kwargs)

            return wrapper

        for name in ("arange", "empty", "zeros", "ones", "full", "array", "asarray"):
            monkeypatch.setattr(np, name, counting(name, getattr(np, name)))

        for _ in range(20):
            cov.trial_price_batch(groups, weights)
            cov.discard_batch()
        cov.trial_price_batch(groups, weights)
        cov.commit_batch_group(3)
        assert calls == []

    def test_batch_transient_memory_is_bounded(self):
        """tracemalloc peak of warm batched rounds stays far below one
        stacked-window plane — no per-round reallocation."""
        cov, weights, groups = self._steady_raster()
        tracemalloc.start()
        baseline = tracemalloc.get_traced_memory()[0]
        worst = 0
        for _ in range(10):
            tracemalloc.reset_peak()
            cov.trial_price_batch(groups, weights)
            cov.discard_batch()
            _, peak = tracemalloc.get_traced_memory()
            worst = max(worst, peak - baseline)
        tracemalloc.stop()
        # Transients are the per-op boundary gathers and the returned
        # delta lists.  Regrowing the stacked scratch per round would
        # cost at least one full plane — stay strictly below that.
        plane = cov._b_sq.nbytes
        assert worst < plane, (worst, plane)

    def test_batch_scratch_does_not_regrow_in_steady_state(self):
        cov, weights, groups = self._steady_raster()
        sq = cov._b_sq
        mask = cov._b_mask
        for _ in range(10):
            cov.trial_price_batch(groups, weights)
            cov.discard_batch()
        assert cov._b_sq is sq
        assert cov._b_mask is mask

    def test_multiproposal_chain_scratch_does_not_regrow(
        self, small_filtered, small_spec, move_config
    ):
        """Chain-level version of the no-regrow claim: after warmup the
        batch scratch of a width-8 chain is never reallocated."""
        chain = _mp_chain(small_filtered, small_spec, move_config, width=8, seed=13)
        chain.run(1_500)
        cov = chain.post.coverage
        sq = cov._b_sq
        mask = cov._b_mask
        chain.run(500)
        assert cov._b_sq is sq
        assert cov._b_mask is mask
