"""Statistical-equivalence checks: periodic partitioning vs sequential.

§V's claim: "long-term the stationary distribution will be the same as
that of conventional MCMC."  We cannot prove it in a test, but we can
check the first two moments of key statistics (model count, posterior
level) agree between the two samplers across replicate runs — a cheap
but discriminating smoke test that would catch phase-balance or
partition-bias bugs.
"""

import numpy as np
import pytest

from repro.core import PeriodicPartitioningSampler, PhaseSchedule
from repro.imaging import SceneSpec, generate_scene, threshold_filter
from repro.imaging.density import estimate_count
from repro.mcmc import MarkovChain, ModelSpec, MoveConfig, MoveGenerator, PosteriorState
from repro.parallel.sharedmem import set_worker_image


@pytest.fixture(scope="module")
def problem():
    scene = generate_scene(
        SceneSpec(width=160, height=160, n_circles=10, mean_radius=8.0,
                  radius_std=1.0, min_radius=4.0),
        seed=202,
    )
    filtered = threshold_filter(scene.image, 0.4)
    spec = ModelSpec(
        width=160, height=160,
        expected_count=max(estimate_count(filtered, 0.5, 8.0), 1.0),
        radius_mean=8.0, radius_std=1.2, radius_min=3.0, radius_max=14.0,
    )
    set_worker_image(filtered.pixels)
    return scene, filtered, spec


ITERS = 14000
BURN = 6000
REPLICATES = 4


def sequential_stats(filtered, spec, seed):
    post = PosteriorState(filtered, spec)
    chain = MarkovChain(post, MoveGenerator(spec, MoveConfig()), seed=seed,
                        record_every=100)
    chain.run(ITERS)
    its, counts = chain.count_trace.as_arrays()
    _, lps = chain.posterior_trace.as_arrays()
    keep = its > BURN
    return float(counts[keep].mean()), float(lps[keep].mean())


def periodic_stats(filtered, spec, seed):
    mc = MoveConfig()
    sampler = PeriodicPartitioningSampler(
        filtered, spec, mc, PhaseSchedule(local_iters=300, qg=mc.qg),
        seed=seed, record_every=100,
    )
    sampler.run(ITERS)
    its, counts = sampler.count_trace.as_arrays()
    _, lps = sampler.posterior_trace.as_arrays()
    keep = its > BURN
    return float(counts[keep].mean()), float(lps[keep].mean())


class TestMomentAgreement:
    # ~7.5 s: 4 sequential + 4 periodic 14,000-iteration replicates, compared across runs.
    @pytest.fixture(scope="class")
    def moments(self, problem):
        _, filtered, spec = problem
        seq = [sequential_stats(filtered, spec, seed=10 + k) for k in range(REPLICATES)]
        per = [periodic_stats(filtered, spec, seed=50 + k) for k in range(REPLICATES)]
        return np.array(seq), np.array(per)

    def test_mean_count_agrees(self, moments, problem):
        seq, per = moments
        scene = problem[0]
        seq_mean = seq[:, 0].mean()
        per_mean = per[:, 0].mean()
        # Both near truth and near each other.
        assert abs(seq_mean - scene.n_circles) <= 2.5
        assert abs(per_mean - scene.n_circles) <= 2.5
        assert abs(seq_mean - per_mean) <= 1.5

    def test_mean_posterior_agrees(self, moments):
        seq, per = moments
        seq_lp = seq[:, 1].mean()
        per_lp = per[:, 1].mean()
        spread = max(seq[:, 1].std(), per[:, 1].std(), 1.0)
        assert abs(seq_lp - per_lp) <= 6.0 * spread

    def test_replicates_not_degenerate(self, moments):
        seq, per = moments
        assert np.isfinite(seq).all() and np.isfinite(per).all()
