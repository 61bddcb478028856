"""Tests for repro.mcmc.speculative."""


import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.imaging.image import Image
from repro.mcmc.chain import MarkovChain
from repro.mcmc.moves import MoveGenerator
from repro.mcmc.posterior import PosteriorState
from repro.mcmc.spec import ModelSpec, MoveConfig
from repro.mcmc.speculative import SpeculativeChain, speculative_speedup


class TestSpeedupModel:
    def test_n1_is_identity(self):
        assert speculative_speedup(0.75, 1) == pytest.approx(1.0)

    def test_paper_regime(self):
        """p_r = 0.75, n = 4: fraction = 0.25 / (1 - 0.316) ≈ 0.366."""
        frac = speculative_speedup(0.75, 4)
        assert frac == pytest.approx(0.25 / (1 - 0.75**4))

    def test_limit_large_n(self):
        assert speculative_speedup(0.75, 1000) == pytest.approx(0.25, rel=1e-6)

    def test_p_zero(self):
        assert speculative_speedup(0.0, 8) == 1.0

    def test_p_one(self):
        assert speculative_speedup(1.0, 4) == pytest.approx(0.25)

    def test_monotone_in_n(self):
        fracs = [speculative_speedup(0.7, n) for n in range(1, 10)]
        assert all(a >= b for a, b in zip(fracs, fracs[1:]))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            speculative_speedup(1.5, 2)
        with pytest.raises(ConfigurationError):
            speculative_speedup(0.5, 0)


@pytest.fixture
def problem():
    rng = np.random.default_rng(8)
    spec = ModelSpec(
        width=48, height=48, expected_count=4.0,
        radius_mean=5.0, radius_std=1.0, radius_min=2.0, radius_max=9.0,
    )
    img = Image(rng.random((48, 48)))
    return spec, img


class TestSpeculativeChain:
    def test_exact_iteration_count(self, problem):
        spec, img = problem
        post = PosteriorState(img, spec)
        chain = SpeculativeChain(post, MoveGenerator(spec, MoveConfig()), width=4, seed=1)
        res = chain.run(1000)
        assert res.iterations == 1000
        assert res.stats.total_iterations() == 1000
        post.verify_consistency()

    def test_rounds_fewer_than_iterations(self, problem):
        spec, img = problem
        post = PosteriorState(img, spec)
        chain = SpeculativeChain(post, MoveGenerator(spec, MoveConfig()), width=4, seed=1)
        res = chain.run(1000)
        assert res.rounds <= 1000
        assert res.iterations_per_round >= 1.0

    def test_iterations_per_round_matches_model(self, problem):
        """Empirical iterations/round ≈ (1 - p_r^k)/(1 - p_r) for the
        empirical rejection rate."""
        spec, img = problem
        post = PosteriorState(img, spec)
        width = 4
        chain = SpeculativeChain(post, MoveGenerator(spec, MoveConfig()), width=width, seed=2)
        res = chain.run(4000)
        p_r = res.stats.rejection_rate()
        expected = 1.0 / speculative_speedup(p_r, width)
        assert res.iterations_per_round == pytest.approx(expected, rel=0.15)

    def test_width_one_equals_sequential_law(self, problem):
        """width=1 speculative chain is literally a sequential chain:
        same seed gives a valid run ending with consistent state."""
        spec, img = problem
        post = PosteriorState(img, spec)
        chain = SpeculativeChain(post, MoveGenerator(spec, MoveConfig()), width=1, seed=3)
        res = chain.run(500)
        assert res.rounds == 500  # one iteration per round
        post.verify_consistency()

    def test_finds_structure_like_sequential(self):
        """Speculative and sequential chains converge to similar models
        on a real scene (law equivalence smoke test)."""
        from repro.imaging import SceneSpec, generate_scene, threshold_filter
        from repro.imaging.density import estimate_count

        scene = generate_scene(
            SceneSpec(width=96, height=96, n_circles=6, mean_radius=7.0), seed=31
        )
        img = threshold_filter(scene.image, 0.4)
        spec = ModelSpec(
            width=96, height=96,
            expected_count=max(estimate_count(img, 0.5, 7.0), 1.0),
            radius_mean=7.0, radius_std=1.2, radius_min=2.0, radius_max=14.0,
        )
        post_spec = PosteriorState(img, spec)
        spec_chain = SpeculativeChain(
            post_spec, MoveGenerator(spec, MoveConfig()), width=4, seed=5
        )
        spec_chain.run(8000)

        post_seq = PosteriorState(img, spec)
        seq_chain = MarkovChain(post_seq, MoveGenerator(spec, MoveConfig()), seed=6)
        seq_chain.run(8000)

        assert abs(post_spec.config.n - post_seq.config.n) <= 2

    def test_invalid_width(self, problem):
        spec, img = problem
        post = PosteriorState(img, spec)
        with pytest.raises(ConfigurationError):
            SpeculativeChain(post, MoveGenerator(spec, MoveConfig()), width=0)


# -- the one round is the classic chain ----------------------------------------

PARITY_ITERATIONS = 8_000


@pytest.fixture(scope="module")
def workload():
    from repro.bench.workloads import synthetic_workload

    return synthetic_workload(size=128, n_circles=10, seed=3)


def _final_state(workload, make_chain):
    """Run a fresh chain on *workload*; return what a chain leaves behind."""
    post = PosteriorState(workload.filtered, workload.model)
    chain = make_chain(post, MoveGenerator(workload.model, workload.moves))
    chain.run(PARITY_ITERATIONS)
    return (
        sorted((c.x, c.y, c.r) for c in post.snapshot_circles()),
        post.log_posterior,
        post.coverage.counts.copy(),
        dict(chain.stats.proposed),
        dict(chain.stats.accepted),
    )


@pytest.fixture(scope="module")
def classic_finals(workload):
    return {
        seed: _final_state(
            workload, lambda post, gen: MarkovChain(post, gen, seed=seed))
        for seed in (5, 99)
    }


@pytest.mark.parametrize("seed", [5, 99])
@pytest.mark.parametrize("width", [1, 4, 8])
def test_round_leaves_the_classic_chain_state(workload, classic_finals, seed, width):
    """A rejected step leaves the state unchanged, so a round's later
    proposals are drawn exactly where the classic chain draws them:
    every width ends in the classic chain's state, bit for bit."""
    circles, log_post, counts, proposed, accepted = _final_state(
        workload,
        lambda post, gen: SpeculativeChain(post, gen, width=width, seed=seed))
    ref_circles, ref_log_post, ref_counts, ref_proposed, ref_accepted = (
        classic_finals[seed])
    assert circles == ref_circles
    assert log_post == ref_log_post
    assert np.array_equal(counts, ref_counts)
    assert proposed == ref_proposed
    assert accepted == ref_accepted


def test_benchmark_name_runs_the_round(workload):
    """The benchmark harness's exact call for its K=8 kernel reading."""
    import repro.mcmc

    post = PosteriorState(workload.filtered, workload.model)
    gen = MoveGenerator(workload.model, workload.moves)
    result = repro.mcmc.MultiproposalChain(post, gen, width=8, seed=7).run(200)
    assert result.iterations == 200
    post.verify_consistency()
