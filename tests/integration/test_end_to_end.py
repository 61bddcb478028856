"""End-to-end integration: all four methods on the same scene.

Runs the sequential baseline, periodic partitioning, intelligent and
blind pipelines against one synthetic scene and checks they all find
essentially the same structure — the paper's central claim that its
parallelisations do not impair result quality (for the aggressive
methods: on amenable data).
"""

import pytest

from repro.core import PeriodicPartitioningSampler, PhaseSchedule, evaluate_model
from repro.engine import DetectionRequest, run
from repro.imaging import SceneSpec, generate_bead_scene, threshold_filter
from repro.imaging.density import estimate_count
from repro.mcmc import MarkovChain, ModelSpec, MoveConfig, MoveGenerator, PosteriorState
from repro.parallel.sharedmem import set_worker_image


@pytest.fixture(scope="module")
def problem():
    scene = generate_bead_scene(
        SceneSpec(
            width=340, height=240, n_circles=16, mean_radius=7.0,
            radius_std=0.8, min_radius=4.0, blur_sigma=0.8, noise_sigma=0.015,
        ),
        n_clumps=3, clump_radius_factor=4.0, gutter=34.0,
        clump_weights=[3, 10, 3], seed=101,
    )
    filtered = threshold_filter(scene.image, 0.5)
    spec = ModelSpec(
        width=340, height=240,
        expected_count=max(estimate_count(filtered, 0.5, 7.0), 1.0),
        radius_mean=7.0, radius_std=1.2, radius_min=3.0, radius_max=12.0,
    )
    set_worker_image(filtered.pixels)
    return scene, filtered, spec


@pytest.fixture(scope="module")
def sequential_result(problem):
    scene, filtered, spec = problem
    post = PosteriorState(filtered, spec)
    chain = MarkovChain(post, MoveGenerator(spec, MoveConfig()), seed=1)
    chain.run(25000)
    return post.snapshot_circles()


class TestAllMethodsAgree:
    def test_sequential_finds_scene(self, problem, sequential_result):
        scene = problem[0]
        report = evaluate_model(sequential_result, scene.circles)
        assert report.f1 >= 0.7

    def test_periodic_matches_sequential_quality(self, problem, sequential_result):
        scene, filtered, spec = problem
        mc = MoveConfig()
        sampler = PeriodicPartitioningSampler(
            filtered, spec, mc, PhaseSchedule(local_iters=450, qg=mc.qg), seed=2
        )
        res = sampler.run(25000)
        sampler.post.verify_consistency()
        periodic_report = evaluate_model(res.final_circles, scene.circles)
        sequential_report = evaluate_model(sequential_result, scene.circles)
        assert periodic_report.f1 >= sequential_report.f1 - 0.2

    def test_intelligent_pipeline_quality(self, problem):
        scene, filtered, spec = problem
        res = run(DetectionRequest(
            image=scene.image, spec=spec, move_config=MoveConfig(),
            iterations=10000, strategy="intelligent", executor="serial",
            seed=3, options={"theta": 0.5, "min_gap": 12},
        ))
        report = evaluate_model(res.circles, scene.circles)
        assert report.f1 >= 0.6

    def test_blind_pipeline_quality(self, problem):
        scene, filtered, spec = problem
        res = run(DetectionRequest(
            image=scene.image, spec=spec, move_config=MoveConfig(),
            iterations=10000, strategy="blind", executor="serial", seed=4,
            options={"nx": 2, "ny": 2},
        ))
        report = evaluate_model(res.circles, scene.circles)
        assert report.f1 >= 0.55


class TestQuickstart:
    def test_quickstart_api(self):
        import repro

        scene, found, report = repro.quickstart_detect(
            size=128, n_circles=8, iterations=6000, seed=5
        )
        assert scene.n_circles == 8
        assert report.n_found == len(found)
        assert 0.0 <= report.f1 <= 1.0
