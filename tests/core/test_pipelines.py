"""Tests for the intelligent, blind and naive partitioning strategies
(§VIII–IX, §I) through :func:`repro.engine.run`."""

import pytest

from repro.core.evaluation import cut_lines, evaluate_model
from repro.engine import DetectionRequest, run
from repro.imaging import SceneSpec, generate_bead_scene
from repro.mcmc.spec import ModelSpec, MoveConfig
from repro.parallel.scheduler import makespan
from repro.partitioning.blind import blind_partitions


@pytest.fixture(scope="module")
def bead_scene():
    return generate_bead_scene(
        SceneSpec(
            width=360, height=260, n_circles=18, mean_radius=7.0,
            radius_std=0.8, min_radius=4.0, blur_sigma=0.8, noise_sigma=0.015,
        ),
        n_clumps=3,
        clump_radius_factor=4.0,
        gutter=36.0,
        clump_weights=[3, 12, 3],
        seed=77,
    )


@pytest.fixture(scope="module")
def bead_model():
    return ModelSpec(
        width=360, height=260, expected_count=18.0,
        radius_mean=7.0, radius_std=1.0, radius_min=3.0, radius_max=14.0,
    )


def detect(scene, model, strategy, iterations, seed, **options):
    return run(DetectionRequest(
        image=scene.image, spec=model, move_config=MoveConfig(),
        iterations=iterations, strategy=strategy, executor="serial",
        seed=seed, options=options,
    ))


def runtimes(result):
    return [p.elapsed_seconds for p in result.reports]


class TestIntelligentPipeline:
    @pytest.fixture(scope="class")
    def result(self, bead_scene, bead_model):
        return detect(bead_scene, bead_model, "intelligent", 9000, seed=3,
                      theta=0.5, min_gap=12)

    def test_segments_into_clumps(self, result):
        assert 2 <= result.n_partitions <= 8

    def test_partitions_tile_image(self, result, bead_scene):
        total = sum(p.rect.area for p in result.reports)
        assert total == pytest.approx(bead_scene.image.bounds.area, rel=1e-9)

    def test_threshold_estimates_reflect_clump_weights(self, result):
        """The dominant clump gets the dominant eq. (5) estimate."""
        ests = sorted(p.expected_count for p in result.reports)
        assert ests[-1] > 2 * ests[0]

    def test_detection_quality(self, result, bead_scene):
        report = evaluate_model(result.circles, bead_scene.circles)
        assert report.recall >= 0.6
        assert report.precision >= 0.6

    def test_per_partition_reports_complete(self, result):
        for p in result.reports:
            assert p.elapsed_seconds > 0
            assert p.seconds_per_iteration > 0
            assert p.iterations == 9000
            assert p.converged_at is None or 0 <= p.converged_at <= 9000

    def test_longest_partition_runtime(self, result):
        # One processor per partition costs the slowest partition; with
        # one processor, runtime is the sum.
        costs = runtimes(result)
        assert makespan(costs, 1) == pytest.approx(sum(costs))
        assert makespan(costs, len(costs)) == pytest.approx(max(costs))

    def test_deterministic(self, bead_scene, bead_model, result):
        again = detect(bead_scene, bead_model, "intelligent", 9000, seed=3,
                       theta=0.5, min_gap=12)
        a = sorted((c.x, c.y) for c in result.circles)
        b = sorted((c.x, c.y) for c in again.circles)
        assert a == pytest.approx(b)


class TestBlindPipeline:
    @pytest.fixture(scope="class")
    def result(self, bead_scene, bead_model):
        return detect(bead_scene, bead_model, "blind", 9000, seed=4, nx=2, ny=2)

    def test_four_partitions(self, result):
        assert len(result.reports) == 4
        assert result.n_tasks == 4

    def test_overlap_geometry(self, result, bead_scene, bead_model):
        """Each chain ran over a core cell expanded by 1.1 r̄ (the
        default overlap), so every core sits inside its report rect."""
        parts = blind_partitions(
            bead_scene.image.bounds, 2, 2, 1.1 * bead_model.radius_mean
        )
        assert [p.expanded for p in parts] == [r.rect for r in result.reports]
        for p in parts:
            assert p.expanded.contains_rect(p.core)

    def test_detection_quality(self, result, bead_scene):
        report = evaluate_model(result.circles, bead_scene.circles)
        assert report.recall >= 0.55
        assert report.precision >= 0.55

    def test_no_duplicates_in_final_model(self, result):
        """After merging, no two circles should be within merge distance."""
        circles = result.circles
        for i, a in enumerate(circles):
            for b in circles[i + 1 :]:
                assert a.distance_to(b) > 2.0

    def test_relative_runtimes(self, result):
        seq = 10.0
        rel = [t / seq for t in runtimes(result)]
        assert len(rel) == 4
        assert all(r > 0 for r in rel)
        assert max(runtimes(result)) == pytest.approx(max(rel) * seq)

    def test_runtime_with_processors_monotone(self, result):
        times = [makespan(runtimes(result), k) for k in (1, 2, 4)]
        assert times[0] >= times[1] >= times[2]

    def test_merge_report_accounting(self, result):
        """Every merged circle is counted exactly once by the report."""
        rep = result.merge
        assert result.n_found == (
            rep.n_auto_accepted + rep.n_corroborated + rep.n_disputed_kept
            + rep.n_rescued
        )


class TestNaivePartitioning:
    def test_runs_and_reports(self, bead_scene, bead_model):
        res = detect(bead_scene, bead_model, "naive", 4000, seed=5, nx=2, ny=2)
        assert len(res.reports) == 4
        assert res.merge is None
        lines = cut_lines([r.rect for r in res.reports])
        assert sorted(lines) == [("h", 130.0), ("v", 180.0)]
