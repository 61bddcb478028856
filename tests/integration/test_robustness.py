"""Robustness and failure-injection tests.

Production code meets bad inputs: corrupted images, empty scenes,
crashing workers.  These tests pin down that failures are loud and
typed (never silent wrong answers) and that degraded inputs degrade
results gracefully.
"""

import numpy as np
import pytest

from repro.core import PeriodicPartitioningSampler, PhaseSchedule
from repro.engine import DetectionRequest, run
from repro.errors import PartitioningError
from repro.imaging import Image, add_salt_pepper, threshold_filter
from repro.imaging.synthetic import SceneSpec, generate_scene
from repro.mcmc import ModelSpec, MoveConfig
from repro.parallel import ProcessExecutor, SerialExecutor, ThreadExecutor
from repro.parallel.sharedmem import set_worker_image


class TestCorruptedInputs:
    def test_salt_pepper_pipeline_survives(self):
        """Salt-and-pepper noise inflates the eq. (5) estimate but the
        pipeline still runs and finds the real structure."""
        scene = generate_scene(
            SceneSpec(width=128, height=128, n_circles=6, mean_radius=8.0),
            seed=1,
        )
        corrupted = add_salt_pepper(scene.image, 0.01, seed=2)
        filtered = threshold_filter(corrupted, 0.5)
        spec = ModelSpec(width=128, height=128, expected_count=6.0,
                         radius_mean=8.0, radius_std=1.5, radius_min=3.0,
                         radius_max=14.0)
        set_worker_image(filtered.pixels)
        mc = MoveConfig()
        sampler = PeriodicPartitioningSampler(
            filtered, spec, mc, PhaseSchedule(local_iters=200, qg=mc.qg), seed=3
        )
        res = sampler.run(4000)
        sampler.post.verify_consistency()
        assert res.iterations == 4000

    def test_empty_image_intelligent_pipeline_raises(self):
        img = Image(np.zeros((64, 64)))
        spec = ModelSpec(width=64, height=64, expected_count=1.0,
                         radius_mean=6.0, radius_std=1.0, radius_min=2.0,
                         radius_max=12.0)
        with pytest.raises(PartitioningError, match="no partitions"):
            run(DetectionRequest(
                image=img, spec=spec, move_config=MoveConfig(),
                iterations=100, strategy="intelligent", executor="serial",
                seed=1,
            ))

    def test_empty_scene_periodic_runs(self):
        """No artifacts at all: local phases have nothing to do, but the
        run must complete with exact accounting."""
        img = Image(np.full((96, 96), 0.05))
        filtered = threshold_filter(img, 0.5)
        spec = ModelSpec(width=96, height=96, expected_count=0.5,
                         radius_mean=7.0, radius_std=1.0, radius_min=3.0,
                         radius_max=12.0)
        set_worker_image(filtered.pixels)
        mc = MoveConfig()
        sampler = PeriodicPartitioningSampler(
            filtered, spec, mc, PhaseSchedule(local_iters=150, qg=mc.qg), seed=4
        )
        res = sampler.run(3000)
        assert res.iterations == 3000
        sampler.post.verify_consistency()
        # The model should remain (nearly) empty on an empty image.
        assert sampler.post.config.n <= 2


def _crash(task):
    raise ValueError(f"injected failure on {task}")


class TestWorkerFailures:
    def test_serial_executor_propagates(self):
        with pytest.raises(ValueError, match="injected"):
            SerialExecutor().map(_crash, [1])

    def test_thread_executor_propagates(self):
        with ThreadExecutor(2) as ex:
            with pytest.raises(ValueError, match="injected"):
                ex.map(_crash, [1, 2, 3])

    def test_process_executor_propagates(self):
        with ProcessExecutor(2) as ex:
            with pytest.raises(ValueError, match="injected"):
                ex.map(_crash, [1, 2, 3])

    def test_process_pool_usable_after_task_failure(self):
        """A failing task must not poison the pool for later phases."""
        with ProcessExecutor(2) as ex:
            with pytest.raises(ValueError):
                ex.map(_crash, [1])
            assert ex.map(abs, [-5, -6]) == [5, 6]


class TestSchedulingIndependence:
    def test_thread_pool_size_does_not_change_results(self, small_filtered, small_spec):
        """More workers than tasks, fewer workers than tasks — identical
        chains either way."""
        from repro.core.periodic import grid_partitioner

        def run(n_workers):
            set_worker_image(small_filtered.pixels)
            mc = MoveConfig()
            with ThreadExecutor(n_workers) as ex:
                s = PeriodicPartitioningSampler(
                    small_filtered, small_spec, mc,
                    PhaseSchedule(local_iters=300, qg=mc.qg),
                    partitioner=grid_partitioner(40, 40),
                    executor=ex, seed=8,
                )
                res = s.run(3000)
            return sorted((c.x, c.y, c.r) for c in res.final_circles)

        assert run(1) == run(8)
