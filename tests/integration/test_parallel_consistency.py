"""Integration: parallel execution is bit-identical to serial.

Because every partition task carries its own seed, the results of a
periodic run or a pipeline must be identical regardless of which
executor (serial / thread / process) executed the tasks.  This is the
repo's strongest guard against scheduling-dependent nondeterminism.
"""

import pytest

from repro.core import PeriodicPartitioningSampler, PhaseSchedule
from repro.engine import DetectionRequest, run
from repro.imaging import SceneSpec, generate_scene, threshold_filter
from repro.imaging.density import estimate_count
from repro.mcmc import ModelSpec, MoveConfig
from repro.parallel import ProcessExecutor, SharedImage, ThreadExecutor
from repro.parallel.sharedmem import set_worker_image, worker_initializer


@pytest.fixture(scope="module")
def problem():
    scene = generate_scene(
        SceneSpec(width=200, height=200, n_circles=12, mean_radius=8.0,
                  radius_std=1.0, min_radius=4.0),
        seed=301,
    )
    filtered = threshold_filter(scene.image, 0.4)
    spec = ModelSpec(
        width=200, height=200,
        expected_count=max(estimate_count(filtered, 0.5, 8.0), 1.0),
        radius_mean=8.0, radius_std=1.2, radius_min=3.0, radius_max=12.0,
    )
    return scene, filtered, spec


def run_periodic(filtered, spec, executor=None):
    set_worker_image(filtered.pixels)
    mc = MoveConfig()
    sampler = PeriodicPartitioningSampler(
        filtered, spec, mc, PhaseSchedule(local_iters=400, qg=mc.qg),
        executor=executor, seed=77,
    )
    res = sampler.run(6000)
    sampler.post.verify_consistency()
    return sorted((c.x, c.y, c.r) for c in res.final_circles)


class TestExecutorEquivalence:
    @pytest.fixture(scope="class")
    def serial_state(self, problem):
        _, filtered, spec = problem
        return run_periodic(filtered, spec)

    def test_thread_equals_serial(self, problem, serial_state):
        _, filtered, spec = problem
        with ThreadExecutor(4) as ex:
            threaded = run_periodic(filtered, spec, executor=ex)
        assert threaded == pytest.approx(serial_state)

    def test_process_equals_serial(self, problem, serial_state):
        _, filtered, spec = problem
        with SharedImage.create(filtered) as shm:
            with ProcessExecutor(
                4, initializer=worker_initializer, initargs=shm.attach_args()
            ) as ex:
                processed = run_periodic(filtered, spec, executor=ex)
        assert processed == pytest.approx(serial_state)

    def test_blind_pipeline_process_equals_serial(self, problem):
        scene, filtered, spec = problem
        set_worker_image(scene.image.pixels)
        def blind(executor):
            return run(DetectionRequest(
                image=scene.image, spec=spec, move_config=MoveConfig(),
                iterations=3000, strategy="blind", executor=executor,
                seed=88, options={"nx": 2, "ny": 2},
            ))

        serial = blind("serial")
        with SharedImage.create(scene.image) as shm:
            with ProcessExecutor(
                4, initializer=worker_initializer, initargs=shm.attach_args()
            ) as ex:
                parallel = blind(ex)
        a = sorted((c.x, c.y, c.r) for c in serial.circles)
        b = sorted((c.x, c.y, c.r) for c in parallel.circles)
        assert a == pytest.approx(b)
