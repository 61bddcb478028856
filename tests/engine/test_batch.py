"""Batch dispatch: N images through one shared pool, bit-identical to N
independent run() calls, with cache hits skipping recomputation."""

import pytest

from repro.bench.workloads import image_batch, synthetic_workload, workload_batch
from repro.engine import (
    DetectionBatch,
    ResultCache,
    SwitchingProcessExecutor,
    run,
    run_batch,
)
from repro.errors import ConfigurationError, ExecutorError

pytestmark = pytest.mark.fast

ITERS = 300
SEED = 17


def key(circles):
    return sorted((c.x, c.y, c.r) for c in circles)


@pytest.fixture(scope="module")
def workloads():
    return [
        synthetic_workload(size=64, n_circles=4, seed=1),
        synthetic_workload(size=64, n_circles=5, seed=2),
        synthetic_workload(size=64, n_circles=3, seed=3),
    ]


@pytest.fixture(scope="module")
def batch(workloads):
    return workload_batch(workloads, "intelligent", iterations=ITERS, seed=SEED)


@pytest.fixture(scope="module")
def independent(batch):
    """The reference: each derived request through a plain run()."""
    return [run(req) for req in batch.requests]


class TestBatchParity:
    def test_serial_pool_matches_independent_runs(self, batch, independent):
        out = run_batch(batch)
        assert out.executor_kind == "serial"
        assert len(out.items) == len(independent)
        for ref, item in zip(independent, out.items):
            assert key(ref.circles) == key(item.result.circles)
            assert not item.cached

    def test_thread_pool_matches_independent_runs(self, batch, independent):
        out = run_batch(batch, executor="thread", n_workers=2)
        assert out.executor_kind == "thread"
        for ref, item in zip(independent, out.items):
            assert key(ref.circles) == key(item.result.circles)
            assert item.result.executor_kind == "thread"

    def test_process_pool_matches_independent_runs(self, batch, independent):
        out = run_batch(batch, executor="process", n_workers=2)
        assert out.executor_kind == "process"
        for ref, item in zip(independent, out.items):
            assert key(ref.circles) == key(item.result.circles)
            assert item.result.executor_kind == "process"

    def test_periodic_strategy_through_shared_pool(self, workloads):
        pbatch = workload_batch(
            workloads[:2], "periodic", iterations=400, seed=SEED,
            options={"local_iters": 100},
        )
        independent = [run(req) for req in pbatch.requests]
        out = run_batch(pbatch, executor="thread", n_workers=2)
        for ref, item in zip(independent, out.items):
            assert key(ref.circles) == key(item.result.circles)

    def test_from_images_is_deterministic(self, workloads):
        w = workloads[0]
        make = lambda: DetectionBatch.from_images(
            [wl.scene.image for wl in workloads[:2]],
            spec=w.model, move_config=w.moves, iterations=ITERS, seed=4,
        )
        first = run_batch(make())
        second = run_batch(make())
        for a, b in zip(first.items, second.items):
            assert key(a.result.circles) == key(b.result.circles)


class TestBatchCache:
    def test_repeated_batch_hits_for_every_request(self, batch, independent):
        cache = ResultCache()
        first = run_batch(batch, cache=cache)
        assert first.n_computed == len(batch.requests)
        again = run_batch(batch, cache=cache)
        assert again.n_computed == 0
        assert again.n_cached == len(batch.requests)
        assert again.executor_kind == "cache"
        assert cache.stats.hits >= len(batch.requests)
        for ref, item in zip(independent, again.items):
            assert key(ref.circles) == key(item.result.circles)
            assert item.cached
            assert item.key is not None

    def test_partial_hits_only_compute_misses(self, workloads, batch):
        cache = ResultCache()
        run_batch(
            workload_batch(workloads[:2], "intelligent", iterations=ITERS, seed=SEED),
            cache=cache,
        )
        out = run_batch(batch, cache=cache)
        assert out.n_cached == 2
        assert out.n_computed == 1

    def test_uncacheable_requests_always_compute(self, workloads):
        w = workloads[0]
        uncacheable = DetectionBatch(
            requests=[w.request("intelligent", iterations=ITERS, seed=None)]
        )
        cache = ResultCache()
        out = run_batch(uncacheable, cache=cache)
        assert out.n_computed == 1
        assert out.items[0].key is None
        assert cache.stats.lookups == 0

    def test_disk_cache_answers_a_fresh_process(self, batch, tmp_path):
        first = run_batch(batch, cache=ResultCache(directory=tmp_path))
        out = run_batch(batch, cache=ResultCache(directory=tmp_path))
        assert out.n_computed == 0
        assert out.results == first.results


class TestBatchValidation:
    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            DetectionBatch(requests=[])

    def test_empty_image_list_rejected(self, workloads):
        w = workloads[0]
        with pytest.raises(ConfigurationError):
            DetectionBatch.from_images(
                [], spec=w.model, move_config=w.moves, iterations=ITERS
            )

    def test_switching_pool_requires_an_image(self):
        pool = SwitchingProcessExecutor(1)
        try:
            with pytest.raises(ExecutorError):
                pool.map(len, [()])
        finally:
            pool.shutdown()


class TestImageBatch:
    def test_requests_carry_per_image_models(self, workloads):
        images = [w.scene.image for w in workloads[:2]]
        batch = image_batch(images, "intelligent", iterations=ITERS, seed=0)
        assert len(batch) == 2
        for req, image in zip(batch.requests, images):
            assert req.spec.width == image.width
            assert req.options["theta"] == 0.4
        # distinct images with distinct content → distinct expected counts
        assert (
            batch.requests[0].spec.expected_count
            != batch.requests[1].spec.expected_count
        )

    def test_periodic_gets_the_filtered_image(self, workloads):
        image = workloads[0].scene.image
        batch = image_batch([image], "periodic", iterations=ITERS, seed=0)
        req = batch.requests[0]
        assert req.options == {}
        # thresholded: only 0 or >=theta-scaled intensities survive
        assert req.image.pixels.max() <= 1.0
        assert (req.image.pixels == 0.0).any()

    def test_runs_end_to_end(self, workloads):
        images = [w.scene.image for w in workloads[:2]]
        out = run_batch(image_batch(images, "intelligent", iterations=ITERS, seed=0))
        assert len(out.results) == 2
        assert all(r.n_found >= 0 for r in out.results)
