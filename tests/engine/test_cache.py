"""Result-cache behaviour: canonical request keying (any changed field
is a different key), LRU eviction, clear, and the on-disk store."""

import json

import numpy as np
import pytest

from repro.bench.workloads import small_nuclei_workload
from repro.engine import (
    ResultCache,
    image_digest,
    request_key,
    run,
)
from repro.engine.cache import result_from_json, result_to_json
from repro.errors import EngineError
from repro.imaging.image import Image
from repro.utils.rng import RngStream

pytestmark = pytest.mark.fast

ITERS = 300
SEED = 5


@pytest.fixture(scope="module")
def workload():
    return small_nuclei_workload()


@pytest.fixture(scope="module")
def result(workload):
    return run(workload.request("intelligent", iterations=ITERS, seed=SEED))


def key_of(workload, **overrides):
    kwargs = dict(strategy="intelligent", iterations=ITERS, seed=SEED)
    kwargs.update(overrides)
    strategy = kwargs.pop("strategy")
    return request_key(workload.request(strategy, **kwargs))


class TestRequestKey:
    def test_equal_requests_hit_the_same_key(self, workload):
        assert key_of(workload) == key_of(workload)

    def test_seed_changes_the_key(self, workload):
        assert key_of(workload) != key_of(workload, seed=SEED + 1)

    def test_iterations_change_the_key(self, workload):
        assert key_of(workload) != key_of(workload, iterations=ITERS + 1)

    def test_strategy_changes_the_key(self, workload):
        assert key_of(workload) != key_of(workload, strategy="naive")

    def test_option_changes_the_key(self, workload):
        assert key_of(workload) != key_of(
            workload, options={"theta": 0.45}
        )

    def test_record_every_changes_the_key(self, workload):
        assert key_of(workload) != key_of(workload, record_every=25)

    def test_image_bytes_change_the_key(self, workload):
        request = workload.request("intelligent", iterations=ITERS, seed=SEED)
        pixels = request.image.pixels.copy()
        pixels[0, 0] = 1.0 - pixels[0, 0]
        perturbed = workload.request("intelligent", iterations=ITERS, seed=SEED)
        perturbed.image = Image(pixels)
        assert request_key(request) != request_key(perturbed)
        assert image_digest(request.image) != image_digest(perturbed.image)

    def test_executor_choice_does_not_change_the_key(self, workload):
        assert key_of(workload) == key_of(workload, executor="thread", n_workers=2)

    def test_seed_sequence_is_cacheable(self, workload):
        seq = np.random.SeedSequence(9)
        assert key_of(workload, seed=seq) == key_of(
            workload, seed=np.random.SeedSequence(9)
        )

    def test_unreproducible_seeds_are_uncacheable(self, workload):
        assert key_of(workload, seed=None) is None
        assert key_of(workload, seed=RngStream(seed=3)) is None
        assert key_of(workload, seed=np.random.default_rng(3)) is None

    def test_non_serialisable_option_is_uncacheable(self, workload):
        assert key_of(
            workload, strategy="periodic", options={"partitioner": lambda b, s: []}
        ) is None


class TestMemoryCache:
    def test_roundtrip_and_stats(self, workload, result):
        cache = ResultCache()
        key = key_of(workload)
        assert cache.get(key) is None
        cache.put(key, result)
        hit = cache.get(key)
        assert hit is result  # memory tier keeps the full object, raw included
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction(self, workload, result):
        cache = ResultCache(max_entries=2)
        keys = [key_of(workload, seed=s) for s in (1, 2, 3)]
        for k in keys:
            cache.put(k, result)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.get(keys[0]) is None  # oldest evicted
        assert cache.get(keys[2]) is result

    def test_lru_order_refreshed_by_get(self, workload, result):
        cache = ResultCache(max_entries=2)
        k1, k2, k3 = (key_of(workload, seed=s) for s in (1, 2, 3))
        cache.put(k1, result)
        cache.put(k2, result)
        assert cache.get(k1) is result  # k1 now most-recent
        cache.put(k3, result)           # evicts k2, not k1
        assert cache.get(k1) is result
        assert cache.get(k2) is None

    def test_clear(self, workload, result):
        cache = ResultCache()
        cache.put(key_of(workload), result)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0
        assert cache.get(key_of(workload)) is None

    def test_invalidate(self, workload, result):
        cache = ResultCache()
        key = key_of(workload)
        cache.put(key, result)
        assert cache.invalidate(key)
        assert not cache.invalidate(key)
        assert cache.get(key) is None

    def test_malformed_key_rejected(self, result):
        cache = ResultCache()
        with pytest.raises(EngineError):
            cache.put("../../etc/passwd", result)
        with pytest.raises(EngineError):
            cache.get("short")


class TestDiskCache:
    def test_result_json_roundtrip_is_bit_identical(self, result):
        revived = result_from_json(json.loads(json.dumps(result_to_json(result))))
        assert [(c.x, c.y, c.r) for c in revived.circles] == [
            (c.x, c.y, c.r) for c in result.circles
        ]
        assert [r.rect for r in revived.reports] == [r.rect for r in result.reports]
        assert revived.elapsed_seconds == result.elapsed_seconds

    def test_entries_survive_across_cache_instances(self, workload, result, tmp_path):
        key = key_of(workload)
        ResultCache(directory=tmp_path).put(key, result)
        fresh = ResultCache(directory=tmp_path)
        hit = fresh.get(key)
        assert hit is not None
        assert [(c.x, c.y, c.r) for c in hit.circles] == [
            (c.x, c.y, c.r) for c in result.circles
        ]
        assert fresh.stats.hits == 1

    def test_clear_removes_disk_entries(self, workload, result, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put(key_of(workload), result)
        assert cache.disk_entries == 1
        cache.clear()
        assert cache.disk_entries == 0
        assert ResultCache(directory=tmp_path).get(key_of(workload)) is None

    def test_corrupt_entry_reads_as_miss(self, workload, result, tmp_path):
        cache = ResultCache(directory=tmp_path)
        key = key_of(workload)
        cache.put(key, result)
        (tmp_path / f"{key}.json").write_text("{not json")
        fresh = ResultCache(directory=tmp_path)
        assert fresh.get(key) is None
        assert fresh.stats.misses == 1

    def test_stale_schema_entry_reads_as_miss(self, workload, result, tmp_path):
        key = key_of(workload)
        ResultCache(directory=tmp_path).put(key, result)
        path = tmp_path / f"{key}.json"
        doc = json.loads(path.read_text())
        path.write_text(json.dumps(dict(doc, schema_version=1)))
        assert ResultCache(directory=tmp_path).get(key) is None

    def test_flush_accumulates_stats_across_instances(self, workload, result, tmp_path):
        first = ResultCache(directory=tmp_path)
        key = key_of(workload)
        first.get(key)          # miss
        first.put(key, result)
        first.flush()
        second = ResultCache(directory=tmp_path)
        assert second.get(key) is not None  # hit from disk
        second.flush()
        summary = ResultCache(directory=tmp_path).summary()
        assert summary["hits"] == 1
        assert summary["misses"] == 1
        assert summary["stores"] == 1
        assert summary["disk_entries"] == 1
        assert summary["disk_bytes"] > 0


STRATEGIES = ["naive", "blind", "intelligent", "periodic"]


@pytest.fixture(scope="module", params=STRATEGIES)
def run_of(request, workload):
    """``(request, result)`` of one fresh run per strategy."""
    req = workload.request(request.param, iterations=ITERS, seed=SEED)
    return req, run(req)


class TestOneResultAnyTier:
    """A result has one value whichever tier answers: the run itself,
    the memory LRU, the disk store, or the JSON wire schema."""

    def test_json_roundtrip_is_equal(self, run_of):
        _, fresh = run_of
        doc = json.loads(json.dumps(result_to_json(fresh)))
        assert result_from_json(doc) == fresh

    def test_fresh_memory_and_disk_hits_are_equal(self, run_of, tmp_path):
        req, fresh = run_of
        key = request_key(req)
        cache = ResultCache(directory=tmp_path)
        cache.put(key, fresh)
        memory_hit = cache.get(key)
        disk_hit = ResultCache(directory=tmp_path).get(key)
        assert memory_hit == fresh
        assert disk_hit == fresh

    def test_merge_counts_only_for_blind(self, run_of):
        req, fresh = run_of
        assert (fresh.merge is not None) == (req.strategy == "blind")
        assert all(r.converged_at is None or r.converged_at >= 0
                   for r in fresh.reports)
