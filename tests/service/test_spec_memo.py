"""The fingerprint memo: a repeat spec costs one hash, never a wrong key.

Properties of :func:`spec_fingerprint` / :class:`SpecMemo` on generated
pixel specs, then the service-level contracts built on them: an invalid
spec is rejected identically on every submit and never memoised, and a
memoised key whose result left the cache recomputes to the cold run's
circles.
"""

import base64

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ResultCache
from repro.engine.schema import request_key
from repro.errors import ServiceError
from repro.imaging.image import Image
from repro.obs import MetricsRegistry
from repro.service import ServiceClient, serve_background
from repro.service.protocol import (
    SPEC_MEMO_CAPACITY,
    SpecMemo,
    pixels_job,
    request_from_wire,
    scene_job,
    spec_fingerprint,
)


def blob_image(seed, height=24, width=24):
    """Noise plus one bright disc, so a model spec can be derived."""
    rng = np.random.default_rng(seed)
    ys, xs = np.mgrid[0:height, 0:width]
    disc = np.hypot(xs - width / 2, ys - height / 2) < 5
    return Image(0.1 * rng.random((height, width)) + 0.8 * disc)


@st.composite
def pixel_specs(draw):
    image = blob_image(draw(st.integers(0, 2**32 - 1)),
                       height=draw(st.integers(16, 32)),
                       width=draw(st.integers(16, 32)))
    return pixels_job(
        image,
        strategy=draw(st.sampled_from(["naive", "intelligent"])),
        iterations=draw(st.integers(1, 500)),
        seed=draw(st.integers(0, 10_000)),
        threshold=draw(st.sampled_from([0.3, 0.4, 0.5])),
    )


def lookups(obs, result):
    return obs.counter("spec_memo_lookups_total", result=result).value


class TestFingerprint:
    @settings(max_examples=25, deadline=None)
    @given(spec=pixel_specs())
    def test_memoised_key_is_the_full_parse_key(self, spec):
        obs = MetricsRegistry()
        memo = SpecMemo(obs)
        fingerprint, key = memo.lookup(spec)
        assert fingerprint is not None and key is None
        full = request_key(request_from_wire(spec))
        memo.remember(fingerprint, full)
        # A byte-identical resubmission (fresh objects, as off the wire).
        again = {**spec, "pixels": dict(spec["pixels"])}
        assert memo.lookup(again) == (fingerprint, full)
        assert request_key(request_from_wire(again)) == full
        assert (lookups(obs, "miss"), lookups(obs, "hit")) == (1, 1)

    @settings(max_examples=25, deadline=None)
    @given(spec=pixel_specs(), where=st.integers(0, 10**6),
           bit=st.integers(0, 7))
    def test_any_pixel_byte_changes_it(self, spec, where, bit):
        raw = bytearray(base64.b64decode(spec["pixels"]["data"]))
        raw[where % len(raw)] ^= 1 << bit
        flipped = {**spec, "pixels": {
            **spec["pixels"], "data": base64.b64encode(bytes(raw)).decode("ascii")}}
        assert spec_fingerprint(flipped) != spec_fingerprint(spec)

    @settings(max_examples=25, deadline=None)
    @given(spec=pixel_specs())
    def test_shape_and_every_other_field_change_it(self, spec):
        base = spec_fingerprint(spec)
        height, width = spec["pixels"]["shape"]
        variants = [
            {**spec, "pixels": {**spec["pixels"], "shape": [width, height + 1]}},
            {**spec, "iterations": spec["iterations"] + 1},
            {**spec, "iterations": float(spec["iterations"])},  # invalid ≠ valid
            {**spec, "seed": spec["seed"] + 1},
            {**spec, "strategy": "blind"},
            {**spec, "threshold": spec["threshold"] + 0.01},
            {**spec, "options": {"nx": 2}},
            {**spec, "record_every": 7},
            {**spec, "executor": "thread"},
        ]
        prints = [spec_fingerprint(v) for v in variants]
        assert None not in prints
        assert len({base, *prints}) == len(variants) + 1

    @settings(max_examples=25, deadline=None)
    @given(spec=pixel_specs(), order=st.randoms(use_true_random=False))
    def test_key_order_does_not(self, spec, order):
        items = list(spec.items())
        order.shuffle(items)
        pixels = list(spec["pixels"].items())
        order.shuffle(pixels)
        shuffled = dict(items)
        shuffled["pixels"] = dict(pixels)
        assert spec_fingerprint(shuffled) == spec_fingerprint(spec)

    def test_scene_specs_are_fingerprinted_without_pixels(self):
        a = scene_job(size=32, circles=2, seed=1)
        assert spec_fingerprint(a) == spec_fingerprint(dict(reversed(a.items())))
        assert spec_fingerprint(a) != spec_fingerprint(
            scene_job(size=32, circles=2, seed=2))

    @pytest.mark.parametrize("spec", [
        None,
        [],
        "pixels",
        {"image_path": "/tmp/a.pgm", "iterations": 10},
        {"pixels": "not-an-object", "iterations": 10},
        {"pixels": {"shape": [2, 2], "data": b"AAAA"}, "iterations": 10},
        {"pixels": {"shape": [2, 2], "data": "AAé="}, "iterations": 10},
        {"pixels": {"shape": [2, 2], "data": "AAAA"}, "options": {"f": object()}},
    ])
    def test_unmemoisable_specs_give_none(self, spec):
        assert spec_fingerprint(spec) is None
        obs = MetricsRegistry()
        memo = SpecMemo(obs)
        assert memo.lookup(spec) == (None, None)
        memo.remember(None, "k" * 64)
        assert len(memo) == 0 and lookups(obs, "miss") == 1

    def test_lru_never_exceeds_its_capacity(self):
        memo = SpecMemo(MetricsRegistry())
        specs = [scene_job(size=32, circles=2, seed=i)
                 for i in range(SPEC_MEMO_CAPACITY + 40)]
        for i, spec in enumerate(specs):
            fingerprint, _ = memo.lookup(spec)
            memo.remember(fingerprint, f"{i:064x}")
            assert len(memo) <= SPEC_MEMO_CAPACITY
            memo.lookup(specs[0])  # keep the first one hot
        assert len(memo) == SPEC_MEMO_CAPACITY
        assert memo.lookup(specs[0])[1] == f"{0:064x}"  # recently used: kept
        assert memo.lookup(specs[1])[1] is None  # least recently used: gone
        assert memo.lookup(specs[-1])[1] == f"{len(specs) - 1:064x}"
        memo.remember(spec_fingerprint(specs[0]), None)  # uncacheable: no-op
        assert memo.lookup(specs[0])[1] == f"{0:064x}"


class TestServiceMemo:
    def test_repeat_is_admitted_without_a_second_parse(self):
        spec = pixels_job(blob_image(3), strategy="intelligent",
                          iterations=60, seed=5)
        with serve_background(workers=1, cache=ResultCache()) as handle:
            service = handle.service
            with ServiceClient(*handle.address) as client:
                cold = client.detect(spec)
                warm = [client.detect(spec) for _ in range(5)]
                stats = client.stats()
            assert not cold.cached and all(w.cached for w in warm)
            assert all(w.circles == cold.circles for w in warm)
            assert stats["stage_latency"]["parse"]["count"] == 1
            assert lookups(service.obs, "miss") == 1
            assert lookups(service.obs, "hit") == 5
            # The admission-time cache lookup still runs on every submit.
            assert (stats["n_cache_misses"], stats["n_cache_hits"]) == (1, 5)

    def test_invalid_spec_is_rejected_every_time_and_never_memoised(self):
        bad = pixels_job(blob_image(4), iterations=60, seed=1)
        bad["pixels"]["shape"] = [24, 23]  # fingerprintable, undecodable
        with serve_background(workers=1, cache=ResultCache()) as handle:
            with ServiceClient(*handle.address) as client:
                messages = []
                for _ in range(3):
                    with pytest.raises(ServiceError) as err:
                        client.submit(bad)
                    messages.append(str(err.value))
            assert len(set(messages)) == 1 and "undecodable" in messages[0]
            assert len(handle.service._spec_memo) == 0
            assert lookups(handle.service.obs, "miss") == 3

    def test_per_submit_checks_still_run_on_a_memo_hit(self):
        spec = pixels_job(blob_image(5), iterations=60, seed=2)
        with serve_background(workers=1, cache=ResultCache()) as handle:
            with ServiceClient(*handle.address) as client:
                client.detect(spec)
                with pytest.raises(ServiceError, match="priority"):
                    client.submit(spec, priority="high")
                reply = client._call({"op": "submit", "job": spec,
                                      "trace": "t-123", "deadline": 5.0})
                assert reply["cached"]
                ack = client._call({"op": "stream", "job_id": reply["job_id"]})
                assert ack["trace"] == "t-123"
                assert client._read_line()["event"] == "result"

    def test_memo_hit_with_evicted_result_recomputes_the_cold_digest(self):
        first = pixels_job(blob_image(6), iterations=60, seed=3)
        other = pixels_job(blob_image(7), iterations=60, seed=3)
        with serve_background(workers=1,
                              cache=ResultCache(max_entries=1)) as handle:
            with ServiceClient(*handle.address) as client:
                cold = client.detect(first)
                client.detect(other)  # evicts `first`'s result, not its key
                again = client.detect(first)
                stats = client.stats()
            assert not cold.cached and not again.cached
            assert again.circles == cold.circles
            assert lookups(handle.service.obs, "hit") == 1
            # Parsed on first sight (twice) and once more for the rerun.
            assert stats["stage_latency"]["parse"]["count"] == 3
            assert stats["n_cache_misses"] == 3

    def test_a_cacheless_server_never_consults_the_memo(self):
        spec = scene_job(size=32, circles=2, iterations=40, seed=1)
        with serve_background(workers=1) as handle:
            with ServiceClient(*handle.address) as client:
                assert client.detect(spec).circles == client.detect(spec).circles
            assert lookups(handle.service.obs, "hit") == 0
            assert lookups(handle.service.obs, "miss") == 0
