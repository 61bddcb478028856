"""Inputs are a function of the seed; the digest check sees one wrong bit."""

import json
import math

from ledger import stats
from ledger.workloads import (
    WORKLOADS,
    sized,
    solo_jobs,
    solo_scene,
    stack_jobs,
    stack_scene,
)
from repro.geometry.circle import Circle
from repro.imaging.filters import threshold_filter
from repro.partitioning.intelligent import segment_image


def _payload(seed: int) -> str:
    jobs, _ = stack_jobs(seed, 4)
    solo = solo_jobs(WORKLOADS["solo-parallel"], solo_scene(seed), seed, 5000)
    return json.dumps([jobs, solo], sort_keys=True)


def test_same_seed_gives_byte_identical_job_payloads():
    assert _payload(11) == _payload(11)


def test_a_different_seed_gives_different_payloads():
    assert _payload(11) != _payload(12)


def test_stack_jobs_are_distinct_keys():
    jobs, truths = stack_jobs(3, 6)
    assert len({json.dumps(j, sort_keys=True) for j in jobs}) == 6
    assert all(len(t) == 5 for t in truths)
    assert stack_jobs(3, 4)[0] == jobs[:4]  # a longer list extends a shorter one


def test_solo_scene_asks_for_the_same_work_on_every_seed():
    """Sixteen beads, four clumps, and the segmenter finds exactly the
    four clumps — whatever the seed."""
    for seed in range(12):
        scene = solo_scene(seed)
        assert scene.n_circles == 16
        assert scene.image.pixels.shape == (192, 192)
        segments = segment_image(threshold_filter(scene.image, 0.4), min_gap=8.0)
        assert len(segments) == 4, f"seed {seed}: {len(segments)} segments"


def test_stack_images_are_one_clump_so_cold_jobs_cost_one_mode():
    for index in range(40):
        scene = stack_scene(9, index)
        assert scene.n_circles == 5 and scene.image.pixels.shape == (64, 64)
        assert len(segment_image(threshold_filter(scene.image, 0.4), min_gap=8.0)) == 1


def test_digest_check_fails_on_one_perturbed_circle():
    circles = [Circle(10.0, 20.0, 8.0), Circle(40.5, 12.25, 7.5)]
    wire = [[c.x, c.y, c.r] for c in circles]
    # Same circles, engine objects or wire rows, any order: same digest.
    assert stats.circle_digest(circles) == stats.circle_digest(wire[::-1])
    nudged = [Circle(10.0, 20.0, 8.0), Circle(math.nextafter(40.5, 41.0), 12.25, 7.5)]
    assert stats.circle_digest(nudged) != stats.circle_digest(circles)
    assert stats.circle_digest(circles[:1]) != stats.circle_digest(circles)


def test_sizes_are_a_function_of_seconds_only():
    warm = WORKLOADS["stack-warm"]
    assert sized(warm, 1.0) == sized(warm, 1.0)
    assert sized(warm, 1.0).timed == warm.timed and sized(warm, 1.0).keys == 64
    assert sized(warm, 2.0).timed == 2 * warm.timed
    solo = WORKLOADS["solo-serial"]
    assert sized(solo, 1.0).iterations == solo.iterations
    quick = sized(solo, 0.05)
    assert quick.timed == 3 and quick.iterations == 250  # shorter chains, same passes
    assert sized(WORKLOADS["stack-cold"], 0.05).timed >= 24  # a median's worth
