"""Tests for repro.utils.rng — determinism and stream independence."""

import numpy as np
import pytest

from repro.utils.rng import RngStream, as_generator, coerce_stream, spawn_streams


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(seed=5)
        b = RngStream(seed=5)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = RngStream(seed=5)
        b = RngStream(seed=6)
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]

    def test_spawn_deterministic(self):
        kids_a = RngStream(seed=9).spawn(3)
        kids_b = RngStream(seed=9).spawn(3)
        for ka, kb in zip(kids_a, kids_b):
            assert ka.random() == kb.random()

    def test_spawned_children_are_mutually_different(self):
        kids = RngStream(seed=9).spawn(4)
        seqs = [tuple(k.random() for _ in range(5)) for k in kids]
        assert len(set(seqs)) == 4

    def test_spawn_independent_of_parent_consumption(self):
        a = RngStream(seed=3)
        _ = [a.random() for _ in range(100)]  # consume parent output
        kid_after = a.spawn(1)[0]
        kid_fresh = RngStream(seed=3).spawn(1)[0]
        assert kid_after.random() == kid_fresh.random()

    def test_spawn_negative_raises(self):
        with pytest.raises(ValueError):
            RngStream(seed=1).spawn(-1)

    def test_spawn_one(self):
        assert isinstance(RngStream(seed=1).spawn_one(), RngStream)

    def test_uniform_bounds(self):
        s = RngStream(seed=2)
        for _ in range(100):
            v = s.uniform(3.0, 7.0)
            assert 3.0 <= v < 7.0

    def test_uniform_is_numpys_draw_bit_for_bit(self):
        """The scalar uniform reproduces ``Generator.uniform`` exactly —
        every chain's birth, translate and resize proposals depend on it."""
        ours = RngStream(seed=21)
        ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence(21)))
        bounds = np.random.default_rng(0)
        for i in range(20_000):
            low = float(bounds.uniform(-500.0, 500.0)) if i % 3 else 0.0
            high = low + float(bounds.uniform(0.0, 60.0)) if i % 5 else low + 2 * np.pi
            assert ours.uniform(low, high) == float(ref.uniform(low, high))
        assert ours.uniform(-1, 2) == float(ref.uniform(-1, 2))  # int bounds

    @pytest.mark.parametrize("low, high, error", [
        (1.0, 0.0, ValueError),
        (0.0, -0.0, ValueError),
        (0.0, float("inf"), OverflowError),
        (float("nan"), 1.0, OverflowError),
    ])
    def test_uniform_rejects_what_numpy_rejects(self, low, high, error):
        with pytest.raises(error):
            np.random.default_rng(0).uniform(low, high)
        with pytest.raises(error):
            RngStream(seed=0).uniform(low, high)

    def test_integers_bounds(self):
        s = RngStream(seed=2)
        vals = {s.integers(0, 4) for _ in range(200)}
        assert vals == {0, 1, 2, 3}

    def test_normal_returns_float(self):
        assert isinstance(RngStream(seed=2).normal(0.0, 1.0), float)

    def test_choice_index_respects_weights(self):
        s = RngStream(seed=4)
        picks = [s.choice_index([0.0, 1.0, 0.0]) for _ in range(50)]
        assert all(p == 1 for p in picks)

    def test_choice_index_distribution(self):
        s = RngStream(seed=4)
        picks = np.array([s.choice_index([1.0, 3.0]) for _ in range(4000)])
        frac = picks.mean()
        assert 0.70 < frac < 0.80  # expect 0.75

    def test_choice_index_rejects_bad_weights(self):
        s = RngStream(seed=1)
        with pytest.raises(ValueError):
            s.choice_index([])
        with pytest.raises(ValueError):
            s.choice_index([0.0, 0.0])
        with pytest.raises(ValueError):
            s.choice_index([float("nan"), 1.0])


class TestCoercion:
    def test_coerce_int(self):
        assert isinstance(coerce_stream(7), RngStream)

    def test_coerce_stream_passthrough(self):
        s = RngStream(seed=1)
        assert coerce_stream(s) is s

    def test_coerce_none_works(self):
        assert isinstance(coerce_stream(None), RngStream)

    def test_as_generator_from_int(self):
        g = as_generator(3)
        assert isinstance(g, np.random.Generator)

    def test_as_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_spawn_streams_helper(self):
        kids = spawn_streams(11, 2)
        assert len(kids) == 2
        assert kids[0].random() != kids[1].random()

    def test_entropy_exposed(self):
        assert RngStream(seed=13).entropy == 13
