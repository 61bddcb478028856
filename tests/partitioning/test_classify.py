"""Tests for repro.partitioning.classify — the partition-safety rule."""

import pytest

from repro.geometry.rect import Rect
from repro.mcmc.spec import ModelSpec, MoveConfig
from repro.mcmc.state import CircleConfiguration
from repro.partitioning.classify import classify_features


@pytest.fixture
def spec():
    return ModelSpec(
        width=100, height=100, expected_count=5.0,
        radius_mean=6.0, radius_std=1.0, radius_min=2.0, radius_max=10.0,
    )


@pytest.fixture
def mc():
    return MoveConfig(translate_step=2.0, resize_step=1.0)


def cells():
    return [Rect(0, 0, 50, 100), Rect(50, 0, 100, 100)]


class TestClassification:
    def test_interior_feature_modifiable(self, spec, mc):
        cfg = CircleConfiguration()
        i = cfg.add(25, 50, 5)  # margin = 2+1+10+1 = 14; 25±(5+14) in [0,50] ✓
        plan = classify_features(cfg, cells(), spec, mc)
        assert plan.partitions[0].modifiable == (i,)
        assert plan.partitions[1].modifiable == ()

    def test_margin_value(self, spec, mc):
        plan = classify_features(CircleConfiguration(), cells(), spec, mc)
        assert plan.margin == pytest.approx(2.0 + 1.0 + 10.0 + 1.0)

    def test_boundary_feature_frozen_everywhere(self, spec, mc):
        cfg = CircleConfiguration()
        i = cfg.add(50, 50, 5)  # straddles the cut
        plan = classify_features(cfg, cells(), spec, mc)
        assert plan.total_modifiable() == 0
        # but it is context for both sides
        assert i in plan.partitions[0].context
        assert i in plan.partitions[1].context

    def test_near_boundary_feature_frozen(self, spec, mc):
        cfg = CircleConfiguration()
        # centre at 40, r=5: 40+5+14 = 59 > 50 -> frozen in left cell
        i = cfg.add(40, 50, 5)
        plan = classify_features(cfg, cells(), spec, mc)
        assert plan.partitions[0].modifiable == ()
        assert i in plan.partitions[0].context

    def test_context_includes_cross_boundary_discs(self, spec, mc):
        cfg = CircleConfiguration()
        i = cfg.add(47, 50, 5)  # disc reaches x=52, intersects right cell
        plan = classify_features(cfg, cells(), spec, mc)
        assert i in plan.partitions[1].context

    def test_frozen_property(self, spec, mc):
        cfg = CircleConfiguration()
        a = cfg.add(25, 50, 5)
        b = cfg.add(49, 50, 5)
        plan = classify_features(cfg, cells(), spec, mc)
        left = plan.partitions[0]
        assert a in left.modifiable
        assert b in left.frozen
        assert set(left.frozen) == set(left.context) - set(left.modifiable)

    def test_no_feature_modifiable_twice(self, spec, mc):
        cfg = CircleConfiguration()
        for k in range(20):
            cfg.add(5 + k * 4.7, 50, 3)
        plan = classify_features(cfg, cells(), spec, mc)
        plan.verify_disjoint()

    def test_modifiable_counts(self, spec, mc):
        cfg = CircleConfiguration()
        cfg.add(25, 50, 5)
        cfg.add(25, 30, 5)
        cfg.add(75, 50, 5)
        plan = classify_features(cfg, cells(), spec, mc)
        assert plan.modifiable_counts() == [2, 1]
        assert plan.total_modifiable() == 3


class TestSafetyTheorem:
    def test_modifiable_interaction_region_inside_partition(self, spec, mc):
        """The local-reach safety argument, checked numerically: a
        modifiable feature's worst-case influence region stays inside
        its partition."""
        cfg = CircleConfiguration()
        grid = [Rect(0, 0, 50, 100), Rect(50, 0, 100, 100)]
        import numpy as np

        rng = np.random.default_rng(0)
        for _ in range(60):
            cfg.add(rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(2, 10))
        plan = classify_features(cfg, grid, spec, mc)
        for ctx in plan.partitions:
            for i in ctx.modifiable:
                x, y, r = float(cfg.xs[i]), float(cfg.ys[i]), float(cfg.rs[i])
                # worst case: moved by translate_step, grown by resize_step,
                # interacting with a partner of radius radius_max
                reach = r + mc.translate_step + mc.resize_step + spec.radius_max
                assert ctx.rect.contains_circle(x, y, r, plan.margin)
                assert x - reach >= ctx.rect.x0 - 1.0
                assert x + reach <= ctx.rect.x1 + 1.0
