"""Tests for repro.mcmc.moves — reversible-jump bookkeeping.

Key properties: apply→unapply restores state and cached posterior
exactly; split and merge are exact inverses (geometry AND densities);
Jacobians match numerical differentiation.
"""

import math

import numpy as np
import pytest

from repro.geometry.circle import Circle
from repro.geometry.rect import Rect
from repro.imaging.image import Image
from repro.mcmc.moves import (
    BirthMove,
    DeathMove,
    MergeMove,
    MoveGenerator,
    NullMove,
    ReplaceMove,
    ResizeMove,
    SplitMove,
    TranslateMove,
)
from repro.mcmc.posterior import PosteriorState
from repro.mcmc.spec import LOCAL_MOVES, ModelSpec, MoveConfig, MoveType
from repro.utils.rng import RngStream


def make_spec(**kw):
    defaults = dict(
        width=60, height=60, expected_count=5.0,
        radius_mean=5.0, radius_std=1.0, radius_min=2.0, radius_max=10.0,
        overlap_gamma=0.4, likelihood_beta=2.0,
    )
    defaults.update(kw)
    return ModelSpec(**defaults)


@pytest.fixture
def spec():
    return make_spec()


@pytest.fixture
def post(spec):
    rng = np.random.default_rng(5)
    return PosteriorState(Image(rng.random((60, 60))), spec)


@pytest.fixture
def gen(spec):
    return MoveGenerator(spec, MoveConfig())


def snapshot(post):
    return sorted((c.x, c.y, c.r) for c in post.snapshot_circles())


class TestApplyUnapply:
    """Every move must restore state and cache exactly on unapply."""

    def _roundtrip(self, post, move):
        circles_before = snapshot(post)
        by_index_before = {
            int(i): (post.config.xs[i], post.config.ys[i], post.config.rs[i])
            for i in post.config.active_indices()
        }
        lp_before = post.log_posterior
        assert move.is_valid(post)
        move.apply(post)
        move.unapply(post)
        assert snapshot(post) == pytest.approx(circles_before)
        # Index identity must survive rollback (speculative re-apply
        # depends on it) — regression test for the LIFO-undo-order bug.
        by_index_after = {
            int(i): (post.config.xs[i], post.config.ys[i], post.config.rs[i])
            for i in post.config.active_indices()
        }
        assert by_index_after == by_index_before
        assert post.log_posterior == lp_before  # bit-exact restore
        post.verify_consistency()

    def test_split_apply_unapply_apply(self, post, gen):
        """A split evaluated (apply+unapply) must apply again cleanly — the
        usage of ``SpeculativeChain.round``'s legacy reference branch,
        which prices each proposal with ``evaluate_move`` and then calls
        ``winner.apply``."""
        idx, _ = post.insert_circle(30, 30, 5)
        move = SplitMove(idx, post.config.circle_at(idx), 0.5, 3.0, 0.4, gen.ctx)
        move.apply(post)
        move.unapply(post)
        move.apply(post)  # must not raise
        post.verify_consistency()

    def test_birth(self, post, gen):
        self._roundtrip(post, BirthMove(30, 30, 5, gen.ctx))

    def test_death(self, post, gen):
        idx, _ = post.insert_circle(30, 30, 5)
        self._roundtrip(post, DeathMove(idx, gen.ctx))

    def test_replace(self, post, gen):
        idx, _ = post.insert_circle(30, 30, 5)
        self._roundtrip(post, ReplaceMove(idx, 10, 40, 4, gen.ctx))

    def test_translate(self, post):
        idx, _ = post.insert_circle(30, 30, 5)
        self._roundtrip(post, TranslateMove(idx, 32, 29))

    def test_resize(self, post):
        idx, _ = post.insert_circle(30, 30, 5)
        self._roundtrip(post, ResizeMove(idx, 6.5))

    def test_split(self, post, gen):
        idx, _ = post.insert_circle(30, 30, 5)
        self._roundtrip(post, SplitMove(idx, post.config.circle_at(idx), 0.7, 3.0, 0.5, gen.ctx))

    def test_merge(self, post, gen):
        i, _ = post.insert_circle(28, 30, 5)
        j, _ = post.insert_circle(34, 30, 4)
        self._roundtrip(
            post, MergeMove(i, j, post.config.circle_at(i), post.config.circle_at(j), gen.ctx)
        )


class TestSplitMergeInverse:
    def test_split_then_merge_restores_circle(self, post, gen):
        idx, _ = post.insert_circle(30, 30, 5)
        original = post.config.circle_at(idx)
        split = SplitMove(idx, original, theta=1.1, d=4.0, a=0.35, ctx=gen.ctx)
        assert split.is_valid(post)
        split.apply(post)
        i1, i2 = split._i1, split._i2
        merge = MergeMove(
            i1, i2, post.config.circle_at(i1), post.config.circle_at(i2), gen.ctx
        )
        assert merge.is_valid(post)
        m = merge.merged
        assert m.x == pytest.approx(original.x)
        assert m.y == pytest.approx(original.y)
        assert m.r == pytest.approx(original.r)

    def test_merge_recovers_auxiliaries(self, gen):
        """The merge recovers exactly the (d, a) a split would have used."""
        original = Circle(30, 30, 5)
        split = SplitMove(0, original, theta=2.2, d=3.5, a=0.6, ctx=gen.ctx)
        merge = MergeMove(0, 1, split.c1, split.c2, gen.ctx)
        assert merge.d == pytest.approx(3.5)
        assert merge.a == pytest.approx(0.6)

    def test_jacobians_cancel(self, gen):
        original = Circle(30, 30, 5)
        split = SplitMove(0, original, theta=0.4, d=2.5, a=0.3, ctx=gen.ctx)
        merge = MergeMove(0, 1, split.c1, split.c2, gen.ctx)
        assert split.log_jacobian() == pytest.approx(-merge.log_jacobian())

    def test_split_conserves_squared_radius(self, gen):
        original = Circle(30, 30, 5)
        split = SplitMove(0, original, theta=0.4, d=2.5, a=0.3, ctx=gen.ctx)
        assert split.c1.r**2 + split.c2.r**2 == pytest.approx(2 * original.r**2)

    def test_jacobian_matches_numerical(self, gen):
        """|J| of (x, y, r, θ, d, a) → (x1, y1, r1, x2, y2, r2) by finite
        differences."""
        x, y, r, theta, d, a = 30.0, 30.0, 5.0, 0.9, 3.0, 0.4

        def forward(v):
            x, y, r, theta, d, a = v
            dx, dy = d * math.cos(theta), d * math.sin(theta)
            return np.array(
                [
                    x + dx, y + dy, r * math.sqrt(2 * a),
                    x - dx, y - dy, r * math.sqrt(2 * (1 - a)),
                ]
            )

        v0 = np.array([x, y, r, theta, d, a])
        eps = 1e-6
        J = np.zeros((6, 6))
        for k in range(6):
            dv = np.zeros(6)
            dv[k] = eps
            J[:, k] = (forward(v0 + dv) - forward(v0 - dv)) / (2 * eps)
        numeric = abs(np.linalg.det(J))
        split = SplitMove(0, Circle(x, y, r), theta, d, a, gen.ctx)
        assert split.log_jacobian() == pytest.approx(math.log(numeric), abs=1e-5)


class TestDensityConsistency:
    def test_birth_death_density_symmetry(self, post, gen):
        """A birth's (forward, reverse) densities equal the inverse
        death's (reverse, forward) at the corresponding states."""
        birth = BirthMove(30, 30, 5, gen.ctx)
        lf_birth = birth.log_forward_density(post)
        birth.apply(post)
        lr_birth = birth.log_reverse_density(post)

        death = DeathMove(birth._idx, gen.ctx)
        lf_death = death.log_forward_density(post)
        death.apply(post)
        lr_death = death.log_reverse_density(post)

        assert lf_death == pytest.approx(lr_birth)
        assert lr_death == pytest.approx(lf_birth)

    def test_split_merge_density_symmetry(self, post, gen):
        idx, _ = post.insert_circle(30, 30, 5)
        split = SplitMove(idx, post.config.circle_at(idx), 1.2, 3.0, 0.45, gen.ctx)
        lf_split = split.log_forward_density(post)
        split.apply(post)
        lr_split = split.log_reverse_density(post)

        merge = MergeMove(
            split._i1, split._i2,
            post.config.circle_at(split._i1), post.config.circle_at(split._i2),
            gen.ctx,
        )
        lf_merge = merge.log_forward_density(post)
        merge.apply(post)
        lr_merge = merge.log_reverse_density(post)

        assert lf_merge == pytest.approx(lr_split)
        assert lr_merge == pytest.approx(lf_split)

    def test_translate_symmetric(self, post):
        idx, _ = post.insert_circle(30, 30, 5)
        mv = TranslateMove(idx, 31, 30)
        assert mv.log_forward_density(post) == 0.0
        mv.apply(post)
        assert mv.log_reverse_density(post) == 0.0
        assert mv.log_jacobian() == 0.0


class TestValidity:
    def test_birth_out_of_bounds(self, post, gen):
        assert not BirthMove(70, 30, 5, gen.ctx).is_valid(post)
        assert not BirthMove(30, 30, 50, gen.ctx).is_valid(post)

    def test_death_inactive(self, post, gen):
        assert not DeathMove(3, gen.ctx).is_valid(post)

    def test_split_radius_bounds(self, post, gen):
        idx, _ = post.insert_circle(30, 30, 9.0)
        # a near 1 makes r1 = 9*sqrt(2a) > 10 -> invalid
        split = SplitMove(idx, post.config.circle_at(idx), 0.0, 2.0, 0.99, gen.ctx)
        assert not split.is_valid(post)

    def test_merge_distance_gate(self, post, gen):
        i, _ = post.insert_circle(10, 10, 4)
        j, _ = post.insert_circle(50, 50, 4)
        mv = MergeMove(i, j, post.config.circle_at(i), post.config.circle_at(j), gen.ctx)
        assert not mv.is_valid(post)  # too far apart

    def test_translate_constraint_rect(self, post):
        idx, _ = post.insert_circle(30, 30, 5)
        constraint = (Rect(20, 20, 40, 40), 2.0)
        assert TranslateMove(idx, 30, 31, constraint).is_valid(post)
        # 34 + 5 + 2 > 40: violates the margin
        assert not TranslateMove(idx, 34, 30, constraint).is_valid(post)

    def test_resize_constraint_rect(self, post):
        idx, _ = post.insert_circle(30, 30, 5)
        constraint = (Rect(22, 22, 38, 38), 2.0)
        assert not ResizeMove(idx, 7.0, constraint).is_valid(post)  # 30+7+2 > 38


class TestMoveGenerator:
    def test_full_mode_generates_all_types(self, post, spec, gen):
        post.insert_circle(20, 20, 5)
        post.insert_circle(26, 20, 5)
        stream = RngStream(seed=3)
        seen = set()
        for _ in range(500):
            mv = gen.generate(post, stream)
            seen.add(mv.move_type)
        assert seen == set(MoveType)

    def test_local_mode_generates_only_local(self, post, spec):
        post.insert_circle(20, 20, 5)
        g = MoveGenerator(spec, MoveConfig(), mode="local")
        stream = RngStream(seed=3)
        for _ in range(200):
            assert g.generate(post, stream).move_type in LOCAL_MOVES

    def test_global_mode_generates_only_global(self, post, spec):
        post.insert_circle(20, 20, 5)
        g = MoveGenerator(spec, MoveConfig(), mode="global")
        stream = RngStream(seed=3)
        for _ in range(200):
            assert g.generate(post, stream).move_type not in LOCAL_MOVES

    def test_empty_state_yields_null_for_selection_moves(self, post, spec):
        g = MoveGenerator(spec, MoveConfig(), mode="global")
        stream = RngStream(seed=4)
        for _ in range(100):
            mv = g.generate(post, stream)
            if mv.move_type != MoveType.BIRTH:
                assert isinstance(mv, NullMove)

    def test_local_mode_restricted_indices(self, post, spec):
        a, _ = post.insert_circle(20, 20, 5)
        b, _ = post.insert_circle(40, 40, 5)
        g = MoveGenerator(
            spec, MoveConfig(), mode="local", allowed_indices=[a],
            constraint=(Rect(0, 0, 60, 60), 0.0),
        )
        stream = RngStream(seed=5)
        for _ in range(100):
            mv = g.generate(post, stream)
            assert mv.idx == a

    def test_local_mode_empty_allowed_yields_null(self, post, spec):
        g = MoveGenerator(spec, MoveConfig(), mode="local", allowed_indices=[])
        stream = RngStream(seed=5)
        assert isinstance(g.generate(post, stream), NullMove)

    def test_constraint_outside_local_mode_raises(self, spec):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            MoveGenerator(spec, MoveConfig(), mode="full", allowed_indices=[1])

    def test_unknown_mode_raises(self, spec):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            MoveGenerator(spec, MoveConfig(), mode="sideways")

    def test_translate_step_bounded(self, post, spec):
        idx, _ = post.insert_circle(30, 30, 5)
        mc = MoveConfig(translate_step=2.0)
        g = MoveGenerator(spec, mc, mode="local")
        stream = RngStream(seed=6)
        for _ in range(200):
            mv = g.generate(post, stream)
            if mv.move_type is MoveType.TRANSLATE:
                d = math.hypot(mv.new_x - 30, mv.new_y - 30)
                assert d <= 2.0 + 1e-12

    def test_resize_step_bounded(self, post, spec):
        idx, _ = post.insert_circle(30, 30, 5)
        mc = MoveConfig(resize_step=1.0)
        g = MoveGenerator(spec, mc, mode="local")
        stream = RngStream(seed=7)
        for _ in range(200):
            mv = g.generate(post, stream)
            if mv.move_type is MoveType.RESIZE:
                assert abs(mv.new_r - 5) <= 1.0 + 1e-12

    def test_split_d_in_range(self, post, spec):
        post.insert_circle(30, 30, 5)
        mc = MoveConfig(split_max_separation=4.0)
        g = MoveGenerator(spec, mc, mode="global")
        stream = RngStream(seed=8)
        for _ in range(300):
            mv = g.generate(post, stream)
            if mv.move_type is MoveType.SPLIT:
                assert 0.0 < mv.d <= 4.0

    def test_merge_pairs_within_reach(self, post, spec):
        i, _ = post.insert_circle(20, 20, 5)
        j, _ = post.insert_circle(26, 20, 5)
        post.insert_circle(50, 50, 5)
        mc = MoveConfig(split_max_separation=6.0)
        g = MoveGenerator(spec, mc, mode="global")
        stream = RngStream(seed=9)
        for _ in range(300):
            mv = g.generate(post, stream)
            if mv.move_type is MoveType.MERGE and not isinstance(mv, NullMove):
                assert {mv.i, mv.j} == {i, j}
