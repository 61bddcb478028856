"""Move proposals and their reversible-jump bookkeeping.

Each move type is a small single-use object created by
:class:`MoveGenerator` for one iteration.  A move knows how to:

* validate itself against the current state (``is_valid``),
* report its forward proposal log-density (evaluated *before* applying),
* apply itself to a :class:`~repro.mcmc.posterior.PosteriorState`
  (returning the exact log-posterior delta),
* report the reverse proposal log-density (evaluated *after* applying),
* report the log-Jacobian of its dimension-matching transform, and
* roll itself back (``unapply``), restoring the cached log-posterior
  bit-exactly from the saved pre-move value.

The split/merge pair uses the standard RJMCMC construction: a split of
circle (x, y, r) draws auxiliary variables θ ~ U[0, 2π), d ~ U(0, d_max]
and a ~ U(0, 1) and produces

    c1 = (x + d cosθ, y + d sinθ, r·sqrt(2a))
    c2 = (x − d cosθ, y − d sinθ, r·sqrt(2(1−a)))

which preserves the centroid and the summed squared radius
(r1² + r2² = 2r²); the merge inverts it exactly.  The Jacobian of
(x, y, r, θ, d, a) → (x1, y1, r1, x2, y2, r2) is

    |J| = 4·d·r / sqrt(a(1−a))

(positions contribute 4d via (x, y, d, θ) → (x1, y1, x2, y2); radii
contribute r/sqrt(a(1−a))).

Local moves (translate/resize) use *bounded symmetric* proposals —
uniform in a disc of radius ``translate_step`` / uniform in
``±resize_step`` — so their proposal ratio is exactly 1 and, crucially,
their spatial reach is hard-bounded, which is what makes the partition
safety margin of :meth:`repro.mcmc.spec.MoveConfig.local_reach` exact
rather than probabilistic.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ChainError, ConfigurationError
from repro.geometry.circle import Circle
from repro.geometry.rect import Rect
from repro.mcmc.posterior import PosteriorState
from repro.mcmc.spec import ModelSpec, MoveConfig, MoveType
from repro.utils.rng import RngStream

__all__ = [
    "MoveContext",
    "Move",
    "NullMove",
    "BirthMove",
    "DeathMove",
    "SplitMove",
    "MergeMove",
    "ReplaceMove",
    "TranslateMove",
    "ResizeMove",
    "MoveGenerator",
]

_TWO_PI = 2.0 * math.pi
_NEG_INF = float("-inf")


@dataclass(frozen=True)
class MoveContext:
    """Shared constants a move needs to price its proposal densities.

    ``log_weights`` are the *mode-renormalised* move-type log-weights of
    the generator that created the move (full / global-only /
    local-only), so forward and reverse densities always price type
    selection within the same mode.
    """

    log_weights: Mapping[MoveType, float]
    log_area: float
    d_max: float

    def log_w(self, mt: MoveType) -> float:
        return self.log_weights[mt]


class Move:
    """Base class; see module docstring for the lifecycle.

    Two execution protocols share the proposal/density methods:

    * **apply/unapply** (legacy): :meth:`apply` mutates everything and
      returns the delta; a rejection pays a full :meth:`unapply` —
      including a second disc rasterisation per disc touched.
    * **price/commit/rollback** (trial): :meth:`price` mutates only the
      configuration (so densities and overlap energies evaluate against
      bit-identical state) while coverage counts and the cached
      posterior stay untouched; :meth:`commit` finalises an acceptance
      from the cached rasterisation masks, :meth:`rollback` undoes the
      configuration in O(1) without re-rasterising anything.

    The base implementations fall back to apply/unapply; every concrete
    move class — the RJMCMC split/merge pair included — overrides all
    three with true trial pricing.  ``supports_trial`` advertises which
    protocol a class actually implements (``NullMove`` does not).
    """

    move_type: MoveType
    supports_trial: bool = False

    def is_valid(self, post: PosteriorState) -> bool:
        """Pre-application validity (bounds, truncations, constraints)."""
        raise NotImplementedError

    def log_forward_density(self, post: PosteriorState) -> float:
        """log q(move | current state); evaluate before :meth:`apply`."""
        raise NotImplementedError

    def apply(self, post: PosteriorState) -> float:
        """Mutate *post*; return the log-posterior delta."""
        raise NotImplementedError

    def log_reverse_density(self, post: PosteriorState) -> float:
        """log q(inverse move | new state); evaluate after :meth:`apply`
        (or :meth:`price` — the configuration state it reads is the
        same)."""
        raise NotImplementedError

    def log_jacobian(self) -> float:
        """log |J| of the dimension-matching transform (0 for fixed-d moves)."""
        return 0.0

    def unapply(self, post: PosteriorState) -> None:
        """Undo :meth:`apply`, restoring state and cached posterior."""
        raise NotImplementedError

    # -- trial protocol (default: fall back to apply/unapply) ---------------
    def price(self, post: PosteriorState) -> float:
        """Price the move; return the exact log-posterior delta.

        Must be followed by exactly one of :meth:`commit` /
        :meth:`rollback`.  The fallback simply applies the move (so
        commit is a no-op and rollback is a full unapply).
        """
        return self.apply(post)

    def commit(self, post: PosteriorState) -> None:
        """Finalise an accepted :meth:`price`."""
        return None

    def rollback(self, post: PosteriorState) -> None:
        """Undo a rejected :meth:`price`."""
        self.unapply(post)


class NullMove(Move):
    """A proposal that could not be generated (e.g. death on an empty
    configuration).  Counts as a rejected iteration, per standard
    practice, so move-class probabilities stay as configured."""

    def __init__(self, intended: MoveType) -> None:
        self.move_type = intended

    def is_valid(self, post: PosteriorState) -> bool:
        return False

    def log_forward_density(self, post: PosteriorState) -> float:  # pragma: no cover
        return _NEG_INF

    def apply(self, post: PosteriorState) -> float:  # pragma: no cover
        raise ChainError("NullMove cannot be applied")

    def log_reverse_density(self, post: PosteriorState) -> float:  # pragma: no cover
        return _NEG_INF

    def unapply(self, post: PosteriorState) -> None:  # pragma: no cover
        raise ChainError("NullMove cannot be unapplied")


class BirthMove(Move):
    """Add a circle at (x, y) with radius r (position uniform, radius
    drawn from the radius prior)."""

    move_type = MoveType.BIRTH

    def __init__(self, x: float, y: float, r: float, ctx: MoveContext) -> None:
        self.x, self.y, self.r = x, y, r
        self.ctx = ctx
        self._idx: Optional[int] = None
        self._prev_lp: float = math.nan

    def is_valid(self, post: PosteriorState) -> bool:
        return post.centre_in_bounds(self.x, self.y) and post.radius_in_bounds(self.r)

    def log_forward_density(self, post: PosteriorState) -> float:
        return (
            self.ctx.log_w(MoveType.BIRTH)
            - self.ctx.log_area
            + post.radius_prior.log_pdf(self.r)
        )

    def apply(self, post: PosteriorState) -> float:
        self._prev_lp = post.log_posterior
        self._idx, delta = post.insert_circle(self.x, self.y, self.r)
        return delta

    def log_reverse_density(self, post: PosteriorState) -> float:
        # Reverse = death selecting the new circle among the n current ones.
        return self.ctx.log_w(MoveType.DEATH) - math.log(post.config.n)

    def unapply(self, post: PosteriorState) -> None:
        if self._idx is None:
            raise ChainError("BirthMove.unapply before apply")
        post.delete_circle(self._idx)
        post.set_log_posterior(self._prev_lp)

    supports_trial = True

    def price(self, post: PosteriorState) -> float:
        self._idx, delta = post.trial_insert_circle(self.x, self.y, self.r)
        return delta

    def commit(self, post: PosteriorState) -> None:
        post.commit_trial()

    def rollback(self, post: PosteriorState) -> None:
        if self._idx is None:
            raise ChainError("BirthMove.rollback before price")
        post.discard_trial()
        post.rollback_insert(self._idx)


class DeathMove(Move):
    """Delete circle *idx* (selected uniformly)."""

    move_type = MoveType.DEATH

    def __init__(self, idx: int, ctx: MoveContext) -> None:
        self.idx = idx
        self.ctx = ctx
        self._removed: Optional[Circle] = None
        self._prev_lp: float = math.nan

    def is_valid(self, post: PosteriorState) -> bool:
        return post.config.is_active(self.idx)

    def log_forward_density(self, post: PosteriorState) -> float:
        return self.ctx.log_w(MoveType.DEATH) - math.log(post.config.n)

    def apply(self, post: PosteriorState) -> float:
        self._prev_lp = post.log_posterior
        self._removed, delta = post.delete_circle(self.idx)
        return delta

    def log_reverse_density(self, post: PosteriorState) -> float:
        assert self._removed is not None
        return (
            self.ctx.log_w(MoveType.BIRTH)
            - self.ctx.log_area
            + post.radius_prior.log_pdf(self._removed.r)
        )

    def unapply(self, post: PosteriorState) -> None:
        if self._removed is None:
            raise ChainError("DeathMove.unapply before apply")
        post.insert_circle(self._removed.x, self._removed.y, self._removed.r)
        post.set_log_posterior(self._prev_lp)

    supports_trial = True

    def price(self, post: PosteriorState) -> float:
        self._removed, delta = post.trial_delete_circle(self.idx)
        return delta

    def commit(self, post: PosteriorState) -> None:
        post.commit_trial()

    def rollback(self, post: PosteriorState) -> None:
        if self._removed is None:
            raise ChainError("DeathMove.rollback before price")
        post.discard_trial()
        post.rollback_delete(self._removed)


class ReplaceMove(Move):
    """Delete circle *idx* and add a fresh one elsewhere (dimension
    preserved; the paper lists 'replace' among the global moves because
    the new position ranges over the whole image)."""

    move_type = MoveType.REPLACE

    def __init__(self, idx: int, x: float, y: float, r: float, ctx: MoveContext) -> None:
        self.idx = idx
        self.x, self.y, self.r = x, y, r
        self.ctx = ctx
        self._removed: Optional[Circle] = None
        self._new_idx: Optional[int] = None
        self._prev_lp: float = math.nan

    def is_valid(self, post: PosteriorState) -> bool:
        return (
            post.config.is_active(self.idx)
            and post.centre_in_bounds(self.x, self.y)
            and post.radius_in_bounds(self.r)
        )

    def log_forward_density(self, post: PosteriorState) -> float:
        return (
            self.ctx.log_w(MoveType.REPLACE)
            - math.log(post.config.n)
            - self.ctx.log_area
            + post.radius_prior.log_pdf(self.r)
        )

    def apply(self, post: PosteriorState) -> float:
        self._prev_lp = post.log_posterior
        self._removed, d1 = post.delete_circle(self.idx)
        self._new_idx, d2 = post.insert_circle(self.x, self.y, self.r)
        return d1 + d2

    def log_reverse_density(self, post: PosteriorState) -> float:
        assert self._removed is not None
        return (
            self.ctx.log_w(MoveType.REPLACE)
            - math.log(post.config.n)
            - self.ctx.log_area
            + post.radius_prior.log_pdf(self._removed.r)
        )

    def unapply(self, post: PosteriorState) -> None:
        if self._removed is None or self._new_idx is None:
            raise ChainError("ReplaceMove.unapply before apply")
        post.delete_circle(self._new_idx)
        post.insert_circle(self._removed.x, self._removed.y, self._removed.r)
        post.set_log_posterior(self._prev_lp)

    supports_trial = True

    def price(self, post: PosteriorState) -> float:
        self._removed, d1 = post.trial_delete_circle(self.idx)
        self._new_idx, d2 = post.trial_insert_circle(self.x, self.y, self.r)
        return d1 + d2

    def commit(self, post: PosteriorState) -> None:
        post.commit_trial()

    def rollback(self, post: PosteriorState) -> None:
        if self._removed is None or self._new_idx is None:
            raise ChainError("ReplaceMove.rollback before price")
        post.discard_trial()
        # Same config-op order as unapply: drop the new circle, then
        # restore the old one into its recycled slot.
        post.rollback_insert(self._new_idx)
        post.rollback_delete(self._removed)


class SplitMove(Move):
    """Split circle *idx* into two circles (see module docstring)."""

    move_type = MoveType.SPLIT

    def __init__(
        self,
        idx: int,
        original: Circle,
        theta: float,
        d: float,
        a: float,
        ctx: MoveContext,
    ) -> None:
        self.idx = idx
        self.original = original
        self.theta, self.d, self.a = theta, d, a
        self.ctx = ctx
        dx, dy = d * math.cos(theta), d * math.sin(theta)
        self.c1 = Circle(original.x + dx, original.y + dy, original.r * math.sqrt(2.0 * a))
        self.c2 = Circle(
            original.x - dx, original.y - dy, original.r * math.sqrt(2.0 * (1.0 - a))
        )
        self._i1: Optional[int] = None
        self._i2: Optional[int] = None
        self._removed: Optional[Circle] = None
        self._prev_lp: float = math.nan

    def is_valid(self, post: PosteriorState) -> bool:
        return (
            post.config.is_active(self.idx)
            and 0.0 < self.d <= self.ctx.d_max
            and 0.0 < self.a < 1.0
            and post.centre_in_bounds(self.c1.x, self.c1.y)
            and post.centre_in_bounds(self.c2.x, self.c2.y)
            and post.radius_in_bounds(self.c1.r)
            and post.radius_in_bounds(self.c2.r)
        )

    def log_forward_density(self, post: PosteriorState) -> float:
        # Select the circle (1/n), then θ, d, a from their uniform densities.
        return (
            self.ctx.log_w(MoveType.SPLIT)
            - math.log(post.config.n)
            - math.log(_TWO_PI)
            - math.log(self.ctx.d_max)
        )

    def apply(self, post: PosteriorState) -> float:
        self._prev_lp = post.log_posterior
        self._removed, d0 = post.delete_circle(self.idx)
        self._i1, d1 = post.insert_circle(self.c1.x, self.c1.y, self.c1.r)
        self._i2, d2 = post.insert_circle(self.c2.x, self.c2.y, self.c2.r)
        return d0 + d1 + d2

    def log_reverse_density(self, post: PosteriorState) -> float:
        # Reverse = merge choosing the (c1, c2) pair in the post-split state.
        assert self._i1 is not None and self._i2 is not None
        return _log_merge_pair_density(post, self._i1, self._i2, self.ctx)

    def log_jacobian(self) -> float:
        return math.log(
            4.0 * self.d * self.original.r / math.sqrt(self.a * (1.0 - self.a))
        )

    def unapply(self, post: PosteriorState) -> None:
        if self._removed is None or self._i1 is None or self._i2 is None:
            raise ChainError("SplitMove.unapply before apply")
        # Reverse allocation order so the free-list (LIFO) hands the
        # original circle its original slot back — index identity must
        # survive a rollback (the speculative executor re-applies moves).
        post.delete_circle(self._i2)
        post.delete_circle(self._i1)
        restored, _ = post.insert_circle(self._removed.x, self._removed.y, self._removed.r)
        if restored != self.idx:
            raise ChainError(
                f"split rollback restored index {restored}, expected {self.idx}"
            )
        post.set_log_posterior(self._prev_lp)

    supports_trial = True

    def price(self, post: PosteriorState) -> float:
        # Same primitive order as apply: the second insert's overlap
        # energy and pending-mask pricing must see the first insert.
        self._removed, d0 = post.trial_delete_circle(self.idx)
        self._i1, d1 = post.trial_insert_circle(self.c1.x, self.c1.y, self.c1.r)
        self._i2, d2 = post.trial_insert_circle(self.c2.x, self.c2.y, self.c2.r)
        return d0 + d1 + d2

    def commit(self, post: PosteriorState) -> None:
        post.commit_trial()

    def rollback(self, post: PosteriorState) -> None:
        if self._removed is None or self._i1 is None or self._i2 is None:
            raise ChainError("SplitMove.rollback before price")
        post.discard_trial()
        # Same config-op order as unapply (LIFO free-list, index identity).
        post.rollback_insert(self._i2)
        post.rollback_insert(self._i1)
        restored = post.rollback_delete(self._removed)
        if restored != self.idx:
            raise ChainError(
                f"split rollback restored index {restored}, expected {self.idx}"
            )


class MergeMove(Move):
    """Merge circles *i* and *j* into their exact split-inverse."""

    move_type = MoveType.MERGE

    def __init__(self, i: int, j: int, ci: Circle, cj: Circle, ctx: MoveContext) -> None:
        self.i, self.j = i, j
        self.ci, self.cj = ci, cj
        self.ctx = ctx
        self.merged = Circle(
            0.5 * (ci.x + cj.x),
            0.5 * (ci.y + cj.y),
            math.sqrt(0.5 * (ci.r * ci.r + cj.r * cj.r)),
        )
        # Recover the split's auxiliary variables (needed for the Jacobian
        # and to confirm the pair lies in the split proposal's support).
        self.d = 0.5 * ci.distance_to(cj)
        self.a = (ci.r * ci.r) / (2.0 * self.merged.r * self.merged.r)
        self._idx_m: Optional[int] = None
        self._prev_lp: float = math.nan

    def is_valid(self, post: PosteriorState) -> bool:
        return (
            self.i != self.j
            and post.config.is_active(self.i)
            and post.config.is_active(self.j)
            and 0.0 < self.d <= self.ctx.d_max
            and 0.0 < self.a < 1.0
            and post.centre_in_bounds(self.merged.x, self.merged.y)
            and post.radius_in_bounds(self.merged.r)
        )

    def log_forward_density(self, post: PosteriorState) -> float:
        return _log_merge_pair_density(post, self.i, self.j, self.ctx)

    def apply(self, post: PosteriorState) -> float:
        self._prev_lp = post.log_posterior
        _, d0 = post.delete_circle(self.i)
        _, d1 = post.delete_circle(self.j)
        self._idx_m, d2 = post.insert_circle(self.merged.x, self.merged.y, self.merged.r)
        return d0 + d1 + d2

    def log_reverse_density(self, post: PosteriorState) -> float:
        # Reverse = split selecting the merged circle in the post state.
        return (
            self.ctx.log_w(MoveType.SPLIT)
            - math.log(post.config.n)
            - math.log(_TWO_PI)
            - math.log(self.ctx.d_max)
        )

    def log_jacobian(self) -> float:
        # Inverse transform: minus the split's log |J|.
        return -math.log(
            4.0 * self.d * self.merged.r / math.sqrt(self.a * (1.0 - self.a))
        )

    def unapply(self, post: PosteriorState) -> None:
        if self._idx_m is None:
            raise ChainError("MergeMove.unapply before apply")
        # Re-insert in reverse deletion order so the LIFO free list gives
        # ci and cj their original slots back (index identity, see
        # SplitMove.unapply).
        post.delete_circle(self._idx_m)
        rj, _ = post.insert_circle(self.cj.x, self.cj.y, self.cj.r)
        ri, _ = post.insert_circle(self.ci.x, self.ci.y, self.ci.r)
        if ri != self.i or rj != self.j:
            raise ChainError(
                f"merge rollback restored indices ({ri}, {rj}), expected "
                f"({self.i}, {self.j})"
            )
        post.set_log_posterior(self._prev_lp)

    supports_trial = True

    def price(self, post: PosteriorState) -> float:
        # Same primitive order as apply; the insert prices against the
        # pending state both deletions left behind.
        _, d0 = post.trial_delete_circle(self.i)
        _, d1 = post.trial_delete_circle(self.j)
        self._idx_m, d2 = post.trial_insert_circle(
            self.merged.x, self.merged.y, self.merged.r
        )
        return d0 + d1 + d2

    def commit(self, post: PosteriorState) -> None:
        post.commit_trial()

    def rollback(self, post: PosteriorState) -> None:
        if self._idx_m is None:
            raise ChainError("MergeMove.rollback before price")
        post.discard_trial()
        # Same config-op order as unapply: drop the merged circle, then
        # re-insert in reverse deletion order for index identity.
        post.rollback_insert(self._idx_m)
        rj = post.rollback_delete(self.cj)
        ri = post.rollback_delete(self.ci)
        if ri != self.i or rj != self.j:
            raise ChainError(
                f"merge rollback restored indices ({ri}, {rj}), expected "
                f"({self.i}, {self.j})"
            )


class TranslateMove(Move):
    """Perturb circle *idx*'s centre (local move; symmetric bounded
    proposal — uniform in a disc)."""

    move_type = MoveType.TRANSLATE

    def __init__(
        self,
        idx: int,
        new_x: float,
        new_y: float,
        constraint: Optional[Tuple[Rect, float]] = None,
    ) -> None:
        self.idx = idx
        self.new_x, self.new_y = new_x, new_y
        self.constraint = constraint
        self._old: Optional[Tuple[float, float]] = None
        self._prev_lp: float = math.nan

    def is_valid(self, post: PosteriorState) -> bool:
        if not post.config.is_active(self.idx):
            return False
        if not post.centre_in_bounds(self.new_x, self.new_y):
            return False
        if self.constraint is not None:
            rect, margin = self.constraint
            r = post.config.radius_of(self.idx)
            if not rect.contains_circle(self.new_x, self.new_y, r, margin):
                return False
        return True

    def log_forward_density(self, post: PosteriorState) -> float:
        return 0.0  # symmetric proposal; cancels with reverse

    def apply(self, post: PosteriorState) -> float:
        self._prev_lp = post.log_posterior
        self._old, delta = post.move_circle(self.idx, self.new_x, self.new_y)
        return delta

    def log_reverse_density(self, post: PosteriorState) -> float:
        return 0.0

    def unapply(self, post: PosteriorState) -> None:
        if self._old is None:
            raise ChainError("TranslateMove.unapply before apply")
        post.move_circle(self.idx, self._old[0], self._old[1])
        post.set_log_posterior(self._prev_lp)

    supports_trial = True

    def price(self, post: PosteriorState) -> float:
        self._old, delta = post.trial_move_circle(self.idx, self.new_x, self.new_y)
        return delta

    def commit(self, post: PosteriorState) -> None:
        post.commit_trial()

    def rollback(self, post: PosteriorState) -> None:
        if self._old is None:
            raise ChainError("TranslateMove.rollback before price")
        post.discard_trial()
        post.rollback_move(self.idx, self._old[0], self._old[1])


class ResizeMove(Move):
    """Perturb circle *idx*'s radius (local move; symmetric bounded
    proposal — uniform in ±resize_step)."""

    move_type = MoveType.RESIZE

    def __init__(
        self,
        idx: int,
        new_r: float,
        constraint: Optional[Tuple[Rect, float]] = None,
    ) -> None:
        self.idx = idx
        self.new_r = new_r
        self.constraint = constraint
        self._old_r: Optional[float] = None
        self._prev_lp: float = math.nan

    def is_valid(self, post: PosteriorState) -> bool:
        if not post.config.is_active(self.idx):
            return False
        if not post.radius_in_bounds(self.new_r):
            return False
        if self.constraint is not None:
            rect, margin = self.constraint
            x, y = post.config.position_of(self.idx)
            if not rect.contains_circle(x, y, self.new_r, margin):
                return False
        return True

    def log_forward_density(self, post: PosteriorState) -> float:
        return 0.0

    def apply(self, post: PosteriorState) -> float:
        self._prev_lp = post.log_posterior
        self._old_r, delta = post.resize_circle(self.idx, self.new_r)
        return delta

    def log_reverse_density(self, post: PosteriorState) -> float:
        return 0.0

    def unapply(self, post: PosteriorState) -> None:
        if self._old_r is None:
            raise ChainError("ResizeMove.unapply before apply")
        post.resize_circle(self.idx, self._old_r)
        post.set_log_posterior(self._prev_lp)

    supports_trial = True

    def price(self, post: PosteriorState) -> float:
        self._old_r, delta = post.trial_resize_circle(self.idx, self.new_r)
        return delta

    def commit(self, post: PosteriorState) -> None:
        post.commit_trial()

    def rollback(self, post: PosteriorState) -> None:
        if self._old_r is None:
            raise ChainError("ResizeMove.rollback before price")
        post.discard_trial()
        post.rollback_resize(self.idx, self._old_r)


def _log_merge_pair_density(
    post: PosteriorState, i: int, j: int, ctx: MoveContext
) -> float:
    """log q of selecting the unordered pair {i, j} for a merge.

    The generator picks a first circle uniformly (1/n) then a partner
    uniformly among the first circle's neighbours within 2·d_max, so

        q({i, j}) = w_merge · (1/n) · (1/k_i + 1/k_j)

    where k_i is i's neighbour count.  Evaluated on whatever state *post*
    currently holds (pre-move for a merge forward density, post-move for
    a split reverse density).
    """
    n = post.config.n
    if n < 2:
        return _NEG_INF
    xi, yi = post.config.position_of(i)
    xj, yj = post.config.position_of(j)
    reach = 2.0 * ctx.d_max
    k_i = len(post.config.neighbours_within(xi, yi, reach, exclude=i))
    k_j = len(post.config.neighbours_within(xj, yj, reach, exclude=j))
    if k_i == 0 or k_j == 0:
        # Should not happen (they are within reach of each other).
        return _NEG_INF
    return ctx.log_w(MoveType.MERGE) - math.log(n) + math.log(1.0 / k_i + 1.0 / k_j)


class MoveGenerator:
    """Draws one move per iteration according to the configured weights.

    Parameters
    ----------
    spec, move_config:
        Model and proposal parameters.
    mode:
        ``"full"`` — all seven move types at their configured weights
        (the conventional sequential sampler);
        ``"global"`` — only ``Mg`` moves, weights renormalised (the
        periodic sampler's global phases);
        ``"local"`` — only ``Ml`` moves, weights renormalised (the
        periodic sampler's partition phases).
    allowed_indices:
        In local mode, the fixed set of *modifiable* feature indices the
        phase may touch (see :mod:`repro.partitioning.classify`).
        ``None`` means all active circles are eligible.
    constraint:
        Optional ``(rect, margin)``: local proposals whose resulting
        disc inflated by *margin* leaves *rect* are auto-rejected — the
        paper's rule that "no feature may be created or moved such that
        any part of it (or its prior/likelihood considered area)
        intersects with its partition's boundary".
    """

    def __init__(
        self,
        spec: ModelSpec,
        move_config: MoveConfig,
        mode: str = "full",
        allowed_indices: Optional[Sequence[int]] = None,
        constraint: Optional[Tuple[Rect, float]] = None,
    ) -> None:
        if mode not in ("full", "global", "local"):
            raise ConfigurationError(f"unknown generator mode {mode!r}")
        self.spec = spec
        self.move_config = move_config
        self.mode = mode
        if mode == "full":
            weights = dict(move_config.weights)
        elif mode == "global":
            weights = move_config.global_weights()
        else:
            weights = move_config.local_weights()
        self._types: List[MoveType] = sorted(weights, key=lambda mt: mt.value)
        self._probs = np.array([weights[mt] for mt in self._types], dtype=float)
        self._probs /= self._probs.sum()
        self._cum = np.cumsum(self._probs)
        # Plain-list copy for the per-step type draw: bisect on a list
        # beats an np.searchsorted call on a 7-element array and selects
        # identically (tolist() round-trips float64 exactly).
        self._cum_list: List[float] = self._cum.tolist()
        log_weights = {
            mt: (math.log(w) if w > 0 else _NEG_INF) for mt, w in weights.items()
        }
        self.ctx = MoveContext(
            log_weights=log_weights,
            log_area=math.log(spec.area),
            d_max=move_config.split_max_separation,
        )
        self.allowed_indices = (
            None if allowed_indices is None else [int(i) for i in allowed_indices]
        )
        self.constraint = constraint
        if mode != "local" and (allowed_indices is not None or constraint is not None):
            raise ConfigurationError(
                "allowed_indices/constraint only make sense in local mode"
            )

    # -- type selection ----------------------------------------------------
    def _draw_type(self, stream: RngStream) -> MoveType:
        u = stream.random()
        return self._types[bisect.bisect_right(self._cum_list, u)]

    def _draw_index(self, post: PosteriorState, stream: RngStream) -> Optional[int]:
        """Uniformly select an eligible feature index, or None."""
        if self.allowed_indices is not None:
            if not self.allowed_indices:
                return None
            return self.allowed_indices[stream.integers(0, len(self.allowed_indices))]
        n = post.config.n
        if n == 0:
            return None
        # active_list() is the configuration's maintained ascending index
        # list — same selection as indexing np.flatnonzero(active), minus
        # the per-step O(capacity) scan and array allocation.
        idx = post.config.active_list()
        return idx[stream.integers(0, len(idx))]

    # -- proposal generation --------------------------------------------------
    def generate(self, post: PosteriorState, stream: RngStream) -> Move:
        """Generate one move proposal for the current state of *post*."""
        mt = self._draw_type(stream)
        if mt is MoveType.BIRTH:
            return self._gen_birth(post, stream)
        if mt is MoveType.DEATH:
            return self._gen_death(post, stream)
        if mt is MoveType.SPLIT:
            return self._gen_split(post, stream)
        if mt is MoveType.MERGE:
            return self._gen_merge(post, stream)
        if mt is MoveType.REPLACE:
            return self._gen_replace(post, stream)
        if mt is MoveType.TRANSLATE:
            return self._gen_translate(post, stream)
        return self._gen_resize(post, stream)

    def _gen_birth(self, post: PosteriorState, stream: RngStream) -> Move:
        b = post.bounds
        x = stream.uniform(b.x0, b.x1)
        y = stream.uniform(b.y0, b.y1)
        r = post.radius_prior.sample(stream)
        return BirthMove(x, y, r, self.ctx)

    def _gen_death(self, post: PosteriorState, stream: RngStream) -> Move:
        idx = self._draw_index(post, stream)
        if idx is None:
            return NullMove(MoveType.DEATH)
        return DeathMove(idx, self.ctx)

    def _gen_split(self, post: PosteriorState, stream: RngStream) -> Move:
        idx = self._draw_index(post, stream)
        if idx is None:
            return NullMove(MoveType.SPLIT)
        original = post.config.circle_at(idx)
        theta = stream.uniform(0.0, _TWO_PI)
        # d in (0, d_max]: draw u in [0,1) and invert so 0 is excluded.
        d = (1.0 - stream.random()) * self.ctx.d_max
        a = stream.uniform(1e-9, 1.0 - 1e-9)
        return SplitMove(idx, original, theta, d, a, self.ctx)

    def _gen_merge(self, post: PosteriorState, stream: RngStream) -> Move:
        if post.config.n < 2:
            return NullMove(MoveType.MERGE)
        i = self._draw_index(post, stream)
        if i is None:
            return NullMove(MoveType.MERGE)
        xi, yi = post.config.position_of(i)
        partners = post.config.neighbours_within(
            xi, yi, 2.0 * self.ctx.d_max, exclude=i
        )
        if not partners:
            return NullMove(MoveType.MERGE)
        j = partners[stream.integers(0, len(partners))]
        return MergeMove(i, j, post.config.circle_at(i), post.config.circle_at(j), self.ctx)

    def _gen_replace(self, post: PosteriorState, stream: RngStream) -> Move:
        idx = self._draw_index(post, stream)
        if idx is None:
            return NullMove(MoveType.REPLACE)
        b = post.bounds
        x = stream.uniform(b.x0, b.x1)
        y = stream.uniform(b.y0, b.y1)
        r = post.radius_prior.sample(stream)
        return ReplaceMove(idx, x, y, r, self.ctx)

    def _gen_translate(self, post: PosteriorState, stream: RngStream) -> Move:
        idx = self._draw_index(post, stream)
        if idx is None:
            return NullMove(MoveType.TRANSLATE)
        x, y = post.config.position_of(idx)
        # Uniform in a disc of radius translate_step (symmetric, bounded).
        rho = self.move_config.translate_step * math.sqrt(stream.random())
        phi = stream.uniform(0.0, _TWO_PI)
        return TranslateMove(
            idx, x + rho * math.cos(phi), y + rho * math.sin(phi), self.constraint
        )

    def _gen_resize(self, post: PosteriorState, stream: RngStream) -> Move:
        idx = self._draw_index(post, stream)
        if idx is None:
            return NullMove(MoveType.RESIZE)
        r = post.config.radius_of(idx)
        dr = stream.uniform(-self.move_config.resize_step, self.move_config.resize_step)
        return ResizeMove(idx, r + dr, self.constraint)
