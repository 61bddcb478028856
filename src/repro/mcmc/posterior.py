"""The mutable posterior state: configuration + coverage + cached log-posterior.

:class:`PosteriorState` binds together the circle configuration, the
coverage raster, the prior terms and the pixel likelihood, and exposes
four *primitive* mutations — insert, delete, move, resize — each of
which returns its exact log-posterior delta computed from only the
pixels and neighbour pairs it touches.

Moves (see :mod:`repro.mcmc.moves`) are compositions of these
primitives; rejected moves are rolled back with the inverse primitives
and the cached log-posterior is restored bit-exactly from a saved value
(never by re-adding a computed inverse, which could drift).

A posterior state may cover the full image (``row_offset = col_offset =
0``) or just a partition patch — partition workers evaluate local moves
against their own window without ever touching remote pixels, which is
the property that makes the paper's ``Ml`` phases parallelisable.

The overlap energy of the disc a move's first primitive removes (a
delete, or the old disc of a translate or resize) is cached per
geometry until the next commit: between commits only rejected moves
run, and they restore the configuration exactly.  The one thing a
rollback may not restore is the spatial hash's set iteration order, so
only energies with at most two overlapping partners — a sum whose value
does not depend on order — are cached.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ChainError
from repro.geometry.circle import Circle
from repro.geometry.rect import Rect
from repro.imaging.image import Image
from repro.mcmc.coverage import CoverageRaster
from repro.mcmc.likelihood import PixelLikelihood
from repro.mcmc.prior import CountPrior, OverlapPrior, PositionPrior, RadiusPrior
from repro.mcmc.spec import ModelSpec
from repro.mcmc.state import CircleConfiguration

__all__ = ["PosteriorState"]


class PosteriorState:
    """Configuration + incremental posterior over an image window.

    Parameters
    ----------
    image:
        The filtered image window this state evaluates against.
    spec:
        The model specification (priors, likelihood shape).  For
        partition patches, pass the *full-image* spec — the position
        prior normaliser and count prior must match the master chain.
    row_offset, col_offset:
        Window position within the full image.
    bounds:
        Rectangle constraining circle centres (defaults to the full
        image rectangle implied by *spec*).
    coverage:
        Optional scratch-warmed :class:`CoverageRaster` to adopt
        instead of constructing a fresh one — it is :meth:`~CoverageRaster.reset`
        to this window, so partition workers can reuse one raster (and
        its grown scratch buffers) across cycles.
    """

    def __init__(
        self,
        image: Image,
        spec: ModelSpec,
        row_offset: int = 0,
        col_offset: int = 0,
        bounds: Optional[Rect] = None,
        hash_cell_size: Optional[float] = None,
        coverage: Optional[CoverageRaster] = None,
    ) -> None:
        self.spec = spec
        self.image = image
        self.bounds = bounds if bounds is not None else Rect(
            0.0, 0.0, float(spec.width), float(spec.height)
        )
        cell = hash_cell_size if hash_cell_size is not None else max(
            8.0, 2.0 * spec.radius_max
        )
        self.config = CircleConfiguration(hash_cell_size=cell)
        if coverage is not None:
            coverage.reset(
                image.height, image.width, row_offset=row_offset, col_offset=col_offset
            )
            self.coverage = coverage
        else:
            self.coverage = CoverageRaster(
                image.height, image.width, row_offset=row_offset, col_offset=col_offset
            )
        self.likelihood = PixelLikelihood(
            image, spec, row_offset=row_offset, col_offset=col_offset
        )
        self.count_prior = CountPrior(spec.expected_count)
        self.position_prior = PositionPrior(spec)
        self.radius_prior = RadiusPrior(spec)
        self.overlap_prior = OverlapPrior(spec)
        self._log_post = self.count_prior.log_pmf(0) + self.likelihood.base_loglik
        #: log-posterior deltas of uncommitted trial primitives, one entry
        #: per primitive so commit replays the exact `+=` sequence the
        #: legacy apply path performed (bit-parity of the cached value).
        self._trial_deltas: List[float] = []
        #: overlap energy of removed disc geometries, valid until the
        #: configuration next changes for good (see the module notes).
        self._removal_energy: Dict[Tuple[float, float, float], float] = {}

    # -- cached posterior ------------------------------------------------------
    @property
    def log_posterior(self) -> float:
        """The incrementally maintained log-posterior (unnormalised)."""
        return self._log_post

    def set_log_posterior(self, value: float) -> None:
        """Restore a saved cached value (move rollback only)."""
        self._log_post = value

    def full_log_posterior(self) -> float:
        """Recompute the log-posterior from scratch (tests, verification)."""
        n = self.config.n
        total = self.count_prior.log_pmf(n)
        total += n * self.position_prior.per_circle()
        for i in self.config.active_indices():
            total += self.radius_prior.log_pdf(float(self.config.rs[i]))
        total += self.overlap_prior.total_energy(self.config)
        total += self.likelihood.full_loglik(self.coverage)
        return total

    def resync_cache(self) -> None:
        """Recompute and store the cached log-posterior (initialisation
        after bulk loading a configuration)."""
        self._log_post = self.full_log_posterior()

    # -- validity helpers --------------------------------------------------------
    def centre_in_bounds(self, x: float, y: float) -> bool:
        return self.bounds.contains_point(x, y)

    def radius_in_bounds(self, r: float) -> bool:
        return self.radius_prior.in_bounds(r)

    # -- primitive mutations -------------------------------------------------------
    def insert_circle(self, x: float, y: float, r: float) -> Tuple[int, float]:
        """Add a circle; returns (index, log-posterior delta).

        The caller must have validated bounds (centre inside ``bounds``,
        radius inside the prior's truncation) — violations raise.
        """
        self._removal_energy.clear()
        if not self.centre_in_bounds(x, y):
            raise ChainError(f"insert at ({x:.2f}, {y:.2f}) outside bounds {self.bounds}")
        if not self.radius_in_bounds(r):
            raise ChainError(f"insert with radius {r:.2f} outside prior bounds")
        n_before = self.config.n
        delta = self.count_prior.delta_birth(n_before)
        delta += self.position_prior.per_circle()
        delta += self.radius_prior.log_pdf(r)
        delta += self.overlap_prior.circle_energy(self.config, x, y, r)
        idx = self.config.add(x, y, r)
        delta += self.likelihood.add_disc_delta(self.coverage, x, y, r)
        self._log_post += delta
        return idx, delta

    def delete_circle(self, idx: int) -> Tuple[Circle, float]:
        """Remove circle *idx*; returns (removed circle, delta)."""
        self._removal_energy.clear()
        n_before = self.config.n
        removed = self.config.remove(idx)
        delta = self.count_prior.delta_death(n_before)
        delta -= self.position_prior.per_circle()
        delta -= self.radius_prior.log_pdf(removed.r)
        # Interaction energy with the remaining circles (idx already gone).
        delta -= self.overlap_prior.circle_energy(
            self.config, removed.x, removed.y, removed.r
        )
        delta += self.likelihood.remove_disc_delta(
            self.coverage, removed.x, removed.y, removed.r
        )
        self._log_post += delta
        return removed, delta

    def move_circle(self, idx: int, x: float, y: float) -> Tuple[Tuple[float, float], float]:
        """Translate circle *idx*; returns (old centre, delta)."""
        self._removal_energy.clear()
        if not self.centre_in_bounds(x, y):
            raise ChainError(f"move to ({x:.2f}, {y:.2f}) outside bounds {self.bounds}")
        r = self.config.radius_of(idx)
        ox, oy = self.config.position_of(idx)
        delta = -self.overlap_prior.circle_energy(self.config, ox, oy, r, exclude=(idx,))
        delta += self.likelihood.remove_disc_delta(self.coverage, ox, oy, r)
        self.config.move_center(idx, x, y)
        delta += self.overlap_prior.circle_energy(self.config, x, y, r, exclude=(idx,))
        delta += self.likelihood.add_disc_delta(self.coverage, x, y, r)
        self._log_post += delta
        return (ox, oy), delta

    def resize_circle(self, idx: int, r: float) -> Tuple[float, float]:
        """Change circle *idx*'s radius; returns (old radius, delta)."""
        self._removal_energy.clear()
        if not self.radius_in_bounds(r):
            raise ChainError(f"resize to {r:.2f} outside prior bounds")
        x, y = self.config.position_of(idx)
        old_r = self.config.radius_of(idx)
        delta = self.radius_prior.log_pdf(r) - self.radius_prior.log_pdf(old_r)
        delta -= self.overlap_prior.circle_energy(self.config, x, y, old_r, exclude=(idx,))
        delta += self.likelihood.remove_disc_delta(self.coverage, x, y, old_r)
        self.config.set_radius(idx, r)
        delta += self.overlap_prior.circle_energy(self.config, x, y, r, exclude=(idx,))
        delta += self.likelihood.add_disc_delta(self.coverage, x, y, r)
        self._log_post += delta
        return old_r, delta

    # -- trial primitives (price now, mutate coverage/posterior on commit) --------
    #
    # Each trial primitive mirrors its mutating counterpart line for
    # line: the configuration (and its spatial hash) is mutated in the
    # SAME order — so overlap-energy neighbour enumeration, free-list
    # slot recycling and merge-partner selection see bit-identical state
    # — while the coverage rasterisation is priced without touching
    # counts and the cached log-posterior is deferred to commit_trial().
    # A rejected move therefore skips the second rasterisation (and the
    # rollback energy queries) the legacy unapply path paid.

    def trial_insert_circle(self, x: float, y: float, r: float) -> Tuple[int, float]:
        """Price adding a circle; returns (index, log-posterior delta).

        The configuration is mutated (as :meth:`insert_circle` would);
        coverage counts and the cached posterior are not.
        """
        if not self.centre_in_bounds(x, y):
            raise ChainError(f"insert at ({x:.2f}, {y:.2f}) outside bounds {self.bounds}")
        if not self.radius_in_bounds(r):
            raise ChainError(f"insert with radius {r:.2f} outside prior bounds")
        n_before = self.config.n
        delta = self.count_prior.delta_birth(n_before)
        delta += self.position_prior.per_circle()
        delta += self.radius_prior.log_pdf(r)
        delta += self.overlap_prior.circle_energy(self.config, x, y, r)
        idx = self.config.add(x, y, r)
        delta += self.likelihood.trial_add_disc_delta(self.coverage, x, y, r)
        self._trial_deltas.append(delta)
        return idx, delta

    def trial_delete_circle(self, idx: int) -> Tuple[Circle, float]:
        """Price removing circle *idx*; returns (removed circle, delta)."""
        first = not self._trial_deltas
        n_before = self.config.n
        removed = self.config.remove(idx)
        delta = self.count_prior.delta_death(n_before)
        delta -= self.position_prior.per_circle()
        delta -= self.radius_prior.log_pdf(removed.r)
        delta -= self._overlap_energy(removed.x, removed.y, removed.r, (), first)
        delta += self.likelihood.trial_remove_disc_delta(
            self.coverage, removed.x, removed.y, removed.r
        )
        self._trial_deltas.append(delta)
        return removed, delta

    def trial_move_circle(
        self, idx: int, x: float, y: float
    ) -> Tuple[Tuple[float, float], float]:
        """Price translating circle *idx*; returns (old centre, delta)."""
        if not self.centre_in_bounds(x, y):
            raise ChainError(f"move to ({x:.2f}, {y:.2f}) outside bounds {self.bounds}")
        r = self.config.radius_of(idx)
        ox, oy = self.config.position_of(idx)
        delta = -self._overlap_energy(ox, oy, r, (idx,), not self._trial_deltas)
        delta += self.likelihood.trial_remove_disc_delta(self.coverage, ox, oy, r)
        self.config.move_center(idx, x, y)
        delta += self.overlap_prior.circle_energy(self.config, x, y, r, exclude=(idx,))
        delta += self.likelihood.trial_add_disc_delta(self.coverage, x, y, r)
        self._trial_deltas.append(delta)
        return (ox, oy), delta

    def trial_resize_circle(self, idx: int, r: float) -> Tuple[float, float]:
        """Price resizing circle *idx*; returns (old radius, delta)."""
        if not self.radius_in_bounds(r):
            raise ChainError(f"resize to {r:.2f} outside prior bounds")
        x, y = self.config.position_of(idx)
        old_r = self.config.radius_of(idx)
        delta = self.radius_prior.log_pdf(r) - self.radius_prior.log_pdf(old_r)
        delta -= self._overlap_energy(x, y, old_r, (idx,), not self._trial_deltas)
        delta += self.likelihood.trial_remove_disc_delta(self.coverage, x, y, old_r)
        self.config.set_radius(idx, r)
        delta += self.overlap_prior.circle_energy(self.config, x, y, r, exclude=(idx,))
        delta += self.likelihood.trial_add_disc_delta(self.coverage, x, y, r)
        self._trial_deltas.append(delta)
        return old_r, delta

    def _overlap_energy(
        self, x: float, y: float, r: float, exclude: Tuple[int, ...], first: bool
    ) -> float:
        """Overlap energy of a disc a trial primitive removes; served
        from the per-geometry cache when the primitive opens the move
        (*first*), since only then is the configuration the committed
        one the cached value was taken against."""
        if not first:
            return self.overlap_prior.circle_energy(self.config, x, y, r, exclude=exclude)
        key = (x, y, r)
        energy = self._removal_energy.get(key)
        if energy is None:
            energy, partners = self.overlap_prior.energy_and_partners(
                self.config, x, y, r, exclude
            )
            if partners <= 2:
                self._removal_energy[key] = energy
        return energy

    def commit_trial(self) -> None:
        """Finalise the pending trial primitives: apply the cached
        coverage masks and fold each primitive's delta into the cached
        posterior (same `+=` sequence as the legacy apply path)."""
        self._removal_energy.clear()
        self.coverage.commit_pending()
        for delta in self._trial_deltas:
            self._log_post += delta
        self._trial_deltas.clear()

    def discard_trial(self) -> None:
        """Drop the pending coverage masks and deltas (rejected move).
        The *configuration* rollback is the move's job — it replays the
        exact inverse config ops the legacy unapply performed."""
        self.coverage.discard_pending()
        self._trial_deltas.clear()

    # Config-only rollback helpers: the inverse configuration mutations
    # of the trial primitives, with the coverage/posterior work (already
    # skipped by the trial) omitted.  Op order matches legacy unapply.
    def rollback_insert(self, idx: int) -> None:
        self.config.remove(idx)

    def rollback_delete(self, circle: Circle) -> int:
        return self.config.add(circle.x, circle.y, circle.r)

    def rollback_move(self, idx: int, x: float, y: float) -> None:
        self.config.move_center(idx, x, y)

    def rollback_resize(self, idx: int, r: float) -> None:
        self.config.set_radius(idx, r)

    # -- bulk loading ---------------------------------------------------------------
    def load_circles(self, circles: Sequence[Circle]) -> List[int]:
        """Insert many circles and resync the cache; returns their indices.

        Unlike :meth:`insert_circle` this does not validate bounds pixel
        by pixel — it is used to seed initial states and to build
        partition-worker contexts that legitimately contain *frozen*
        circles whose discs cross the window edge.
        """
        self._removal_energy.clear()
        indices: List[int] = []
        for c in circles:
            idx = self.config.add(c.x, c.y, c.r)
            # Counts-only rasterisation: the per-disc weighted delta was
            # discarded here anyway, and resync_cache() recomputes the
            # posterior in full below.
            self.coverage.add_disc_counts_only(c.x, c.y, c.r)
            indices.append(idx)
        self.resync_cache()
        return indices

    def snapshot_circles(self) -> List[Circle]:
        """Immutable copy of the current configuration."""
        return self.config.circles()

    def verify_consistency(self, atol: float = 1e-6) -> None:
        """Assert the cached posterior matches a full recomputation
        (tests and long-run integrity checks).

        Also rebuilds the coverage raster from the configuration with
        ``debug_checks`` enabled and asserts the incremental counts
        match — the thorough form of the per-removal underflow guard
        the hot path no longer pays for.
        """
        if self.coverage.pending_count or self._trial_deltas:
            raise ChainError(
                "verify_consistency with uncommitted trial state: "
                f"{self.coverage.pending_count} pending coverage op(s), "
                f"{len(self._trial_deltas)} pending delta(s)"
            )
        h, w = self.coverage.shape
        rebuilt = CoverageRaster(
            h, w,
            row_offset=self.coverage.row_offset,
            col_offset=self.coverage.col_offset,
            debug_checks=True,
        )
        rebuilt.rebuild_from(*self.config.to_arrays())
        if not rebuilt.equals(self.coverage):
            raise ChainError(
                "incremental coverage counts deviate from a from-scratch "
                "rasterisation of the configuration"
            )
        full = self.full_log_posterior()
        if not np.isclose(self._log_post, full, atol=atol, rtol=1e-9):
            raise ChainError(
                f"cached log-posterior {self._log_post!r} deviates from "
                f"recomputed value {full!r}"
            )
