"""Prior terms of the posterior.

Four independent pieces (§III: "the distribution and size of the nuclei
and the degree to which overlap is tolerated"):

* :class:`CountPrior` — Poisson on the number of circles, with the mean
  supplied by prior knowledge or eq. (5)'s density estimate.
* :class:`PositionPrior` — uniform over the image rectangle.  Constant
  per circle but *not* ignorable: it enters every dimension-changing
  acceptance ratio.
* :class:`RadiusPrior` — truncated Gaussian on each radius.
* :class:`OverlapPrior` — pairwise penalty proportional to the lens
  area of intersecting discs.

Every class exposes log-densities and the *deltas* the kernel actually
consumes, so full posterior evaluation only happens in tests.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple


from repro.errors import ConfigurationError
from repro.geometry.overlap import circle_circle_overlap_area
from repro.mcmc.spec import ModelSpec
from repro.mcmc.state import CircleConfiguration
from repro.utils.rng import RngStream

__all__ = ["CountPrior", "PositionPrior", "RadiusPrior", "OverlapPrior"]

_NEG_INF = float("-inf")
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


class CountPrior:
    """Poisson prior on the number of circles."""

    __slots__ = ("lam", "_log_lam")

    def __init__(self, expected_count: float) -> None:
        if expected_count <= 0:
            raise ConfigurationError(
                f"expected_count must be positive, got {expected_count}"
            )
        self.lam = float(expected_count)
        self._log_lam = math.log(self.lam)

    def log_pmf(self, n: int) -> float:
        """log P(N = n) for the Poisson(λ)."""
        if n < 0:
            return _NEG_INF
        return n * self._log_lam - self.lam - math.lgamma(n + 1)

    def delta_birth(self, n_before: int) -> float:
        """log P(n+1) - log P(n)."""
        return self._log_lam - math.log(n_before + 1)

    def delta_death(self, n_before: int) -> float:
        """log P(n-1) - log P(n); -inf if the state has no circles."""
        if n_before <= 0:
            return _NEG_INF
        return math.log(n_before) - self._log_lam


class PositionPrior:
    """Uniform position prior over the image rectangle."""

    __slots__ = ("log_density",)

    def __init__(self, spec: ModelSpec) -> None:
        self.log_density = -math.log(spec.area)

    def per_circle(self) -> float:
        """log-density contribution of one circle's position."""
        return self.log_density


class RadiusPrior:
    """Gaussian radius prior truncated to [radius_min, radius_max]."""

    __slots__ = ("mean", "std", "rmin", "rmax", "_log_norm")

    def __init__(self, spec: ModelSpec) -> None:
        self.mean = spec.radius_mean
        self.std = spec.radius_std
        self.rmin = spec.radius_min
        self.rmax = spec.radius_max
        z_hi = _phi((self.rmax - self.mean) / self.std)
        z_lo = _phi((self.rmin - self.mean) / self.std)
        mass = z_hi - z_lo
        if mass <= 0:
            raise ConfigurationError(
                f"radius prior has no mass in [{self.rmin}, {self.rmax}]"
            )
        self._log_norm = math.log(self.std) + _LOG_SQRT_2PI + math.log(mass)

    def log_pdf(self, r: float) -> float:
        """Truncated-normal log-density; -inf outside the bounds."""
        if not (self.rmin <= r <= self.rmax):
            return _NEG_INF
        z = (r - self.mean) / self.std
        return -0.5 * z * z - self._log_norm

    def in_bounds(self, r: float) -> bool:
        return self.rmin <= r <= self.rmax

    def sample(self, stream: RngStream) -> float:
        """Draw from the truncated normal by rejection (fast for the
        narrow truncations used here)."""
        for _ in range(10000):
            r = stream.normal(self.mean, self.std)
            if self.rmin <= r <= self.rmax:
                return r
        # Essentially impossible unless the spec is pathological.
        return min(max(self.mean, self.rmin), self.rmax)


class OverlapPrior:
    """Pairwise overlap penalty: -gamma * Σ_{i<j} lens_area(i, j).

    The interaction is strictly local: a circle only interacts with
    circles whose centres lie within ``r + radius_max`` of its own, so
    deltas are evaluated from a spatial-hash neighbourhood query.
    """

    __slots__ = ("gamma", "rmax")

    def __init__(self, spec: ModelSpec) -> None:
        self.gamma = spec.overlap_gamma
        self.rmax = spec.radius_max

    def circle_energy(
        self,
        config: CircleConfiguration,
        x: float,
        y: float,
        r: float,
        exclude: Sequence[int] = (),
    ) -> float:
        """Interaction energy between disc (x, y, r) and the configuration.

        *exclude* lists indices not to pair with (the circle itself
        during a translate/resize evaluation, or a merge partner).

        Neighbourhoods are a handful of circles, where scalar ``math``
        beats per-call numpy ufunc dispatch by an order of magnitude —
        this is the single hottest prior call of the chain kernel.
        """
        return self.energy_and_partners(config, x, y, r, exclude)[0]

    def energy_and_partners(
        self,
        config: CircleConfiguration,
        x: float,
        y: float,
        r: float,
        exclude: Sequence[int] = (),
    ) -> Tuple[float, int]:
        """:meth:`circle_energy` and the number of neighbours whose
        overlap with the disc is nonzero.

        The neighbours come in spatial-hash set order, which depends on
        insertion history; a sum of at most two nonzero terms is the
        same float in any order, so the posterior only reuses an energy
        with ``partners <= 2``.
        """
        if self.gamma == 0.0:
            return 0.0, 0
        candidates = config.neighbours_within(x, y, r + self.rmax)
        if not candidates:
            return 0.0, 0
        xs, ys, rs = config.xs, config.ys, config.rs
        total = 0.0
        partners = 0
        # exclude is a 0-2 element tuple in the hot path: plain
        # membership beats building a set per call.
        for i in candidates:
            if i in exclude:
                continue
            area = circle_circle_overlap_area(
                x, y, r, float(xs[i]), float(ys[i]), float(rs[i])
            )
            # Skipping a zero term is exact: x + 0.0 == x for every x
            # but -0.0, which a total starting at +0.0 never becomes.
            if area:
                total += area
                partners += 1
        return -self.gamma * total, partners

    def pair_energy(
        self, x0: float, y0: float, r0: float, x1: float, y1: float, r1: float
    ) -> float:
        """Interaction energy of one specific pair."""
        if self.gamma == 0.0:
            return 0.0
        return -self.gamma * circle_circle_overlap_area(x0, y0, r0, x1, y1, r1)

    def total_energy(self, config: CircleConfiguration) -> float:
        """Σ over all unordered pairs (full evaluation, tests only)."""
        if self.gamma == 0.0:
            return 0.0
        total = 0.0
        indices = [int(i) for i in config.active_indices()]
        for pos, i in enumerate(indices):
            xi, yi, ri = float(config.xs[i]), float(config.ys[i]), float(config.rs[i])
            for j in indices[pos + 1 :]:
                total += self.pair_energy(
                    xi, yi, ri, float(config.xs[j]), float(config.ys[j]), float(config.rs[j])
                )
        return total


def _phi(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
