"""Deterministic random-number stream management.

MCMC experiments must be reproducible run-to-run and — crucially for the
parallel samplers in :mod:`repro.core` — each partition worker needs its
own statistically independent stream that does not depend on scheduling
order.  We build on numpy's ``SeedSequence`` spawning, which provides
exactly this guarantee.

Example
-------
>>> root = RngStream(seed=42)
>>> children = root.spawn(4)          # independent streams per partition
>>> x = children[0].rng.random()
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

__all__ = ["RngStream", "spawn_streams", "as_generator", "coerce_stream"]

SeedLike = Union[int, np.random.SeedSequence, "RngStream", np.random.Generator, None]


@dataclass
class RngStream:
    """A seedable, spawnable random stream.

    Wraps a ``numpy.random.Generator`` together with the ``SeedSequence``
    that produced it, so that child streams can be spawned deterministically.

    Parameters
    ----------
    seed:
        Integer seed, an existing ``SeedSequence``, or ``None`` for
        OS-entropy seeding (non-reproducible; only for interactive use).
    """

    seed: Optional[Union[int, np.random.SeedSequence]] = None
    _seq: np.random.SeedSequence = field(init=False, repr=False)
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if isinstance(self.seed, np.random.SeedSequence):
            self._seq = self.seed
        else:
            self._seq = np.random.SeedSequence(self.seed)
        self._rng = np.random.Generator(np.random.PCG64(self._seq))

    @property
    def rng(self) -> np.random.Generator:
        """The underlying numpy generator."""
        return self._rng

    def spawn(self, n: int) -> List["RngStream"]:
        """Create *n* independent child streams.

        Spawning is deterministic given the parent's seed and the order of
        spawn calls, and children are independent of each other and of the
        parent's future output.
        """
        if n < 0:
            raise ValueError(f"cannot spawn {n} streams")
        return [RngStream(seed=s) for s in self._seq.spawn(n)]

    def spawn_one(self) -> "RngStream":
        """Convenience: spawn a single child stream."""
        return self.spawn(1)[0]

    @property
    def entropy(self) -> object:
        """The entropy of the underlying seed sequence (for logging)."""
        return self._seq.entropy

    # -- convenience proxies used pervasively in the samplers ------------
    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return float(self._rng.random())

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high).

        The same draw and float as ``Generator.uniform(low, high)``
        (``low + (high - low) * next_double``, with its range checks),
        without the per-call array conversion."""
        low = float(low)
        span = float(high) - low
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if math.copysign(1.0, span) < 0.0:  # numpy's sign-bit test: -0.0 fails too
            raise ValueError("high - low < 0")
        return low + span * self._rng.random()

    def normal(self, loc: float = 0.0, scale: float = 1.0) -> float:
        """Gaussian sample."""
        return float(self._rng.normal(loc, scale))

    def integers(self, low: int, high: int) -> int:
        """Uniform integer in [low, high)."""
        return int(self._rng.integers(low, high))

    def choice_index(self, weights: Sequence[float]) -> int:
        """Sample an index proportionally to non-negative *weights*."""
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-D sequence")
        total = w.sum()
        if not np.isfinite(total) or total <= 0:
            raise ValueError("weights must sum to a positive finite value")
        return int(self._rng.choice(w.size, p=w / total))


def spawn_streams(seed: SeedLike, n: int) -> List[RngStream]:
    """Spawn *n* independent :class:`RngStream` objects from *seed*."""
    return _coerce(seed).spawn(n)


def as_generator(seed: SeedLike) -> np.random.Generator:
    """Coerce *seed* to a ``numpy.random.Generator``."""
    if isinstance(seed, np.random.Generator):
        return seed
    return _coerce(seed).rng


def coerce_stream(seed: SeedLike) -> RngStream:
    """Coerce *seed* (int / SeedSequence / RngStream / Generator / None)
    to an :class:`RngStream`."""
    return _coerce(seed)


def _coerce(seed: SeedLike) -> RngStream:
    if isinstance(seed, RngStream):
        return seed
    if isinstance(seed, np.random.Generator):
        # Derive a child seed from the generator itself; reproducible only
        # relative to the generator's current state.
        return RngStream(seed=int(seed.integers(0, 2**63 - 1)))
    return RngStream(seed=seed)
