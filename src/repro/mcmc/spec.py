"""Model and move-set specification.

Two frozen dataclasses carry every tunable of the case-study model:

* :class:`ModelSpec` — the Bayesian model (priors + likelihood shape).
* :class:`MoveConfig` — proposal mechanics (move weights, step sizes).

Both are plain picklable values so partition workers can be handed the
complete problem description in one message (cf. the mpi4py guidance on
communicating small picklable objects and large arrays separately).

The split of the move set into global and local moves (§V of the paper)
is encoded here once — `LOCAL_MOVES` / `GLOBAL_MOVES` — and every other
component (phase scheduling, partition runners, theory model) derives
from it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Mapping

from repro.errors import ConfigurationError

__all__ = [
    "MoveType",
    "LOCAL_MOVES",
    "GLOBAL_MOVES",
    "ModelSpec",
    "MoveConfig",
]


class MoveType(enum.Enum):
    """The seven move types of the case study (§III)."""

    BIRTH = "birth"
    DEATH = "death"
    SPLIT = "split"
    MERGE = "merge"
    REPLACE = "replace"
    TRANSLATE = "translate"
    RESIZE = "resize"


#: Moves whose impact is spatially local and that leave "global" model
#: properties (the feature count) unchanged — the paper's ``Ml``.
LOCAL_MOVES: FrozenSet[MoveType] = frozenset({MoveType.TRANSLATE, MoveType.RESIZE})

#: Moves that alter global properties or range over the whole image —
#: the paper's ``Mg`` = {add, delete, merge, split, replace}.
GLOBAL_MOVES: FrozenSet[MoveType] = frozenset(
    {MoveType.BIRTH, MoveType.DEATH, MoveType.SPLIT, MoveType.MERGE, MoveType.REPLACE}
)


@dataclass(frozen=True)
class ModelSpec:
    """The Bayesian model for circle detection.

    Attributes
    ----------
    width, height:
        Image dimensions (pixels); the position prior is uniform over
        this rectangle.
    expected_count:
        λ of the Poisson prior on the number of circles.  For
        partitioned runs this is re-estimated per partition with
        eq. (5) (see :mod:`repro.imaging.density`).
    radius_mean, radius_std:
        Gaussian radius prior (truncated to [radius_min, radius_max]).
    radius_min, radius_max:
        Hard radius bounds.  ``radius_max`` also bounds the overlap
        interaction range used in partition-safety margins.
    overlap_gamma:
        Strength of the pairwise overlap penalty
        ``-overlap_gamma * lens_area(i, j)`` (per unit area).
    likelihood_beta:
        Inverse noise scale of the Gaussian pixel likelihood
        ``-beta * Σ (I_p - M_p)²``.
    foreground, background:
        Model intensities rendered for covered / uncovered pixels.
    """

    width: int
    height: int
    expected_count: float
    radius_mean: float = 10.0
    radius_std: float = 1.5
    radius_min: float = 2.0
    radius_max: float = 20.0
    overlap_gamma: float = 0.5
    likelihood_beta: float = 4.0
    foreground: float = 0.9
    background: float = 0.05

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ConfigurationError(
                f"model dimensions must be positive, got {self.width}x{self.height}"
            )
        if self.expected_count <= 0:
            raise ConfigurationError(
                f"expected_count must be positive, got {self.expected_count}"
            )
        if not (0 < self.radius_min <= self.radius_mean <= self.radius_max):
            raise ConfigurationError(
                "need 0 < radius_min <= radius_mean <= radius_max, got "
                f"{self.radius_min}, {self.radius_mean}, {self.radius_max}"
            )
        if self.radius_std <= 0:
            raise ConfigurationError(f"radius_std must be positive, got {self.radius_std}")
        if self.overlap_gamma < 0 or self.likelihood_beta <= 0:
            raise ConfigurationError(
                "overlap_gamma must be >= 0 and likelihood_beta > 0, got "
                f"{self.overlap_gamma}, {self.likelihood_beta}"
            )
        if not (0.0 <= self.background < self.foreground <= 1.0):
            raise ConfigurationError(
                f"need 0 <= background < foreground <= 1, got "
                f"{self.background}, {self.foreground}"
            )

    @property
    def area(self) -> float:
        """Image area — the normaliser of the uniform position prior."""
        return float(self.width * self.height)

    def with_expected_count(self, expected_count: float) -> "ModelSpec":
        """Copy with a new Poisson mean (per-partition re-estimation)."""
        return replace(self, expected_count=expected_count)

    def with_bounds(self, width: int, height: int) -> "ModelSpec":
        """Copy resized to a sub-image (intelligent/blind partitioning)."""
        return replace(self, width=width, height=height)


@dataclass(frozen=True)
class MoveConfig:
    """Proposal mechanics.

    Attributes
    ----------
    weights:
        Relative proposal weights per :class:`MoveType`.  The paper's
        experiment uses 60 % local moves (``qg = 0.4``).
    translate_step:
        Max displacement of a translate proposal (uniform in a disc of
        this radius — bounded so partition-safety margins are exact).
    resize_step:
        Max radius change of a resize proposal (uniform in ±step).
    split_max_separation:
        Max half-separation *d* of a split; merge partners must lie
        within ``2 * split_max_separation`` of each other.
    """

    weights: Mapping[MoveType, float] = field(
        default_factory=lambda: {
            MoveType.BIRTH: 0.10,
            MoveType.DEATH: 0.10,
            MoveType.SPLIT: 0.06,
            MoveType.MERGE: 0.06,
            MoveType.REPLACE: 0.08,
            MoveType.TRANSLATE: 0.30,
            MoveType.RESIZE: 0.30,
        }
    )
    translate_step: float = 3.0
    resize_step: float = 1.5
    split_max_separation: float = 12.0

    def __post_init__(self) -> None:
        w = dict(self.weights)
        for mt in MoveType:
            if mt not in w:
                raise ConfigurationError(f"missing weight for move type {mt.value}")
            if w[mt] < 0 or not math.isfinite(w[mt]):
                raise ConfigurationError(
                    f"weight for {mt.value} must be finite and >= 0, got {w[mt]}"
                )
        total = sum(w.values())
        if total <= 0:
            raise ConfigurationError("move weights must sum to a positive value")
        object.__setattr__(self, "weights", {mt: w[mt] / total for mt in MoveType})
        if self.translate_step <= 0 or self.resize_step <= 0:
            raise ConfigurationError("translate_step and resize_step must be positive")
        if self.split_max_separation <= 0:
            raise ConfigurationError("split_max_separation must be positive")

    # -- derived quantities --------------------------------------------------
    @property
    def qg(self) -> float:
        """Probability that an arbitrary move is global — the paper's ``qg``."""
        return sum(self.weights[mt] for mt in GLOBAL_MOVES)

    @property
    def ql(self) -> float:
        """Probability that an arbitrary move is local (= 1 - qg)."""
        return sum(self.weights[mt] for mt in LOCAL_MOVES)

    def local_weights(self) -> Dict[MoveType, float]:
        """Weights renormalised over the local move set (``Ml`` phases)."""
        total = self.ql
        if total <= 0:
            raise ConfigurationError("move config has no local moves")
        return {mt: self.weights[mt] / total for mt in LOCAL_MOVES}

    def global_weights(self) -> Dict[MoveType, float]:
        """Weights renormalised over the global move set (``Mg`` phases)."""
        total = self.qg
        if total <= 0:
            raise ConfigurationError("move config has no global moves")
        return {mt: self.weights[mt] / total for mt in GLOBAL_MOVES}

    def local_reach(self, spec: ModelSpec) -> float:
        """Worst-case spatial reach of one local move.

        A feature at (x, y, r) subjected to a local move can influence
        prior/likelihood terms only within
        ``r + translate_step + resize_step + radius_max + 1`` of its
        centre (displacement + growth + overlap partner radius + one
        pixel of raster slack).  Features whose disc inflated by this
        margin stays inside a partition are safe to modify concurrently
        with any move in another partition (§V's "sufficiently distant"
        made precise): every prior and likelihood term such a move can
        change lies within this margin, so no term is shared with a
        feature modified in another partition.
        ``tests/partitioning/test_classify.py`` checks it numerically.
        """
        return self.translate_step + self.resize_step + spec.radius_max + 1.0

    def with_qg(self, qg: float) -> "MoveConfig":
        """Copy rescaled so the global-move probability equals *qg*.

        Keeps relative weights within each class; used by benchmarks to
        sweep the ``qg`` axis of Fig. 1.
        """
        if not (0.0 < qg < 1.0):
            raise ConfigurationError(f"qg must be in (0, 1), got {qg}")
        cur_g, cur_l = self.qg, self.ql
        if cur_g <= 0 or cur_l <= 0:
            raise ConfigurationError("cannot rescale a config missing a move class")
        w = {
            mt: (self.weights[mt] / cur_g * qg if mt in GLOBAL_MOVES
                 else self.weights[mt] / cur_l * (1.0 - qg))
            for mt in MoveType
        }
        return replace(self, weights=w)
