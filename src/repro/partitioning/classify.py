"""Feature classification for a local-move phase (§V).

Given a partition grid and the current configuration, decide per
partition which features are *modifiable* — safe to mutate concurrently
with anything happening in other partitions — and which must be
*frozen* but visible as read-only context.

The safety rule (made precise in
:meth:`repro.mcmc.spec.MoveConfig.local_reach`): a feature is
modifiable within partition P iff its disc inflated by the local-move
reach lies inside P.  Every term a local move of it can change then
lies inside P, so no concurrent move in another partition shares one;
``tests/partitioning/test_classify.py`` checks this numerically.
Context features are all circles whose disc intersects P at all — the
partition worker needs them to build its coverage raster and to price
overlap interactions correctly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple


from repro.errors import PartitioningError
from repro.geometry.rect import Rect
from repro.mcmc.spec import ModelSpec, MoveConfig
from repro.mcmc.state import CircleConfiguration

__all__ = ["PartitionContext", "PartitionPlan", "classify_features"]


@dataclass(frozen=True)
class PartitionContext:
    """One partition's worth of work for a local phase."""

    rect: Rect
    #: indices (into the master configuration) the worker may modify
    modifiable: Tuple[int, ...] = ()
    #: indices whose discs intersect the partition (superset of modifiable)
    context: Tuple[int, ...] = ()

    @property
    def n_modifiable(self) -> int:
        return len(self.modifiable)

    @property
    def frozen(self) -> Tuple[int, ...]:
        mod = set(self.modifiable)
        return tuple(i for i in self.context if i not in mod)


@dataclass(frozen=True)
class PartitionPlan:
    """Classification of every feature against a partition grid."""

    margin: float
    partitions: Tuple[PartitionContext, ...]

    def __len__(self) -> int:
        return len(self.partitions)

    def total_modifiable(self) -> int:
        return sum(p.n_modifiable for p in self.partitions)

    def modifiable_counts(self) -> List[int]:
        return [p.n_modifiable for p in self.partitions]

    def verify_disjoint(self) -> None:
        """No feature may be modifiable in two partitions (tests)."""
        seen = set()
        for p in self.partitions:
            for i in p.modifiable:
                if i in seen:
                    raise PartitioningError(
                        f"feature {i} modifiable in more than one partition"
                    )
                seen.add(i)


def classify_features(
    config: CircleConfiguration,
    cells: Sequence[Rect],
    spec: ModelSpec,
    move_config: MoveConfig,
) -> PartitionPlan:
    """Classify every active circle against every partition cell.

    Returns a :class:`PartitionPlan` whose contexts reference master
    configuration indices.  Features too close to any boundary are
    modifiable nowhere (they wait for a later phase, when the freshly
    randomised grid offsets will very likely clear them — the paper's
    argument for re-drawing offsets each cycle).
    """
    margin = move_config.local_reach(spec)
    contexts: List[PartitionContext] = []
    indices = [int(i) for i in config.active_indices()]
    for rect in cells:
        modifiable: List[int] = []
        context: List[int] = []
        for i in indices:
            x = float(config.xs[i])
            y = float(config.ys[i])
            r = float(config.rs[i])
            if rect.intersects_circle(x, y, r):
                context.append(i)
                if rect.contains_circle(x, y, r, margin):
                    modifiable.append(i)
        contexts.append(
            PartitionContext(
                rect=rect, modifiable=tuple(modifiable), context=tuple(context)
            )
        )
    plan = PartitionPlan(margin=margin, partitions=tuple(contexts))
    return plan
