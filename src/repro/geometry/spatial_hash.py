"""A uniform-grid spatial hash for dynamic circle sets.

The overlap prior and the merge/split move generators repeatedly ask
"which circles lie within distance *d* of this point?".  With up to a
few hundred artifacts a linear scan is affordable, but the paper's
motivation is *large* images ("the time per iteration can increase
exponentially with the number [of] artifacts"), so neighbour queries are
the scaling bottleneck we must not ignore.  A uniform bucket grid gives
O(1) expected insert/remove/query for the near-uniform artifact layouts
of the case study.

The hash stores integer item ids (row indices into the configuration's
structure-of-arrays storage); geometry is passed in explicitly so the
hash never holds stale coordinates.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Set, Tuple

from repro.errors import GeometryError

__all__ = ["SpatialHash"]


class SpatialHash:
    """Uniform-grid spatial index over point-like items.

    Parameters
    ----------
    cell_size:
        Bucket edge length.  Pick roughly the interaction diameter
        (e.g. ``2 * (r_max + interaction_margin)``) so queries touch a
        3×3 neighbourhood of buckets.
    """

    def __init__(self, cell_size: float) -> None:
        if not (cell_size > 0 and math.isfinite(cell_size)):
            raise GeometryError(f"cell_size must be positive, got {cell_size}")
        self.cell_size = float(cell_size)
        self._buckets: Dict[Tuple[int, int], Set[int]] = {}
        self._positions: Dict[int, Tuple[float, float]] = {}

    # -- bucket arithmetic -------------------------------------------------
    def _key(self, x: float, y: float) -> Tuple[int, int]:
        return (int(math.floor(x / self.cell_size)), int(math.floor(y / self.cell_size)))

    # -- mutation ------------------------------------------------------------
    def insert(self, item: int, x: float, y: float) -> None:
        """Add *item* at (x, y).  Re-inserting an existing id is an error."""
        if item in self._positions:
            raise GeometryError(f"item {item} already in spatial hash")
        key = self._key(x, y)
        self._buckets.setdefault(key, set()).add(item)
        self._positions[item] = (x, y)

    def remove(self, item: int) -> None:
        """Remove *item*; unknown ids are an error."""
        try:
            x, y = self._positions.pop(item)
        except KeyError:
            raise GeometryError(f"item {item} not in spatial hash") from None
        key = self._key(x, y)
        bucket = self._buckets[key]
        bucket.discard(item)
        if not bucket:
            del self._buckets[key]

    def move(self, item: int, x: float, y: float) -> None:
        """Update *item*'s position (bucket transfer only when needed)."""
        try:
            ox, oy = self._positions[item]
        except KeyError:
            raise GeometryError(f"item {item} not in spatial hash") from None
        old_key = self._key(ox, oy)
        new_key = self._key(x, y)
        if old_key != new_key:
            bucket = self._buckets[old_key]
            bucket.discard(item)
            if not bucket:
                del self._buckets[old_key]
            self._buckets.setdefault(new_key, set()).add(item)
        self._positions[item] = (x, y)

    def clear(self) -> None:
        self._buckets.clear()
        self._positions.clear()

    # -- queries ---------------------------------------------------------------
    def query_disc(self, x: float, y: float, radius: float) -> List[int]:
        """Ids of items within Euclidean distance *radius* of (x, y)."""
        if radius < 0:
            raise GeometryError(f"query radius must be >= 0, got {radius}")
        # _key() inlined: this is the overlap prior's per-move query.
        cell = self.cell_size
        floor = math.floor
        kx0 = int(floor((x - radius) / cell))
        ky0 = int(floor((y - radius) / cell))
        kx1 = int(floor((x + radius) / cell))
        ky1 = int(floor((y + radius) / cell))
        r2 = radius * radius
        out: List[int] = []
        for kx in range(kx0, kx1 + 1):
            for ky in range(ky0, ky1 + 1):
                bucket = self._buckets.get((kx, ky))
                if not bucket:
                    continue
                for item in bucket:
                    px, py = self._positions[item]
                    dx, dy = px - x, py - y
                    if dx * dx + dy * dy <= r2:
                        out.append(item)
        return out

    def query_rect(self, x0: float, y0: float, x1: float, y1: float) -> List[int]:
        """Ids of items with position in the half-open rect [x0,x1)×[y0,y1)."""
        kx0, ky0 = self._key(x0, y0)
        kx1, ky1 = self._key(x1, y1)
        out: List[int] = []
        for kx in range(kx0, kx1 + 1):
            for ky in range(ky0, ky1 + 1):
                bucket = self._buckets.get((kx, ky))
                if not bucket:
                    continue
                for item in bucket:
                    px, py = self._positions[item]
                    if x0 <= px < x1 and y0 <= py < y1:
                        out.append(item)
        return out

    def nearest_within(self, x: float, y: float, radius: float, exclude: int = -1):
        """The closest item within *radius* of (x, y), or ``None``.

        Used by the merge move generator to find a partner for a randomly
        selected circle.
        """
        best_item = None
        best_d2 = radius * radius
        for item in self.query_disc(x, y, radius):
            if item == exclude:
                continue
            px, py = self._positions[item]
            dx, dy = px - x, py - y
            d2 = dx * dx + dy * dy
            if d2 <= best_d2:
                best_d2 = d2
                best_item = item
        return best_item

    # -- introspection ------------------------------------------------------
    def __len__(self) -> int:
        return len(self._positions)

    def __contains__(self, item: int) -> bool:
        return item in self._positions

    def position_of(self, item: int) -> Tuple[float, float]:
        return self._positions[item]

    def items(self) -> Iterable[int]:
        return self._positions.keys()

    def bucket_count(self) -> int:
        """Number of non-empty buckets (for tests / diagnostics)."""
        return len(self._buckets)
