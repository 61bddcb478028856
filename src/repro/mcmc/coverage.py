"""Incremental disc-coverage raster.

The pixel likelihood needs ``M(p)`` — foreground where at least one
circle covers pixel *p*, background elsewhere.  Recomputing that from
scratch per iteration would cost O(image); instead we maintain an
integer *coverage count* per pixel (how many discs cover it) and update
it per move in O(disc area).  The likelihood delta of a move is then a
sum of a precomputed per-pixel weight over exactly the pixels whose
coverage crossed the 0 ↔ >0 boundary.

This locality is the linchpin of the whole paper: because a local move's
delta only reads pixels inside the move's disc, moves in sufficiently
distant partitions are independent and may run concurrently (§V).

A pixel is *covered* by a disc iff its centre ``(col + 0.5, row + 0.5)``
lies within the disc (hard-edge model, matching the renderer up to
anti-aliasing noise absorbed by the likelihood's noise scale).

Two evaluation paths share the raster:

* The *legacy* path (:meth:`add_disc` / :meth:`remove_disc`) mutates
  ``counts`` immediately and returns the weighted delta — the pre-trial
  kernel's protocol, kept verbatim (including its per-call ``np.arange``
  temporaries) so it stays a faithful benchmark baseline and a
  bit-exact reference for the parity suite.
* The *trial* path (:meth:`trial_add_disc` / :meth:`trial_remove_disc`
  + :meth:`commit_pending` / :meth:`discard_pending`) prices the same
  delta without touching ``counts``: the disc mask is computed into
  per-raster scratch buffers (precomputed pixel-centre grids, reused
  mask/square/count windows) so steady-state stepping performs no
  window-sized temporary allocations beyond the single weight gather,
  and a rejected proposal costs one rasterisation instead of two.

The trial delta is bit-identical to the legacy one: the mask arithmetic
is element-for-element the same operations, and the weight sum is taken
over the same boolean-compressed value sequence (numpy's pairwise
summation order depends on the compressed length, so the gather cannot
be fused into a masked reduction without changing last-ulp rounding —
bit-parity wins over the last allocation).

Removal cache
-------------
At the chain's 1–4 % acceptance rate the same circle's removal is
priced again and again against counts that have not changed since the
last commit.  :meth:`trial_remove_disc` therefore keeps one
:class:`_RemovalEntry` per removed disc geometry ``(x, y, r)``:

* the disc's window bounds and mask, and the distance² grid over that
  window grown by :data:`_GROW` pixels on every side — valid for as long
  as the geometry matches;
* the vacated-weight sum and the post-removal counts over the grown
  window — valid until a commit touches the grown window.

A removal that opens a move (no ops pending) returns the cached sum; a
later removal in the same move reuses only the mask.  The add of the
same move reads its counts as a zero-copy view of the post-removal
window, and a resize's add at the same centre is one ``<=`` against the
cached grid instead of a new window; an add that leaves the grown
window takes the ordinary path.  Committing any op clears the sum and
post-removal window of every entry whose grown window it touches, and
committing a removal evicts that geometry's entry, so the cache holds
at most one entry per live disc geometry.  ``reset``, ``rebuild_from``
and the counts-only and legacy mutators invalidate the same way.
Evicted entries keep their buffers for reuse, and the cache is derived
state that pickling drops.

Every served value is bit-identical to a fresh computation: the grid
holds the same elementwise ``(col − lx)² + (row − ly)²`` floats the
window would compute, a cached sum is only served while the counts under
its window are exactly those it was taken against (gathered in the same
pixel order), and the post-removal window is the same integer counts
the pending overlay would produce.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ChainError
from repro.geometry.rect import Rect

__all__ = ["CoverageRaster"]

#: Pixels the removal cache's distance² grid extends past the removed
#: disc's window on each side: the add of a translate (default step 3)
#: or resize (default step 1.5) lands inside it.
_GROW = 4


class _PendingOp:
    """One uncommitted trial rasterisation: a disc mask over a window.

    ``mask`` is a view into one of the raster's pooled mask buffers, or
    into a removal-cache entry's own mask — it stays valid until the op
    is committed or discarded (the kernel's trial protocol resolves
    every trial before starting the next one).  ``entry`` is the
    removal-cache entry of a removal op, ``None`` otherwise.
    """

    __slots__ = ("row0", "row1", "col0", "col1", "mask", "sign", "entry")

    def __init__(self, row0, row1, col0, col1, mask, sign, entry=None) -> None:
        self.row0 = row0
        self.row1 = row1
        self.col0 = col0
        self.col1 = col1
        self.mask = mask
        self.sign = sign
        self.entry = entry


class _RemovalEntry:
    """The cached removal of one disc geometry (see the module notes).

    ``row0:row1, col0:col1`` is the disc window and ``mask`` its disc;
    ``grow_*`` bound the grown window that ``grid`` (distance² to the
    disc centre) and ``post`` (counts with the disc removed) cover.
    ``vacated`` is the priced sum, ``None`` when stale; ``post_valid``
    says whether ``post`` holds the current counts.  The arrays are
    views into flat buffers the entry keeps when it is recycled.
    """

    __slots__ = (
        "key", "row0", "row1", "col0", "col1",
        "grow_row0", "grow_row1", "grow_col0", "grow_col1",
        "mask", "grid", "post", "vacated", "post_valid",
        "_mask_flat", "_grid_flat", "_post_flat",
    )

    def __init__(self) -> None:
        self._mask_flat = np.empty(0, dtype=bool)
        self._grid_flat = np.empty(0, dtype=np.float64)
        self._post_flat = np.empty(0, dtype=np.int32)

    def reserve(self, n_disc: int, n_grow: int) -> None:
        """Make the flat buffers hold a disc window of *n_disc* and a
        grown window of *n_grow* pixels (no-op when they already do)."""
        if self._mask_flat.size < n_disc:
            self._mask_flat = np.empty(n_disc, dtype=bool)
        if self._grid_flat.size < n_grow:
            self._grid_flat = np.empty(n_grow, dtype=np.float64)
            self._post_flat = np.empty(n_grow, dtype=np.int32)


class CoverageRaster:
    """Per-pixel disc-coverage counts over a rectangular pixel window.

    Parameters
    ----------
    height, width:
        Size of the raster in pixels.
    row_offset, col_offset:
        Position of the raster's (0, 0) pixel within the full image —
        partition workers hold a raster over just their patch.
    debug_checks:
        Enable the coverage-underflow guard in :meth:`remove_disc` /
        :meth:`trial_remove_disc` (an extra fancy-index pass per
        removal).  Defaults off in the hot path; tests and
        :meth:`~repro.mcmc.posterior.PosteriorState.verify_consistency`
        turn it on.
    """

    __slots__ = (
        "counts",
        "row_offset",
        "col_offset",
        "debug_checks",
        "_counts_flat",
        "_row_centres",
        "_col_centres",
        "_dx2",
        "_dy2",
        "_sq_flat",
        "_cnt_flat",
        "_newly_flat",
        "_mask_pool",
        "_pending",
        "_removals",
        "_spare_entries",
        "_removal_weights",
    )

    def __init__(
        self,
        height: int,
        width: int,
        row_offset: int = 0,
        col_offset: int = 0,
        debug_checks: bool = False,
    ) -> None:
        if height <= 0 or width <= 0:
            raise ChainError(f"raster must be non-empty, got {height}x{width}")
        # The counts backing is flat so reset() can re-shape it for a
        # different window without reallocating (partition workers reuse
        # one raster across cycles).
        self._counts_flat = np.zeros(height * width, dtype=np.int32)
        self.counts = self._counts_flat.reshape(height, width)
        self.row_offset = int(row_offset)
        self.col_offset = int(col_offset)
        self.debug_checks = bool(debug_checks)
        self._init_scratch()

    def _init_scratch(self) -> None:
        height, width = self.counts.shape
        # Pixel-centre coordinate grids, precomputed once: slicing these
        # replaces the two per-call ``np.arange`` allocations of the
        # legacy window (integers + 0.5 are exact, so a slice is
        # bit-identical to ``np.arange(c0, c1) + 0.5``).
        self._row_centres = np.arange(height, dtype=np.float64) + 0.5
        self._col_centres = np.arange(width, dtype=np.float64) + 0.5
        self._dx2 = np.empty(width, dtype=np.float64)
        self._dy2 = np.empty(height, dtype=np.float64)
        # Flat window scratch, grown to the largest window seen so far;
        # contiguous slices + reshape yield zero-copy 2-D views.
        self._sq_flat = np.empty(0, dtype=np.float64)
        self._cnt_flat = np.empty(0, dtype=np.int32)
        self._newly_flat = np.empty(0, dtype=bool)
        self._mask_pool: List[np.ndarray] = []
        self._pending: List[_PendingOp] = []
        # Removal cache: live entries by geometry, recycled entries, and
        # the weight map the cached sums were taken against.
        self._removals: Dict[Tuple[float, float, float], _RemovalEntry] = {}
        self._spare_entries: List[_RemovalEntry] = []
        self._removal_weights = None

    def reset(
        self,
        height: int,
        width: int,
        row_offset: int = 0,
        col_offset: int = 0,
    ) -> None:
        """Reconfigure the raster for a (possibly different) window,
        reusing every backing buffer that is already large enough.

        Partition workers call this once per cycle instead of
        constructing a fresh raster: counts are zeroed, offsets move,
        and the centre grids / window scratch only ever grow.  A longer
        centre grid slices identically to a freshly built one, so a
        reused raster is bit-identical to a new ``CoverageRaster``.
        Pending trial ops must be resolved first.
        """
        if height <= 0 or width <= 0:
            raise ChainError(f"raster must be non-empty, got {height}x{width}")
        self._check_no_pending("reset")
        self._clear_removals()
        n = height * width
        if self._counts_flat.size < n:
            self._counts_flat = np.zeros(max(n, 2 * self._counts_flat.size), dtype=np.int32)
        self.counts = self._counts_flat[:n].reshape(height, width)
        self.counts[:] = 0
        self.row_offset = int(row_offset)
        self.col_offset = int(col_offset)
        if self._row_centres.size < height:
            self._row_centres = np.arange(height, dtype=np.float64) + 0.5
            self._dy2 = np.empty(height, dtype=np.float64)
        if self._col_centres.size < width:
            self._col_centres = np.arange(width, dtype=np.float64) + 0.5
            self._dx2 = np.empty(width, dtype=np.float64)

    # -- pickling (scratch is derived state; ship only the counts) ----------
    def __getstate__(self):
        return {
            "counts": self.counts,
            "row_offset": self.row_offset,
            "col_offset": self.col_offset,
            "debug_checks": self.debug_checks,
        }

    def __setstate__(self, state) -> None:
        counts = np.ascontiguousarray(state["counts"])
        self._counts_flat = counts.reshape(-1)
        self.counts = counts
        self.row_offset = state["row_offset"]
        self.col_offset = state["col_offset"]
        self.debug_checks = state["debug_checks"]
        self._init_scratch()

    @property
    def shape(self) -> Tuple[int, int]:
        return self.counts.shape  # type: ignore[return-value]

    @property
    def pending_count(self) -> int:
        """Number of uncommitted trial rasterisations."""
        return len(self._pending)

    # -- disc rasterisation (legacy / reference path) --------------------------
    def _disc_window(self, x: float, y: float, r: float):
        """(row_slice, col_slice, boolean mask) of pixels covered by the disc.

        Returns ``None`` when the disc misses the raster entirely.
        Coordinates are in full-image space; offsets are applied here.

        This is the pre-trial implementation, kept allocation-heavy on
        purpose: it is the bit-exact reference (and benchmark baseline)
        the trial path is validated against.
        """
        # Pixel (i, j) of the raster has centre (col_offset + j + 0.5,
        # row_offset + i + 0.5) in image coordinates.
        lx = x - self.col_offset
        ly = y - self.row_offset
        h, w = self.counts.shape
        c0 = max(0, int(math.floor(lx - r - 0.5)))
        c1 = min(w, int(math.ceil(lx + r + 0.5)))
        r0 = max(0, int(math.floor(ly - r - 0.5)))
        r1 = min(h, int(math.ceil(ly + r + 0.5)))
        if c1 <= c0 or r1 <= r0:
            return None
        cols = np.arange(c0, c1, dtype=np.float64) + 0.5
        rows = np.arange(r0, r1, dtype=np.float64) + 0.5
        mask = (cols[None, :] - lx) ** 2 + (rows[:, None] - ly) ** 2 <= r * r
        if not mask.any():
            return None
        return slice(r0, r1), slice(c0, c1), mask

    # -- mutation with weighted deltas ----------------------------------------
    def add_disc(self, x: float, y: float, r: float, weights: np.ndarray) -> float:
        """Increment coverage under the disc; return Σ weights over pixels
        that became covered (count 0 → 1).

        *weights* is the full-raster weight map (same shape as counts);
        the caller owns its meaning (the likelihood passes its per-pixel
        turn-on costs).
        """
        self._check_no_pending("add_disc")
        win = self._disc_window(x, y, r)
        if win is None:
            return 0.0
        rows, cols, mask = win
        patch = self.counts[rows, cols]
        newly = mask & (patch == 0)
        patch[mask] += 1
        self._invalidate(rows.start, rows.stop, cols.start, cols.stop)
        delta = float(weights[rows, cols][newly].sum()) if newly.any() else 0.0
        return delta

    def remove_disc(self, x: float, y: float, r: float, weights: np.ndarray) -> float:
        """Decrement coverage under the disc; return Σ weights over pixels
        that became uncovered (count 1 → 0).

        With ``debug_checks`` enabled, raises if any touched pixel had
        zero coverage (state corruption).
        """
        self._check_no_pending("remove_disc")
        self._evict(self._removals.get((x, y, r)))
        win = self._disc_window(x, y, r)
        if win is None:
            return 0.0
        rows, cols, mask = win
        patch = self.counts[rows, cols]
        if self.debug_checks and np.any(patch[mask] <= 0):
            raise ChainError(
                f"coverage underflow removing disc ({x:.2f}, {y:.2f}, r={r:.2f})"
            )
        vacated = mask & (patch == 1)
        patch[mask] -= 1
        self._invalidate(rows.start, rows.stop, cols.start, cols.stop)
        delta = float(weights[rows, cols][vacated].sum()) if vacated.any() else 0.0
        return delta

    # -- trial path (allocation-free pricing, deferred mutation) ---------------
    def _ensure_scratch(self, n: int, slot: int) -> None:
        """Grow the flat window scratch to hold *n* pixels and make sure
        mask-buffer *slot* exists (steady state: every call is a no-op)."""
        if self._sq_flat.size < n:
            size = max(n, 2 * self._sq_flat.size)
            self._sq_flat = np.empty(size, dtype=np.float64)
            self._cnt_flat = np.empty(size, dtype=np.int32)
            self._newly_flat = np.empty(size, dtype=bool)
            for i, buf in enumerate(self._mask_pool):
                if buf.size < size:
                    self._mask_pool[i] = np.empty(size, dtype=bool)
        while len(self._mask_pool) <= slot:
            self._mask_pool.append(np.empty(self._sq_flat.size or n, dtype=bool))
        if self._mask_pool[slot].size < n:
            self._mask_pool[slot] = np.empty(max(n, self._sq_flat.size), dtype=bool)

    def _bounds(self, lx: float, ly: float, r: float):
        """``(r0, r1, c0, c1)`` of the disc window at raster-local centre
        ``(lx, ly)``, clipped to the raster, or ``None`` when empty."""
        h, w = self.counts.shape
        c0 = max(0, int(math.floor(lx - r - 0.5)))
        c1 = min(w, int(math.ceil(lx + r + 0.5)))
        r0 = max(0, int(math.floor(ly - r - 0.5)))
        r1 = min(h, int(math.ceil(ly + r + 0.5)))
        if c1 <= c0 or r1 <= r0:
            return None
        return r0, r1, c0, c1

    def _distance_grid(self, out: np.ndarray, lx: float, ly: float,
                       r0: int, r1: int, c0: int, c1: int) -> None:
        """Fill *out* (``(r1 − r0) × (c1 − c0)``) with the squared
        distance of each pixel centre to ``(lx, ly)``."""
        dx2 = self._dx2[: c1 - c0]
        np.subtract(self._col_centres[c0:c1], lx, out=dx2)
        np.multiply(dx2, dx2, out=dx2)  # == (cols - lx) ** 2 (numpy squares x**2 as x*x)
        dy2 = self._dy2[: r1 - r0]
        np.subtract(self._row_centres[r0:r1], ly, out=dy2)
        np.multiply(dy2, dy2, out=dy2)
        # Two-step broadcast (row copy, then in-place column add): the
        # same single addition dx²[j] + dy²[i] bit-for-bit, but numpy's
        # iterator buffers one broadcast operand instead of two.
        np.copyto(out, dx2[None, :])
        np.add(out, dy2[:, None], out=out)

    def _disc_mask(self, lx: float, ly: float, r: float,
                   r0: int, r1: int, c0: int, c1: int, slot: int) -> np.ndarray:
        """Rasterise one disc window into pooled mask *slot*: the full
        per-disc window the removal cache exists to avoid."""
        hlen = r1 - r0
        wlen = c1 - c0
        n = hlen * wlen
        self._ensure_scratch(n, slot)
        sq = self._sq_flat[:n].reshape(hlen, wlen)
        self._distance_grid(sq, lx, ly, r0, r1, c0, c1)
        mask = self._mask_pool[slot][:n].reshape(hlen, wlen)
        np.less_equal(sq, r * r, out=mask)
        return mask

    def _trial_window(self, x: float, y: float, r: float, slot: int):
        """Allocation-free counterpart of :meth:`_disc_window`.

        Returns ``(r0, r1, c0, c1, mask)`` with *mask* a 2-D view into
        pooled scratch (valid until slot reuse), or ``None``.  Every
        arithmetic step mirrors the legacy window element-for-element,
        so the mask is bit-identical.
        """
        lx = x - self.col_offset
        ly = y - self.row_offset
        bounds = self._bounds(lx, ly, r)
        if bounds is None:
            return None
        r0, r1, c0, c1 = bounds
        # No mask.any() bail-out here: an all-False mask yields an exact
        # 0.0 delta (empty gather) and a no-op commit, so the extra
        # reduction per disc would buy nothing.
        return r0, r1, c0, c1, self._disc_mask(lx, ly, r, r0, r1, c0, c1, slot)

    def _effective_counts(self, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        """The window's counts as the pending trial ops would leave them.

        When no op intersects the window this is a zero-copy view;
        otherwise the window is copied into scratch and each mask is
        applied over the intersection — exactly the counts the legacy
        path would have produced by mutating in sequence.
        """
        patch = self.counts[r0:r1, c0:c1]
        for op in self._pending:
            if op.row0 < r1 and r0 < op.row1 and op.col0 < c1 and c0 < op.col1:
                break
        else:
            return patch
        hlen = r1 - r0
        wlen = c1 - c0
        buf = self._cnt_flat[: hlen * wlen].reshape(hlen, wlen)
        np.copyto(buf, patch)
        for op in self._pending:
            ir0 = max(r0, op.row0)
            ir1 = min(r1, op.row1)
            ic0 = max(c0, op.col0)
            ic1 = min(c1, op.col1)
            if ir0 >= ir1 or ic0 >= ic1:
                continue
            sub = buf[ir0 - r0 : ir1 - r0, ic0 - c0 : ic1 - c0]
            msk = op.mask[ir0 - op.row0 : ir1 - op.row0, ic0 - op.col0 : ic1 - op.col0]
            if op.sign > 0:
                np.add(sub, msk, out=sub)
            else:
                np.subtract(sub, msk, out=sub)
        return buf

    def trial_add_disc(self, x: float, y: float, r: float, weights: np.ndarray) -> float:
        """Price adding the disc without mutating ``counts``.

        Returns the same Σ weights over newly covered pixels that
        :meth:`add_disc` would, records the rasterised mask as a pending
        op (so later trials in the same move see its effect), and leaves
        state mutation to :meth:`commit_pending`.

        When the only pending op is a cached removal whose grown window
        holds this disc (a translate or resize), the counts are read
        from that entry's post-removal window, and at the same centre
        the mask is cut from its distance² grid.
        """
        pending = self._pending
        slot = len(pending)
        lx = x - self.col_offset
        ly = y - self.row_offset
        bounds = self._bounds(lx, ly, r)
        if bounds is None:
            return 0.0
        r0, r1, c0, c1 = bounds
        base = pending[0].entry if slot == 1 else None
        if (
            base is not None
            and base.grow_row0 <= r0 and r1 <= base.grow_row1
            and base.grow_col0 <= c0 and c1 <= base.grow_col1
        ):
            if base.key[0] == x and base.key[1] == y:
                mask = self._resize_mask(base, r, r0, r1, c0, c1, slot)
            else:
                mask = self._disc_mask(lx, ly, r, r0, r1, c0, c1, slot)
            patch = self._post_removal_counts(base)[
                r0 - base.grow_row0 : r1 - base.grow_row0,
                c0 - base.grow_col0 : c1 - base.grow_col0,
            ]
        else:
            mask = self._disc_mask(lx, ly, r, r0, r1, c0, c1, slot)
            patch = self._effective_counts(r0, r1, c0, c1)
        hlen, wlen = mask.shape
        newly = self._newly_flat[: hlen * wlen].reshape(hlen, wlen)
        # Counts are never negative, so count < mask is exactly
        # "count == 0 under the disc".
        np.less(patch, mask, out=newly)
        # Same gather + pairwise sum as the legacy path (an empty gather
        # sums to exactly 0.0, so no any() pre-check is needed);
        # np.add.reduce is ndarray.sum without its Python frame.
        delta = float(np.add.reduce(weights[r0:r1, c0:c1][newly]))
        pending.append(_PendingOp(r0, r1, c0, c1, mask, +1))
        return delta

    def trial_remove_disc(self, x: float, y: float, r: float, weights: np.ndarray) -> float:
        """Price removing the disc without mutating ``counts``; see
        :meth:`trial_add_disc`.

        The disc's mask comes from the removal cache (rasterised on the
        geometry's first removal), and a removal that opens a move
        returns the cached sum while the counts under the disc are
        unchanged since it was taken.
        """
        entry = self._removals.get((x, y, r))
        if entry is None:
            entry = self._removal_entry(x, y, r)
            if entry is None:
                return 0.0
        r0, r1, c0, c1, mask = entry.row0, entry.row1, entry.col0, entry.col1, entry.mask
        first = not self._pending
        delta = entry.vacated
        hit = first and delta is not None and weights is self._removal_weights
        if not hit or self.debug_checks:
            hlen, wlen = mask.shape
            self._ensure_scratch(hlen * wlen, 0)
            patch = self._effective_counts(r0, r1, c0, c1)
            if self.debug_checks and np.any(patch[mask] <= 0):
                raise ChainError(
                    f"coverage underflow removing disc ({x:.2f}, {y:.2f}, r={r:.2f})"
                )
        if not hit:
            vacated = self._newly_flat[: hlen * wlen].reshape(hlen, wlen)
            np.equal(patch, 1, out=vacated)
            np.logical_and(mask, vacated, out=vacated)
            delta = float(np.add.reduce(weights[r0:r1, c0:c1][vacated]))
            if first:
                if weights is not self._removal_weights:
                    # Cached sums are only good for the map they summed.
                    for other in self._removals.values():
                        other.vacated = None
                    self._removal_weights = weights
                entry.vacated = delta
        self._pending.append(_PendingOp(r0, r1, c0, c1, mask, -1, entry))
        return delta

    # -- removal cache ----------------------------------------------------------
    def _removal_entry(self, x: float, y: float, r: float) -> Optional[_RemovalEntry]:
        """Rasterise a removed disc into a new cache entry (the grid over
        the grown window, the mask cut from it), or ``None`` when the
        disc misses the raster."""
        lx = x - self.col_offset
        ly = y - self.row_offset
        bounds = self._bounds(lx, ly, r)
        if bounds is None:
            return None
        r0, r1, c0, c1 = bounds
        h, w = self.counts.shape
        g_r0 = max(0, r0 - _GROW)
        g_r1 = min(h, r1 + _GROW)
        g_c0 = max(0, c0 - _GROW)
        g_c1 = min(w, c1 + _GROW)
        ghlen = g_r1 - g_r0
        gwlen = g_c1 - g_c0
        hlen = r1 - r0
        wlen = c1 - c0
        entry = self._spare_entries.pop() if self._spare_entries else _RemovalEntry()
        entry.reserve(hlen * wlen, ghlen * gwlen)
        entry.key = (x, y, r)
        entry.row0, entry.row1, entry.col0, entry.col1 = r0, r1, c0, c1
        entry.grow_row0, entry.grow_row1 = g_r0, g_r1
        entry.grow_col0, entry.grow_col1 = g_c0, g_c1
        grid = entry._grid_flat[: ghlen * gwlen].reshape(ghlen, gwlen)
        self._distance_grid(grid, lx, ly, g_r0, g_r1, g_c0, g_c1)
        mask = entry._mask_flat[: hlen * wlen].reshape(hlen, wlen)
        np.less_equal(
            grid[r0 - g_r0 : r1 - g_r0, c0 - g_c0 : c1 - g_c0], r * r, out=mask
        )
        entry.grid = grid
        entry.mask = mask
        entry.post = entry._post_flat[: ghlen * gwlen].reshape(ghlen, gwlen)
        entry.vacated = None
        entry.post_valid = False
        self._removals[entry.key] = entry
        return entry

    def _resize_mask(self, entry: _RemovalEntry, r: float,
                     r0: int, r1: int, c0: int, c1: int, slot: int) -> np.ndarray:
        """The mask of a disc concentric with *entry*'s, cut from its
        cached distance² grid (one comparison, no new window)."""
        hlen = r1 - r0
        wlen = c1 - c0
        self._ensure_scratch(hlen * wlen, slot)
        mask = self._mask_pool[slot][: hlen * wlen].reshape(hlen, wlen)
        np.less_equal(
            entry.grid[r0 - entry.grow_row0 : r1 - entry.grow_row0,
                       c0 - entry.grow_col0 : c1 - entry.grow_col0],
            r * r, out=mask,
        )
        return mask

    def _post_removal_counts(self, entry: _RemovalEntry) -> np.ndarray:
        """*entry*'s grown window with its disc removed, refreshed from
        the counts when stale.  Only called while *entry*'s removal is
        the sole pending op, so the counts are the committed state."""
        post = entry.post
        if not entry.post_valid:
            np.copyto(post, self.counts[entry.grow_row0 : entry.grow_row1,
                                        entry.grow_col0 : entry.grow_col1])
            sub = post[entry.row0 - entry.grow_row0 : entry.row1 - entry.grow_row0,
                       entry.col0 - entry.grow_col0 : entry.col1 - entry.grow_col0]
            np.subtract(sub, entry.mask, out=sub)
            entry.post_valid = True
        return post

    def _invalidate(self, r0: int, r1: int, c0: int, c1: int) -> None:
        """Counts changed inside the window: drop the cached sum and
        post-removal window of every entry whose grown window it
        touches (masks and grids depend on geometry only)."""
        for entry in self._removals.values():
            if (entry.grow_row0 < r1 and r0 < entry.grow_row1
                    and entry.grow_col0 < c1 and c0 < entry.grow_col1):
                entry.vacated = None
                entry.post_valid = False

    def _evict(self, entry: Optional[_RemovalEntry]) -> None:
        """Drop a removed geometry's entry, keeping its buffers."""
        if entry is not None and self._removals.pop(entry.key, None) is entry:
            self._spare_entries.append(entry)

    def _clear_removals(self) -> None:
        self._spare_entries.extend(self._removals.values())
        self._removals.clear()
        self._removal_weights = None

    def _apply(self, ops: List[_PendingOp]) -> None:
        """Apply committed ops to ``counts`` and keep the removal cache
        coherent: invalidate what each op touches, then evict the
        geometries the ops removed."""
        for op in ops:
            patch = self.counts[op.row0 : op.row1, op.col0 : op.col1]
            if op.sign > 0:
                np.add(patch, op.mask, out=patch)
            else:
                np.subtract(patch, op.mask, out=patch)
        if self._removals:
            for op in ops:
                self._invalidate(op.row0, op.row1, op.col0, op.col1)
            for op in ops:
                self._evict(op.entry)

    def commit_pending(self) -> None:
        """Apply every pending trial mask to ``counts`` (accepted move).

        ``np.add``/``np.subtract`` with an ``out=`` view increment the
        window in place without the legacy path's fancy-index
        temporaries; the resulting counts are identical integers.
        """
        self._apply(self._pending)
        self._pending.clear()

    def discard_pending(self) -> None:
        """Drop every pending trial mask (rejected move) — counts were
        never touched, so this is O(pending)."""
        self._pending.clear()

    def _check_no_pending(self, op_name: str) -> None:
        if self._pending:
            raise ChainError(
                f"{op_name} called with {len(self._pending)} uncommitted trial "
                "op(s); commit_pending() or discard_pending() first"
            )

    # -- queries -----------------------------------------------------------------
    def covered_mask(self) -> np.ndarray:
        """Boolean mask of covered pixels (count > 0)."""
        return self.counts > 0

    def covered_weight_sum(self, weights: np.ndarray) -> float:
        """Σ weights over currently covered pixels (full evaluation)."""
        return float(weights[self.counts > 0].sum())

    def add_disc_counts_only(self, x: float, y: float, r: float) -> None:
        """Increment coverage under the disc without computing a delta —
        the bulk-load path (:meth:`rebuild_from`, worker initialisation),
        which previously paid an O(image) dummy-weights allocation per
        rebuild just to discard the weighted sums.

        With ``debug_checks`` enabled the rasterised window is
        cross-validated against the legacy reference
        (:meth:`_disc_window`), so counts-only rebuilds — including the
        one :meth:`~repro.mcmc.posterior.PosteriorState.verify_consistency`
        performs — pass through the same consistency gate as the trial
        path."""
        self._check_no_pending("add_disc_counts_only")
        win = self._trial_window(x, y, r, slot=0)
        if self.debug_checks:
            self._check_counts_only_window(x, y, r, win)
        if win is None:
            return
        r0, r1, c0, c1, mask = win
        patch = self.counts[r0:r1, c0:c1]
        np.add(patch, mask, out=patch)
        self._invalidate(r0, r1, c0, c1)

    def _check_counts_only_window(self, x: float, y: float, r: float, win) -> None:
        """Cross-validate a bulk-load rasterisation against the legacy
        reference window (``debug_checks`` only)."""
        ref = self._disc_window(x, y, r)
        if ref is None:
            # The legacy path also bails on an all-False mask; the trial
            # window stages those as exact no-ops.
            if win is not None and bool(win[4].any()):
                raise ChainError(
                    f"counts-only window for disc ({x:.2f}, {y:.2f}, r={r:.2f}) "
                    "covers pixels where the reference covers none"
                )
            return
        if win is None:
            raise ChainError(
                f"counts-only window for disc ({x:.2f}, {y:.2f}, r={r:.2f}) "
                "is empty where the reference covers pixels"
            )
        rows, cols, mask = ref
        r0, r1, c0, c1, tmask = win
        if (rows.start, rows.stop, cols.start, cols.stop) != (r0, r1, c0, c1) or not np.array_equal(
            tmask, mask
        ):
            raise ChainError(
                f"counts-only rebuild mask for disc ({x:.2f}, {y:.2f}, r={r:.2f}) "
                "deviates from the legacy reference window"
            )

    def rebuild_from(self, xs, ys, rs) -> None:
        """Recompute counts from scratch for the given circles (tests,
        worker initialisation)."""
        self._check_no_pending("rebuild_from")
        self._clear_removals()
        self.counts[:] = 0
        for x, y, r in zip(xs, ys, rs):
            self.add_disc_counts_only(float(x), float(y), float(r))

    def equals(self, other: "CoverageRaster") -> bool:
        return (
            self.counts.shape == other.counts.shape
            and self.row_offset == other.row_offset
            and self.col_offset == other.col_offset
            and bool(np.array_equal(self.counts, other.counts))
        )

    def window_rect(self) -> Rect:
        """The raster's extent as an image-space rectangle."""
        h, w = self.counts.shape
        return Rect(
            float(self.col_offset),
            float(self.row_offset),
            float(self.col_offset + w),
            float(self.row_offset + h),
        )
