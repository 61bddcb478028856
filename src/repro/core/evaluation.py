"""Result-quality metrics against ground truth.

The paper judges partitioned runs qualitatively ("no apparent
anomalies"); synthetic scenes let us quantify: match found circles to
ground-truth circles (greedy nearest-centre matching), then report
precision / recall / F1 and geometric errors, plus an anomaly counter
that localises false positives and misses to partition boundaries —
the signature failure mode of naive partitioning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.geometry.circle import Circle
from repro.geometry.rect import Rect
from repro.partitioning.merge import match_circles

__all__ = ["MatchReport", "evaluate_model", "anomalies_near_lines", "cut_lines"]


@dataclass
class MatchReport:
    """Matching outcome between a fitted model and ground truth."""

    n_truth: int
    n_found: int
    pairs: List[Tuple[int, int]] = field(default_factory=list)
    mean_center_error: float = 0.0
    mean_radius_error: float = 0.0

    @property
    def n_matched(self) -> int:
        return len(self.pairs)

    @property
    def n_missed(self) -> int:
        """Ground-truth artifacts with no matching detection."""
        return self.n_truth - self.n_matched

    @property
    def n_spurious(self) -> int:
        """Detections with no matching ground-truth artifact (includes
        duplicates of an already-matched artifact)."""
        return self.n_found - self.n_matched

    @property
    def precision(self) -> float:
        return self.n_matched / self.n_found if self.n_found else 0.0

    @property
    def recall(self) -> float:
        return self.n_matched / self.n_truth if self.n_truth else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if (p + r) > 0 else 0.0


def evaluate_model(
    found: Sequence[Circle],
    truth: Sequence[Circle],
    max_distance: float = 5.0,
) -> MatchReport:
    """Match *found* against *truth* and summarise the quality.

    *max_distance* is the centre-distance gate for a valid match (the
    same tolerance the §IX merge heuristic uses).
    """
    pairs = match_circles(list(found), list(truth), max_distance)
    if pairs:
        ce = sum(found[i].distance_to(truth[j]) for i, j in pairs) / len(pairs)
        re = sum(abs(found[i].r - truth[j].r) for i, j in pairs) / len(pairs)
    else:
        ce = re = 0.0
    return MatchReport(
        n_truth=len(truth),
        n_found=len(found),
        pairs=pairs,
        mean_center_error=ce,
        mean_radius_error=re,
    )


def cut_lines(rects: Sequence[Rect]) -> List[Tuple[str, float]]:
    """The interior edges of a grid of partition *rects* — e.g. the
    report rects of a naive run — as ('v'|'h', coordinate) pairs, for
    :func:`anomalies_near_lines`."""
    xs = sorted({r.x0 for r in rects} | {r.x1 for r in rects})
    ys = sorted({r.y0 for r in rects} | {r.y1 for r in rects})
    return [("v", x) for x in xs[1:-1]] + [("h", y) for y in ys[1:-1]]


def anomalies_near_lines(
    found: Sequence[Circle],
    truth: Sequence[Circle],
    lines: Sequence[Tuple[str, float]],
    band: float,
    max_distance: float = 5.0,
) -> dict:
    """Count matching failures inside and outside boundary bands.

    Parameters
    ----------
    lines:
        Partition cut lines as ('v'|'h', coordinate) pairs
        (:func:`cut_lines` produces these).
    band:
        Half-width of the boundary band: a circle is "near" a line when
        its centre is within *band* of it.

    Returns a dict with spurious/missed counts split by location —
    naive partitioning concentrates both near the cuts, periodic
    partitioning does not.
    """
    if band < 0:
        raise ConfigurationError(f"band must be >= 0, got {band}")

    def near(c: Circle) -> bool:
        for axis, coord in lines:
            d = abs((c.x if axis == "v" else c.y) - coord)
            if d <= band:
                return True
        return False

    report = evaluate_model(found, truth, max_distance)
    matched_found = {i for i, _ in report.pairs}
    matched_truth = {j for _, j in report.pairs}

    spurious = [c for i, c in enumerate(found) if i not in matched_found]
    missed = [c for j, c in enumerate(truth) if j not in matched_truth]
    return {
        "spurious_near_boundary": sum(1 for c in spurious if near(c)),
        "spurious_elsewhere": sum(1 for c in spurious if not near(c)),
        "missed_near_boundary": sum(1 for c in missed if near(c)),
        "missed_elsewhere": sum(1 for c in missed if not near(c)),
        "report": report,
    }
