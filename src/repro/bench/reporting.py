"""Paper-vs-measured reporting.

Every benchmark prints its headline numbers next to the paper's, with
the deviation, in a uniform format.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.utils.tables import Table

__all__ = ["paper_vs_measured_table"]


def paper_vs_measured_table(
    title: str,
    rows: Sequence[Tuple[str, Optional[float], Optional[float]]],
    precision: int = 4,
) -> str:
    """Render (label, paper value, measured value) rows with deviations.

    ``None`` entries render as "–" (the paper doesn't report every cell
    we measure, and vice versa).
    """
    t = Table(title, ["quantity", "paper", "measured", "deviation"], precision=precision)
    for label, paper, measured in rows:
        if paper is None or measured is None or paper == 0:
            deviation = None
        else:
            deviation = (measured - paper) / abs(paper)
        t.add_row([label, paper, measured, deviation])
    return t.render()
