"""Plain-text table / series rendering for the benchmark harness.

The paper's evaluation is a handful of tables (Table I) and line plots
(Figs. 1 and 2).  Rather than depending on a plotting stack, the bench
harness prints the same rows/series as aligned ASCII so results can be
compared against the paper directly from the terminal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Union

__all__ = ["Table", "format_series"]

Cell = Union[str, int, float, None]


def _fmt(value: Cell, precision: int) -> str:
    if value is None:
        return "–"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 10 ** (precision + 2) or abs(value) < 10 ** (-precision):
            return f"{value:.{precision}e}"
        return f"{value:.{precision}g}"
    return str(value)


@dataclass
class Table:
    """An aligned ASCII table with a title, header row and data rows.

    >>> t = Table("Results", ["name", "runtime"])
    >>> t.add_row(["full", 1.08])
    >>> print(t.render())          # doctest: +SKIP
    """

    title: str
    headers: Sequence[str]
    precision: int = 4
    rows: List[List[Cell]] = field(default_factory=list)

    def add_row(self, row: Sequence[Cell]) -> None:
        """Append a data row; must match the header width."""
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(list(row))

    def add_rows(self, rows: Iterable[Sequence[Cell]]) -> None:
        for row in rows:
            self.add_row(row)

    def render(self) -> str:
        """Render the table as an aligned multi-line string."""
        str_rows = [[_fmt(c, self.precision) for c in row] for row in self.rows]
        headers = [str(h) for h in self.headers]
        widths = [len(h) for h in headers]
        for row in str_rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        lines = [self.title, "=" * max(len(self.title), len(sep))]
        lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
        lines.append(sep)
        for row in str_rows:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


def format_series(
    title: str,
    x_label: str,
    xs: Sequence[float],
    series: Sequence[tuple],
    precision: int = 4,
    y_label: Optional[str] = None,
) -> str:
    """Render one or more (label, ys) series against shared x values.

    This is the textual analogue of the paper's line figures: one row per
    x value, one column per series.

    Parameters
    ----------
    series:
        Sequence of ``(label, ys)`` pairs where each ``ys`` has the same
        length as ``xs``.
    """
    headers = [x_label] + [label for label, _ in series]
    for label, ys in series:
        if len(ys) != len(xs):
            raise ValueError(
                f"series {label!r} has {len(ys)} points, expected {len(xs)}"
            )
    t = Table(title if y_label is None else f"{title} (y = {y_label})",
              headers, precision=precision)
    for i, x in enumerate(xs):
        t.add_row([x] + [ys[i] for _, ys in series])
    return t.render()
