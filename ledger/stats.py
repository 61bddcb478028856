"""Statistics the ledger reports with — pure functions, no program imports.

Everything here is deterministic arithmetic over lists of numbers, so
``ledger/tests`` can pin each rule without starting a server.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Percentiles the ledger is willing to report, lowest first.
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def supported_percentile(n: int) -> Optional[float]:
    """The highest percentile of :data:`PERCENTILES` that *n* samples
    support — at least :data:`MIN_BEYOND` samples lie beyond it — or
    ``None`` when not even the median qualifies."""
    best = None
    for p in PERCENTILES:
        if round(n * (100.0 - p) / 100.0, 6) >= MIN_BEYOND:  # 99.9 is not exact
            best = p
    return best


def tail(values: Sequence[float], wanted: float) -> Tuple[str, float]:
    """``(label, value)`` of the *wanted* percentile when the sample
    supports it, else of the highest supported one, else of the maximum
    (a handful of passes has no percentile to speak of)."""
    supported = supported_percentile(len(values))
    if supported is None:
        return "max", float(max(values))
    p = min(wanted, supported)
    return f"p{p:g}", float(np.percentile(values, p))


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the steadiness figure the benchmark contract uses."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else float("inf")


# -- the layer ladder ----------------------------------------------------------

#: Share of each rung's latencies cut from either end before averaging.
TRIM = 0.1


def ladder(rungs: Sequence[Sequence[float]]) -> Dict[str, Any]:
    """Decompose the top rung's latency into a base and one hop per rung.

    ``rungs[k][j]`` is the latency of job *j* driven through the first
    *k* layers; every rung saw the same jobs in the same order, so
    ``rungs[k][j] - rungs[k-1][j]`` is what layer *k* added to job *j*.

    Medians of paired differences do not add up to a median, so the
    ladder uses a statistic that is linear: the mean over one common set
    of jobs — those that were, on every rung, inside that rung's middle
    ``1 - 2*TRIM`` of latencies (a job that hit a scheduling hiccup on
    any rung is dropped from all of them).  ``base + sum(hops)`` then
    equals the top rung's mean over the kept jobs exactly.
    """
    if not rungs or any(len(r) != len(rungs[0]) for r in rungs):
        raise ValueError("ladder rungs must be non-empty and equally long")
    table = np.asarray(rungs, dtype=np.float64)
    n = table.shape[1]
    keep = np.ones(n, dtype=bool)
    if n >= 10:
        for row in table:
            lo, hi = np.percentile(row, [100.0 * TRIM, 100.0 * (1.0 - TRIM)])
            keep &= (row >= lo) & (row <= hi)
    if not keep.any():  # pathological: every job was an outlier somewhere
        keep[:] = True
    kept = table[:, keep]
    means = kept.mean(axis=1)
    return {
        "base": float(means[0]),
        "hops": [float(means[k] - means[k - 1]) for k in range(1, len(means))],
        "top": float(means[-1]),
        "top_p50": float(np.median(table[-1])),
        "kept": int(keep.sum()),
        "n": int(n),
    }


def hop_series(rungs: Sequence[Sequence[float]]) -> List[List[float]]:
    """Per-job cost of each layer, in op order: rung 0 as is, then the
    paired differences between adjacent rungs."""
    table = np.asarray(rungs, dtype=np.float64)
    out = [table[0].tolist()]
    out.extend((table[k] - table[k - 1]).tolist() for k in range(1, len(table)))
    return out


def drift_ratio(series: Sequence[float]) -> float:
    """Median of the last quarter of *series* over the median of its
    first quarter — above 1 when a layer's per-job cost grows with the
    number of jobs it has served."""
    quarter = max(1, len(series) // 4)
    first = statistics.median(series[:quarter])
    last = statistics.median(series[-quarter:])
    return float(last / first) if first else 0.0


# -- spans ---------------------------------------------------------------------

def self_time(start: float, end: float,
              children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part of it its children cover.

    Children may overlap each other (partitions on a process pool) and
    may stick out of the parent (clock jitter); the covered part is the
    union of the child intervals clipped to the parent.
    """
    clipped = sorted(
        (max(start, s), min(end, e)) for s, e in children if min(end, e) > max(start, s)
    )
    covered = 0.0
    cursor = start
    for s, e in clipped:
        if e <= cursor:
            continue
        covered += e - max(s, cursor)
        cursor = e
    return (end - start) - covered


# -- correctness ---------------------------------------------------------------

def circle_digest(circles: Iterable[Any]) -> str:
    """Order-free digest of fitted circles, exact to the last bit.

    Accepts engine ``Circle`` objects or the wire's ``[x, y, r]`` rows;
    ``repr`` of a float round-trips, so two digests are equal iff every
    coordinate is bit-identical.
    """
    rows = sorted(
        (float(c.x), float(c.y), float(c.r)) if hasattr(c, "x")
        else (float(c[0]), float(c[1]), float(c[2]))
        for c in circles
    )
    return hashlib.sha256(json.dumps(rows).encode("ascii")).hexdigest()


# -- comparing two ledgers -----------------------------------------------------

def verdict(base: Sequence[float], new: Sequence[float], better: str,
            bound: float) -> Dict[str, Any]:
    """One row of ``--compare``: is *new*'s median worse than *base*'s
    by more than *bound* (a share of the base median)?

    ``unresolved`` when either side's run-to-run spread is wider than
    the bound — the comparison cannot tell a regression from noise.
    """
    b, n = statistics.median(base), statistics.median(new)
    worse_by = (n - b) / abs(b) if better == "lower" else (b - n) / abs(b)
    spreads = [quartile_spread(v) for v in (base, new) if len(v) >= 2]
    spread = max(spreads) if spreads else None
    if spread is None or spread > bound:
        status = "unresolved"
    elif worse_by > bound:
        status = "worse"
    else:
        status = "ok"
    return {"base": b, "new": n, "worse_by": worse_by, "spread": spread,
            "bound": bound, "status": status}
