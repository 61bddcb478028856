"""Content-addressed result cache for the detection engine.

Repeated benchmark sweeps and CI re-runs keep asking the engine for the
same work: identical image bytes, strategy, model, seed, and options.
:func:`repro.engine.schema.request_key` reduces such a request to a
digest; this module maps digests to :class:`DetectionResult` objects so
identical runs are answered from memory (or disk) instead of recomputed.

Two tiers:

* an in-memory LRU (``max_entries``) holding results;
* an optional on-disk JSON store (``directory``) holding each result as
  :func:`result_to_json` data.  Every :class:`DetectionResult` field
  round-trips, so both tiers answer with equal values.

On-disk entries are one file per key, so the store is safe to inspect,
diff, and prune by hand; ``stats.json`` accumulates hit/miss counters
across processes for ``repro cache stats``.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.engine.schema import DetectionResult, MergeCounts, PartitionReport
from repro.errors import EngineError
from repro.geometry.circle import Circle
from repro.geometry.rect import Rect
from repro.obs import get_registry as _obs_registry


def _count_cache(event: str) -> None:
    _obs_registry().counter(
        "engine_cache_events_total",
        help="ResultCache lookups/stores/evictions across the process.",
        event=event,
    ).inc()

__all__ = [
    "CacheStats",
    "ResultCache",
    "report_to_json",
    "result_to_json",
    "result_from_json",
]

#: Schema version stamped into every on-disk entry; bump on layout change
#: and stale entries are treated as misses.
DISK_SCHEMA_VERSION = 2

_KEY_RE = re.compile(r"^[0-9a-f]{64}$")
_STATS_FILE = "stats.json"


def _check_key(key: str) -> str:
    if not (isinstance(key, str) and _KEY_RE.match(key)):
        raise EngineError(
            f"cache keys are 64-char hex digests from request_key(), got {key!r}"
        )
    return key


def report_to_json(report: PartitionReport) -> Dict[str, Any]:
    """One :class:`PartitionReport` as JSON-compatible data."""
    return {
        "rect": [report.rect.x0, report.rect.y0, report.rect.x1, report.rect.y1],
        "expected_count": report.expected_count,
        "n_found": report.n_found,
        "iterations": report.iterations,
        "elapsed_seconds": report.elapsed_seconds,
        "converged_at": report.converged_at,
    }


def result_to_json(result: DetectionResult) -> Dict[str, Any]:
    """*result* as JSON-compatible data that :func:`result_from_json`
    turns back into an equal value (Python's JSON float encoding is
    shortest-roundtrip, so coordinates come back exactly)."""
    return {
        "schema_version": DISK_SCHEMA_VERSION,
        "strategy": result.strategy,
        "circles": [[c.x, c.y, c.r] for c in result.circles],
        "reports": [report_to_json(r) for r in result.reports],
        "elapsed_seconds": result.elapsed_seconds,
        "executor_kind": result.executor_kind,
        "n_tasks": result.n_tasks,
        "merge": None if result.merge is None else asdict(result.merge),
    }


def result_from_json(data: Dict[str, Any]) -> DetectionResult:
    """Rebuild a :class:`DetectionResult` from :func:`result_to_json`
    output."""
    if data.get("schema_version") != DISK_SCHEMA_VERSION:
        raise EngineError(
            f"cache entry schema {data.get('schema_version')!r} != "
            f"{DISK_SCHEMA_VERSION}"
        )
    merge = data["merge"]
    return DetectionResult(
        strategy=data["strategy"],
        circles=[Circle(x, y, r) for x, y, r in data["circles"]],
        reports=[
            PartitionReport(
                rect=Rect(*row["rect"]),
                expected_count=row["expected_count"],
                n_found=row["n_found"],
                iterations=row["iterations"],
                elapsed_seconds=row["elapsed_seconds"],
                converged_at=row["converged_at"],
            )
            for row in data["reports"]
        ],
        elapsed_seconds=data["elapsed_seconds"],
        executor_kind=data["executor_kind"],
        n_tasks=data["n_tasks"],
        merge=None if merge is None else MergeCounts(**merge),
    )


@dataclass
class CacheStats:
    """Lookup/store accounting for one :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class ResultCache:
    """Digest → :class:`DetectionResult`, in memory with optional disk.

    Parameters
    ----------
    max_entries:
        In-memory LRU capacity; least-recently-used entries are evicted
        beyond it (disk entries, if any, are never auto-evicted — they
        are bounded by :meth:`clear` and manual pruning).
    directory:
        Optional on-disk store.  Created on first use; entries persist
        across processes, and :meth:`flush` folds this cache's counters
        into the directory's cumulative ``stats.json``.
    """

    def __init__(
        self,
        max_entries: int = 256,
        directory: Union[str, Path, None] = None,
    ) -> None:
        if max_entries < 1:
            raise EngineError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.directory = Path(directory) if directory is not None else None
        self._memory: "OrderedDict[str, DetectionResult]" = OrderedDict()
        self.stats = CacheStats()

    # -- lookup/store ---------------------------------------------------------
    def get(self, key: str) -> Optional[DetectionResult]:
        """The cached result under *key*, or ``None`` (counted as hit/miss)."""
        _check_key(key)
        hit = self._memory.get(key)
        if hit is not None:
            self._memory.move_to_end(key)
            self.stats.hits += 1
            _count_cache("hit")
            return hit
        disk = self._disk_get(key)
        if disk is not None:
            self._remember(key, disk)
            self.stats.hits += 1
            _count_cache("hit")
            return disk
        self.stats.misses += 1
        _count_cache("miss")
        return None

    def put(self, key: str, result: DetectionResult) -> None:
        """Store *result* under *key* in memory (and on disk if configured)."""
        _check_key(key)
        self._remember(key, result)
        self.stats.stores += 1
        _count_cache("store")
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            path = self.directory / f"{key}.json"
            path.write_text(json.dumps(result_to_json(result)))

    def _remember(self, key: str, result: DetectionResult) -> None:
        self._memory[key] = result
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)
            self.stats.evictions += 1
            _count_cache("eviction")

    def _disk_get(self, key: str) -> Optional[DetectionResult]:
        if self.directory is None:
            return None
        path = self.directory / f"{key}.json"
        if not path.is_file():
            return None
        try:
            return result_from_json(json.loads(path.read_text()))
        except (EngineError, ValueError, KeyError, TypeError):
            return None  # stale/corrupt entry reads as a miss

    # -- maintenance ----------------------------------------------------------
    def invalidate(self, key: str) -> bool:
        """Drop *key* from memory and disk; True if anything was removed."""
        _check_key(key)
        removed = self._memory.pop(key, None) is not None
        if self.directory is not None:
            path = self.directory / f"{key}.json"
            if path.is_file():
                path.unlink()
                removed = True
        return removed

    def clear(self) -> None:
        """Drop every entry (memory + disk) and reset all counters,
        the directory's persisted ones included."""
        self._memory.clear()
        self.stats = CacheStats()
        if self.directory is not None and self.directory.is_dir():
            for path in self.directory.glob("*.json"):
                path.unlink()

    def __len__(self) -> int:
        return len(self._memory)

    @property
    def disk_entries(self) -> int:
        if self.directory is None or not self.directory.is_dir():
            return 0
        return sum(1 for p in self.directory.glob("*.json") if p.name != _STATS_FILE)

    # -- cross-process stats --------------------------------------------------
    def flush(self) -> None:
        """Fold this cache's counters into ``directory/stats.json`` and
        reset the session counters (no-op for a memory-only cache)."""
        if self.directory is None:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        totals = self._read_persisted()
        for field_ in ("hits", "misses", "stores", "evictions"):
            totals[field_] = totals.get(field_, 0) + getattr(self.stats, field_)
        (self.directory / _STATS_FILE).write_text(json.dumps(totals))
        self.stats = CacheStats()

    def _read_persisted(self) -> Dict[str, int]:
        if self.directory is None:
            return {}
        path = self.directory / _STATS_FILE
        if not path.is_file():
            return {}
        try:
            data = json.loads(path.read_text())
        except ValueError:
            return {}
        return {k: int(v) for k, v in data.items() if isinstance(v, (int, float))}

    def summary(self) -> Dict[str, Any]:
        """Machine-readable state: entry counts, sizes, and counters —
        session counters plus anything persisted in ``stats.json``."""
        persisted = self._read_persisted()
        combined = CacheStats(
            hits=self.stats.hits + persisted.get("hits", 0),
            misses=self.stats.misses + persisted.get("misses", 0),
            stores=self.stats.stores + persisted.get("stores", 0),
            evictions=self.stats.evictions + persisted.get("evictions", 0),
        )
        size_bytes = 0
        if self.directory is not None and self.directory.is_dir():
            size_bytes = sum(
                p.stat().st_size
                for p in self.directory.glob("*.json")
                if p.name != _STATS_FILE
            )
        return {
            "directory": str(self.directory) if self.directory else None,
            "memory_entries": len(self),
            "disk_entries": self.disk_entries,
            "disk_bytes": size_bytes,
            **combined.as_dict(),
        }
