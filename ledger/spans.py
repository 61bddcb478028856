"""The ledger's own spans, recorded around calls *into* the program.

Tracing inside the program is a later issue; here a span is a plain
record made by the benchmark at a layer boundary it can see from
outside.  Spans stay in memory during the run and are written as JSON
lines at the end, so recording costs two clock reads and an append.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional

from ledger.stats import self_time


class SpanLog:
    """An in-memory span list; thread-safe appends (client threads share one)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: List[Dict[str, Any]] = []
        self._next_id = 0

    def add(self, name: str, start: float, end: float, request: str,
            parent: Optional[int] = None) -> int:
        """Record a finished span; returns its id (the parent of later ones)."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            self._spans.append({
                "id": span_id, "name": name, "start": start, "end": end,
                "parent": parent, "request": request,
            })
        return span_id

    def __len__(self) -> int:
        return len(self._spans)

    def with_self_times(self) -> List[Dict[str, Any]]:
        """The spans, each with ``self_s``: duration minus the union of
        its children's intervals."""
        children: Dict[int, List] = {}
        for span in self._spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(
                    (span["start"], span["end"])
                )
        return [
            dict(span, self_s=self_time(span["start"], span["end"],
                                        children.get(span["id"], ())))
            for span in self._spans
        ]

    def self_time_by_name(self) -> Dict[str, float]:
        """Total self time per span name, seconds."""
        totals: Dict[str, float] = {}
        for span in self.with_self_times():
            totals[span["name"]] = totals.get(span["name"], 0.0) + span["self_s"]
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in self.with_self_times():
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")

