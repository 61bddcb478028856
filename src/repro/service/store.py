"""Durable JSON-lines stores: one append-only segment, two schemas.

A :class:`JsonlSegment` is one file of JSON objects, one per line.  Its
subclasses say only what a record means:

* :class:`JobLog` — the write-ahead log of *pending* work.  Both job
  servers (the :class:`~repro.service.server.DetectionService` backend
  and the :class:`~repro.cluster.router.ShardRouter`) record every job
  they accept through it, so a restart of either resumes pending jobs
  instead of forgetting them.
* :class:`ResultIndex` — the router's index of *terminal* job ids.  The
  WAL forgets finished jobs, which is right for replay but wrong for a
  client polling the id of a run that completed just before a restart;
  the index maps every terminal id to its state, request key and result
  digest, so ``op:status`` / ``GET /v1/jobs/{id}`` keep answering across
  the restart.  (Event *history* is not retained: the index answers
  "what happened to job X", not "show me its bytes".)

Durability model, shared by both: records are written line-atomically
and flushed on every append; ``fsync=True`` additionally forces appends
and compactions to stable storage (off by default — the stores defend
against process death, not power loss).  A torn final line from a
mid-write crash is skipped on read, never fatal, and the next append
seals it first so it cannot swallow a good record.  Every
``COMPACT_EVERY`` appends a background thread rewrites the file down to
what the schema's fold keeps (see :meth:`JsonlSegment.compact`).
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.errors import ClusterError

__all__ = ["IndexedResult", "JobLog", "JobLogReplay", "JsonlSegment",
           "PendingJob", "ResultIndex"]

#: Job-log states a ``complete`` record may carry.
COMPLETE_STATES = frozenset({"done", "failed", "cancelled", "replayed"})
#: Terminal states a result-index record may carry (the wire states).
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

Record = Dict[str, Any]
#: A fold's survivors and drop count, or ``None`` to skip the rewrite.
Folded = Optional[Tuple[List[Record], int]]


def _line(record: Record) -> bytes:
    return json.dumps(record, separators=(",", ":")).encode("utf-8") + b"\n"


class JsonlSegment:
    """An append-only JSON-lines file with background compaction.

    Subclasses set :attr:`COMPACT_EVERY` and implement ``_valid`` (is a
    decoded object a record of this schema?) and ``_fold`` (what a
    rewrite of the file's first *max_bytes* keeps; see :data:`Folded`).

    Parameters
    ----------
    path:
        The file; created (with parents) on first append.
    fsync:
        Force every append and compaction to stable storage.
    """

    #: Auto-compaction cadence in appends; ``0`` disables it.
    COMPACT_EVERY = 0

    def __init__(self, path: Union[str, Path], fsync: bool = False) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self._file = None
        #: Guards the append handle and file identity (swap/close); held
        #: only for O(1) work so event-loop appends never stall.
        self._lock = threading.Lock()
        #: Serialises whole compactions against each other (the long
        #: snapshot phase runs outside ``_lock``).
        self._compact_lock = threading.Lock()
        self._appends_since_compact = 0
        self._compactor: Optional[threading.Thread] = None
        self.n_appended = 0
        self.n_compactions = 0
        #: Lines the last full read skipped: invalid UTF-8, not JSON,
        #: not an object, or not a record of this schema (torn writes).
        self.n_corrupt = 0

    # -- schema hooks ----------------------------------------------------------
    def _valid(self, record: Record) -> bool:
        raise NotImplementedError

    def _fold(self, max_bytes: int, only_if_worthwhile: bool) -> Folded:
        raise NotImplementedError

    # -- appending -------------------------------------------------------------
    def append(self, record: Record) -> None:
        """Write one record line; flushes (and optionally fsyncs)."""
        if not self._valid(record):
            raise ClusterError(f"not a {type(self).__name__} record: {record!r}")
        line = _line(record)
        compactor: Optional[threading.Thread] = None
        with self._lock:
            self._write_line(line)
            self.n_appended += 1
            self._appends_since_compact += 1
            if (
                self.COMPACT_EVERY > 0
                and self._appends_since_compact >= self.COMPACT_EVERY
                and (self._compactor is None or not self._compactor.is_alive())
            ):
                # Off the caller's thread: append() runs on the router/
                # service event loop, and compaction reads + rewrites
                # the file.  The thread is started via the *local* —
                # racing appenders may each create a thread (harmless,
                # compaction is idempotent and serialised), but nobody
                # ever start()s an object another thread replaced.
                compactor = threading.Thread(
                    target=lambda: self.compact(only_if_worthwhile=True),
                    name=f"repro-{type(self).__name__.lower()}-compact",
                    daemon=True,
                )
                self._compactor = compactor
                self._appends_since_compact = 0
        if compactor is not None:
            compactor.start()

    def _write_line(self, line: bytes) -> None:
        if self._file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self.path, "ab+")
            # Seal a torn final line from a previous crash before
            # appending: without its newline, the torn fragment and the
            # next record would merge into one corrupt line, losing a
            # good record along with the torn one.
            if self._file.seek(0, os.SEEK_END) > 0:
                self._file.seek(-1, os.SEEK_END)
                if self._file.read(1) != b"\n":
                    self._file.write(b"\n")
        self._file.write(line)
        self._file.flush()
        if self.fsync:
            os.fsync(self._file.fileno())

    # -- reading ---------------------------------------------------------------
    def _read(self, max_bytes: Optional[int] = None) -> Iterator[Record]:
        """This schema's records in file order, skipping corrupt lines.

        *max_bytes* bounds the scan to a prefix (always a line boundary
        for sizes observed under the append lock) — the compaction
        snapshot uses it so concurrent appends land beyond the bound.
        Only a full read updates :attr:`n_corrupt`.
        """
        n_corrupt = 0
        consumed = 0
        if self.path.is_file():
            with open(self.path, "rb") as fh:
                for raw in fh:
                    if max_bytes is not None and consumed + len(raw) > max_bytes:
                        break
                    consumed += len(raw)
                    if not raw.strip():
                        continue
                    try:
                        record = json.loads(raw.decode("utf-8"))
                    except ValueError:  # UnicodeDecodeError included
                        record = None
                    if isinstance(record, dict) and self._valid(record):
                        yield record
                    else:
                        n_corrupt += 1
        if max_bytes is None:
            self.n_corrupt = n_corrupt

    # -- compaction ------------------------------------------------------------
    def compact(self, only_if_worthwhile: bool = False) -> int:
        """Rewrite the file down to what the schema's fold keeps.

        Returns the number of records (job log) or entries (result
        index) dropped.  *only_if_worthwhile* lets the schema skip a
        rewrite that would buy nothing.  Atomic: the new file is written
        beside the old and swapped in with ``os.replace``.

        Concurrency: the expensive phase (prefix fold + rewrite) runs
        against a byte-bounded snapshot *without* holding the append
        lock, so appends — which run on the router/service event loop —
        stay O(1) throughout; the lock is taken only to splice the
        records appended meanwhile onto the rewritten file and swap it
        in.  Whole compactions serialise on their own lock.
        """
        with self._compact_lock:
            with self._lock:
                if not self.path.is_file():
                    self._appends_since_compact = 0
                    return 0
                if self._file is not None:
                    self._file.flush()
                snapshot_size = self.path.stat().st_size

            # -- long phase: appends keep flowing past snapshot_size ----
            folded = self._fold(snapshot_size, only_if_worthwhile)
            if folded is None:
                with self._lock:
                    self._appends_since_compact = 0
                return 0
            kept, dropped = folded
            tmp = self.path.with_suffix(self.path.suffix + ".compact")
            self._write(tmp, "wb", map(_line, kept))

            # -- short phase: splice the concurrent tail, swap ----------
            with self._lock:
                with open(self.path, "rb") as src:
                    src.seek(snapshot_size)
                    tail = src.read()
                if tail:
                    self._write(tmp, "ab", [tail])
                if self._file is not None:
                    self._file.close()
                    self._file = None
                os.replace(tmp, self.path)
                self.n_compactions += 1
                self._appends_since_compact = 0
            return dropped

    def _write(self, path: Path, mode: str, chunks: Iterable[bytes]) -> None:
        """The compaction's file writes, synced when ``fsync`` is set."""
        with open(path, mode) as fh:
            fh.writelines(chunks)
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Close the append handle after any in-flight compaction, so a
        successor opening the same path never races this one's swap."""
        compactor = self._compactor
        if compactor is not None and compactor.is_alive():
            compactor.join()
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


# -- the job log ---------------------------------------------------------------

@dataclass
class PendingJob:
    """One incomplete job as replay reconstructs it."""

    job_id: str
    spec: Dict[str, Any]
    key: Optional[str] = None
    client: Optional[str] = None
    priority: int = 0
    submitted_at: float = 0.0
    node: Optional[str] = None  #: last assigned backend (router logs)
    backend_job_id: Optional[str] = None
    n_assigns: int = 0
    #: Its submit and latest assign record, as compaction rewrites them.
    records: List[Record] = field(default_factory=list, repr=False)


@dataclass
class JobLogReplay:
    """What a log scan found."""

    pending: "Dict[str, PendingJob]" = field(default_factory=dict)
    n_records: int = 0
    n_submitted: int = 0
    n_completed: int = 0

    @property
    def n_pending(self) -> int:
        return len(self.pending)


class JobLog(JsonlSegment):
    """The job WAL: three verbs over one job id.

    ``submit``
        The job exists: its wire spec (replayable), routing key, client
        and priority.
    ``assign``
        The job is placed: which backend node owns it (router-side
        only), and under which backend-local job id.
    ``complete``
        The job is finished (``done``/``failed``/``cancelled``/
        ``replayed``) and will never be replayed.

    A job is *pending* iff its ``submit`` has no ``complete``.  Replay
    returns pending jobs in submission order with their latest
    assignment, which is all a restarted process needs: re-admit
    (service) or re-route (router) each one.  Completion is therefore
    *at-most-once by construction only together with content
    addressing*: a job that finished just before the
    crash-without-``complete`` window replays as a fresh submission, and
    the backend's content-addressed
    :class:`~repro.engine.cache.ResultCache` collapses it into a cache
    hit instead of a second computation.  Compaction keeps each pending
    job's submit and latest assign, once completed records dominate.
    """

    COMPACT_EVERY = 512

    def _valid(self, record: Record) -> bool:
        rtype = record.get("type")
        return isinstance(record.get("job_id"), str) and (
            rtype == "assign"
            or (rtype == "submit" and isinstance(record.get("spec"), dict))
            or (rtype == "complete" and record.get("state") in COMPLETE_STATES)
        )

    # -- the three verbs -------------------------------------------------------
    def log_submit(
        self,
        job_id: str,
        spec: Dict[str, Any],
        key: Optional[str] = None,
        client: Optional[str] = None,
        priority: int = 0,
    ) -> None:
        self.append({
            "type": "submit",
            "job_id": job_id,
            "spec": spec,
            "key": key,
            "client": client,
            "priority": priority,
            "t": time.time(),
        })

    def log_assign(
        self,
        job_id: str,
        node: Optional[str] = None,
        backend_job_id: Optional[str] = None,
    ) -> None:
        self.append({
            "type": "assign",
            "job_id": job_id,
            "node": node,
            "backend_job_id": backend_job_id,
            "t": time.time(),
        })

    def log_complete(self, job_id: str, state: str) -> None:
        self.append({
            "type": "complete",
            "job_id": job_id,
            "state": state,
            "t": time.time(),
        })

    # -- reading ---------------------------------------------------------------
    def replay(self, max_bytes: Optional[int] = None) -> JobLogReplay:
        """Scan the log and reconstruct the pending-job set.

        Submission order is preserved (dict insertion order), so a
        restarted process re-admits jobs in the order clients submitted
        them.  ``assign`` records for unknown jobs (compacted-away
        submits) and duplicate ``complete`` records are tolerated.
        """
        out = JobLogReplay()
        for record in self._read(max_bytes):
            out.n_records += 1
            job_id = record["job_id"]
            rtype = record["type"]
            if rtype == "submit":
                out.n_submitted += 1
                out.pending[job_id] = PendingJob(
                    job_id=job_id,
                    spec=record["spec"],
                    key=record.get("key"),
                    client=record.get("client"),
                    priority=int(record.get("priority") or 0),
                    submitted_at=float(record.get("t") or 0.0),
                    records=[record],
                )
            elif rtype == "assign":
                job = out.pending.get(job_id)
                if job is not None:
                    job.node = record.get("node")
                    job.backend_job_id = record.get("backend_job_id")
                    job.n_assigns += 1
                    job.records[1:] = [record]
            elif out.pending.pop(job_id, None) is not None:
                out.n_completed += 1
        return out

    def _fold(self, max_bytes: int, only_if_worthwhile: bool) -> Folded:
        replay = self.replay(max_bytes)
        kept = [record for job in replay.pending.values() for record in job.records]
        dropped = replay.n_records - len(kept)
        # Compacting a mostly-live log buys nothing.
        if only_if_worthwhile and replay.pending and dropped < replay.n_pending:
            return None
        return kept, dropped


# -- the result index ----------------------------------------------------------

@dataclass
class IndexedResult:
    """One terminal job as the index remembers it."""

    job_id: str
    state: str
    key: Optional[str] = None  #: content-addressed request_key
    digest: Optional[str] = None  #: sha256 of the canonical result doc
    finished_at: float = 0.0


class ResultIndex(JsonlSegment):
    """The index of terminal jobs: last record per id wins.

    ``COMPACT_EVERY`` is both the cadence and the number of newest
    entries a compaction keeps; ``0`` keeps every entry.  A cadence
    tick skips the rewrite when every line read would survive it (no
    id superseded, nothing past the keep count); :meth:`compact`
    called directly always rewrites.
    """

    COMPACT_EVERY = 4096

    def _valid(self, record: Record) -> bool:
        job_id = record.get("job_id")
        return (isinstance(job_id, str) and job_id != ""
                and record.get("state") in TERMINAL_STATES)

    def record(
        self,
        job_id: str,
        state: str,
        key: Optional[str] = None,
        digest: Optional[str] = None,
    ) -> None:
        """Remember that *job_id* finished in *state*."""
        self.append({
            "job_id": job_id,
            "state": state,
            "key": key,
            "digest": digest,
            "t": time.time(),
        })

    @staticmethod
    def _latest(records: Iterable[Record]) -> "OrderedDict[str, Record]":
        """Each id's last record, oldest first.  Re-recording moves an id
        to the newest end, so compaction keeps recently-touched ids."""
        latest: "OrderedDict[str, Record]" = OrderedDict()
        for record in records:
            latest.pop(record["job_id"], None)
            latest[record["job_id"]] = record
        return latest

    def load(self) -> "OrderedDict[str, IndexedResult]":
        """Every remembered terminal job, oldest first, last record wins."""
        return OrderedDict(
            (job_id, IndexedResult(
                job_id=job_id,
                state=record["state"],
                key=record.get("key"),
                digest=record.get("digest"),
                finished_at=float(record.get("t") or 0.0),
            ))
            for job_id, record in self._latest(self._read()).items()
        )

    def _fold(self, max_bytes: int, only_if_worthwhile: bool) -> Folded:
        lines = list(self._read(max_bytes))
        records = list(self._latest(lines).values())
        keep = records[-self.COMPACT_EVERY:] if self.COMPACT_EVERY else records
        if only_if_worthwhile and len(keep) == len(lines):
            return None  # every line survives: a rewrite drops nothing
        return keep, len(records) - len(keep)
