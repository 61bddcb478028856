"""Closed-loop drivers: the code that sends a workload into the program.

Two paths, matching the two kinds of workload:

* :func:`solo_pass` — the library user's path: ``request_from_wire`` →
  ``engine.run`` in this process, one request at a time;
* :func:`drive_jobs` — the operator's path: ``N_CLIENTS`` threads, each
  with its own client, each sending its next job only when the previous
  one reached its terminal event (closed loop, fixed job list).

Both return raw per-operation samples; turning samples into metrics is
:mod:`ledger.measure`'s job.  With a :class:`~ledger.spans.SpanLog` they
also record the ledger's spans around every call into the program.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine import PartitionResultEvent, ResultEvent, run, run_stream
from repro.gateway.client import GatewayClient
from repro.service.client import ServiceClient
from repro.service.protocol import TERMINAL_EVENTS, request_from_wire

from ledger.spans import SpanLog
from ledger.workloads import N_CLIENTS

#: A whole timed phase may not outlive this; past it the clients stop
#: sending and the rest of the fixed job list counts as failed (the
#: contract kills a run at 180 s, and a hung phase must not get there).
PHASE_DEADLINE_SECONDS = 110.0


def spin_ms(rounds: int = 20_000) -> float:
    """The noise guard: a fixed amount of small-array numpy work, about
    half a second on the reference host, shaped like the kernel's own
    (dispatch-bound elementwise ops on a window).  Timed before and
    after a workload; a disturbed host shows as the two disagreeing.
    Fewer *rounds* (smoke runs) are scaled up to the same unit."""
    ys, xs = np.mgrid[0:48, 0:48].astype(np.float64)
    thirds = []
    for _ in range(3):  # median of thirds: a blip is not a disturbed host
        began = time.perf_counter()
        inside = 0
        for i in range(rounds // 3):
            inside += int((np.hypot(xs - (i % 48), ys - 24.0) < 9.0).sum())
        if inside <= 0:  # consume the result inside the timed region
            raise AssertionError("spin produced no work")
        thirds.append(time.perf_counter() - began)
    return 3000.0 * sorted(thirds)[1] * (20_000 / rounds)


# -- solo: library calls -------------------------------------------------------

@dataclass
class SoloSample:
    strategy: str
    seconds: float
    circles: list
    partition_seconds: List[float]


def solo_pass(jobs: Sequence[Dict[str, Any]],
              spans: Optional[SpanLog] = None) -> List[SoloSample]:
    """Every job once, in order, through ``engine.run``.

    The timed region is what a library user waits for: building the
    request from the job spec and running it.  With *spans* the run
    goes through ``run_stream`` instead — bit-identical result, and the
    only way to see from outside when each partition finished — and
    records ``bench.request`` → ``engine.run`` → one child per
    partition.
    """
    out: List[SoloSample] = []
    for i, job in enumerate(jobs):
        began = time.perf_counter()
        request = request_from_wire(job)
        built = time.perf_counter()
        partitions: List[Tuple[float, float]] = []
        if spans is None:
            result = run(request)
        else:
            result = None
            for event in run_stream(request):
                if isinstance(event, PartitionResultEvent):
                    seen = time.perf_counter()
                    partitions.append((seen - event.report.elapsed_seconds, seen))
                elif isinstance(event, ResultEvent):
                    result = event.result
        ended = time.perf_counter()
        if spans is not None:
            request_id = f"{job['strategy']}-{i}"
            root = spans.add("bench.request", began, ended, request_id)
            engine = spans.add("engine.run", built, ended, request_id, parent=root)
            for start, end in partitions:
                spans.add("engine.partition", start, end, request_id, parent=engine)
        out.append(SoloSample(
            strategy=job["strategy"], seconds=ended - began,
            circles=list(result.circles),
            partition_seconds=[r.elapsed_seconds for r in result.reports],
        ))
    return out


# -- stack: jobs through a server ----------------------------------------------

@dataclass
class JobSample:
    """One job's outcome as its client saw it (times in seconds)."""

    index: int
    latency: float = 0.0
    first_event: float = 0.0
    cached: Optional[bool] = None
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None


class JobCall:
    """``call(job) -> (ack_time, first_event_time, terminal_document)``:
    submit one job and follow its event stream to the end, with times
    from ``time.perf_counter()``.  ``GatewayClient`` and
    ``ServiceClient`` spell submit/stream the same way, so one body
    serves HTTP/SSE and TCP; one instance per client thread."""

    def __init__(self, client) -> None:
        self.client = client

    def __call__(self, job: Dict[str, Any]) -> Tuple[float, float, Dict[str, Any]]:
        ack = self.client.submit(job)
        acked = time.perf_counter()
        first = None
        last: Dict[str, Any] = {}
        for doc in self.client.stream(ack["job_id"]):
            if doc.get("event"):  # the SSE stream opens with an ack frame
                if first is None:
                    first = time.perf_counter()
                last = doc
        return acked, first if first is not None else acked, last

    def close(self) -> None:
        close = getattr(self.client, "close", None)  # HTTP: a connection per call
        if close is not None:
            close()


def service_client(address: str) -> ServiceClient:
    """A connected JSON-lines client for ``HOST:PORT`` — a backend or a
    cluster router, the protocol is the same."""
    host, _, port = address.rpartition(":")
    return ServiceClient(host, int(port)).connect()


def gateway_call(address: str) -> JobCall:
    """Submit over ``POST /v1/jobs`` and follow the SSE stream."""
    return JobCall(GatewayClient(address))


def tcp_call(address: str) -> JobCall:
    """Submit and stream over one persistent JSON-lines connection."""
    return JobCall(service_client(address))


def one_job(call: JobCall, index: int, job: Dict[str, Any],
            spans: Optional[SpanLog] = None) -> JobSample:
    """Drive one job to its terminal event; never raises — an exception
    is a failed operation, recorded as such."""
    sample = JobSample(index=index)
    began = time.perf_counter()
    try:
        acked, first, last = call(job)
    except Exception as exc:  # boundary: any client/server failure fails the op
        sample.error = f"{type(exc).__name__}: {exc}"
        return sample
    ended = time.perf_counter()
    sample.latency = ended - began
    sample.first_event = first - began
    if last.get("event") == "result":
        sample.cached = bool(last.get("cached"))
        sample.result = last.get("result")
    else:
        sample.error = f"terminal event {last.get('event')!r}: {last.get('error')}"
    if last.get("event") not in TERMINAL_EVENTS:
        sample.error = "stream ended without a terminal event"
    if spans is not None:
        request_id = str(index)
        root = spans.add("bench.request", began, ended, request_id)
        spans.add("gateway.submit", began, acked, request_id, parent=root)
        spans.add("gateway.first_event", acked, first, request_id, parent=root)
        spans.add("gateway.stream_rest", first, ended, request_id, parent=root)
    return sample


@dataclass
class Phase:
    """A fixed job list driven to completion by the closed-loop clients."""

    wall: float
    samples: List[JobSample] = field(default_factory=list)


def drive_jobs(address: str, ops: Sequence[Tuple[int, Dict[str, Any]]],
               spans: Optional[SpanLog] = None) -> Phase:
    """Send ``ops`` (``(index, job)`` pairs) through the gateway from
    ``N_CLIENTS`` threads; client *k* owns ``ops[k::N_CLIENTS]``."""
    deadline = time.perf_counter() + PHASE_DEADLINE_SECONDS
    lanes: List[List[JobSample]] = [[] for _ in range(N_CLIENTS)]
    barrier = threading.Barrier(N_CLIENTS + 1)

    def client(k: int) -> None:
        call = gateway_call(address)
        barrier.wait()
        for index, job in ops[k::N_CLIENTS]:
            if time.perf_counter() > deadline:
                lanes[k].append(JobSample(index=index, error="phase deadline passed"))
                continue
            lanes[k].append(one_job(call, index, job, spans))

    threads = [threading.Thread(target=client, args=(k,), daemon=True)
               for k in range(N_CLIENTS)]
    for thread in threads:
        thread.start()
    barrier.wait()
    began = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - began
    samples = sorted((s for lane in lanes for s in lane), key=lambda s: s.index)
    return Phase(wall=wall, samples=samples)
