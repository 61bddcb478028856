"""Gateway-layer workloads: what does the HTTP/SSE front cost?

Two questions, measured end to end against one
:class:`~repro.cluster.local.LocalCluster` started with
``gateway=True`` (router + gateway on one loop, thread backends —
this measures *protocol* overhead, so determinism beats core count):

``gateway_throughput``
    The same concurrent traffic driven twice — once through the
    gateway's REST+SSE surface, once through the router's TCP
    JSON-lines protocol — and the ratio of the two walls.  HTTP adds
    per-request framing and one connection per SSE stream, so the ratio
    is the honest price of curl-ability; it should stay a small
    constant factor, and the baseline gate holds it there.

``sse_latency``
    Submit → ack and submit → first SSE event, per job.  The
    streaming path's time-to-first-byte is what an operator watching a
    detection accumulate actually feels.

``scripts/bench_gateway.py`` wraps both into BENCH_gateway.json.
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List

from repro.bench.service import client_round
from repro.cluster.local import LocalCluster
from repro.errors import BenchmarkError
from repro.gateway.client import GatewayClient
from repro.service.protocol import scene_job

__all__ = ["gateway_throughput", "sse_latency"]


def _jobs(n_jobs: int, size: int, circles: int, iterations: int,
          strategy: str, seed: int) -> List[Dict[str, Any]]:
    return [
        scene_job(size=size, circles=circles, strategy=strategy,
                  iterations=iterations, seed=seed + i)
        for i in range(n_jobs)
    ]


def _drive_http(address, job) -> Dict[str, Any]:
    """One job through the gateway: submit, stream SSE to the terminal
    event, report the latency facts."""
    client = GatewayClient(address)
    started = time.perf_counter()
    ack = client.submit(job)
    ack_latency = time.perf_counter() - started
    first_event = None
    n_fragments = 0
    terminal = None
    for doc in client.stream(ack["job_id"]):
        if first_event is None and doc.get("event"):
            first_event = time.perf_counter() - started
        name = doc.get("event")
        if name == "partition":
            n_fragments += 1
        if name in ("result", "error", "cancelled"):
            terminal = doc
            break
    if terminal is None or terminal.get("event") != "result":
        raise BenchmarkError(
            f"gateway job did not complete: {terminal!r}"
        )
    return {
        "latency_seconds": time.perf_counter() - started,
        "ack_seconds": ack_latency,
        "first_event_seconds": first_event,
        "n_fragments": n_fragments,
        "cached": bool(terminal.get("cached")),
    }


def _http_round(address, jobs) -> Dict[str, Any]:
    watch = time.perf_counter()
    with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
        rows = list(pool.map(lambda job: _drive_http(address, job), jobs))
    wall = time.perf_counter() - watch
    latencies = [r["latency_seconds"] for r in rows]
    return {
        "wall_seconds": wall,
        "jobs_per_second": len(rows) / wall if wall > 0 else float("inf"),
        "latency_mean_seconds": statistics.fmean(latencies),
        "latency_max_seconds": max(latencies),
        "ack_mean_seconds": statistics.fmean(r["ack_seconds"] for r in rows),
        "n_cached": sum(1 for r in rows if r["cached"]),
        "n_fragments": sum(r["n_fragments"] for r in rows),
    }


def gateway_throughput(
    n_jobs: int = 8,
    size: int = 48,
    circles: int = 4,
    iterations: int = 300,
    workers: int = 1,
    n_backends: int = 2,
    strategy: str = "intelligent",
    seed: int = 0,
) -> Dict[str, Any]:
    """The same traffic through HTTP/SSE and through TCP JSON-lines.

    Distinct seeds per round (no cache cross-talk), same cluster for
    both rounds — only the protocol differs, so the overhead ratio
    isolates the HTTP front's cost.
    """
    with LocalCluster(
        n_backends=n_backends, mode="thread", workers=workers,
        queue_size=max(8, n_jobs), router_log=False, gateway=True,
    ) as cluster:
        http = _http_round(
            cluster.gateway_address,
            _jobs(n_jobs, size, circles, iterations, strategy, seed),
        )
        tcp = client_round(
            cluster.address,
            _jobs(n_jobs, size, circles, iterations, strategy,
                  seed + 10_000),
        )
        tcp.pop("jobs", None)
    return {
        "config": {
            "n_jobs": n_jobs, "n_backends": n_backends, "workers": workers,
            "size": size, "circles": circles, "iterations": iterations,
            "strategy": strategy,
        },
        "http": http,
        "tcp": tcp,
        # >1 means HTTP was slower; the gate keeps it a small constant.
        "overhead_ratio": http["wall_seconds"] / tcp["wall_seconds"],
    }


def sse_latency(
    n_jobs: int = 6,
    size: int = 48,
    circles: int = 4,
    iterations: int = 300,
    workers: int = 2,
    strategy: str = "intelligent",
    seed: int = 500,
) -> Dict[str, Any]:
    """Submit → ack and submit → first-event latency, serially (no
    queueing noise — this measures the path, not the backlog)."""
    with LocalCluster(
        n_backends=1, mode="thread", workers=workers,
        queue_size=max(8, n_jobs), router_log=False, gateway=True,
    ) as cluster:
        rows = [
            _drive_http(cluster.gateway_address, job)
            for job in _jobs(n_jobs, size, circles, iterations,
                             strategy, seed)
        ]
    firsts = [r["first_event_seconds"] for r in rows
              if r["first_event_seconds"] is not None]
    if not firsts:
        raise BenchmarkError("no SSE events observed at all")
    return {
        "config": {"n_jobs": n_jobs, "workers": workers, "size": size,
                   "circles": circles, "iterations": iterations},
        "ack_mean_seconds": statistics.fmean(r["ack_seconds"] for r in rows),
        "first_event_mean_seconds": statistics.fmean(firsts),
        "first_event_max_seconds": max(firsts),
    }
