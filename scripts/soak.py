#!/usr/bin/env python
"""Emit the BENCH_soak.json endurance artifact for the cluster stack.

Drives a zipfian detection workload against a :class:`LocalCluster`
for minutes at a time while a fault injector kills and revives
backends on a fixed cadence, then gates on *monotonic drift*: the
last load window must not show a degraded p99, a growing
``tracemalloc`` footprint, or a collapsed cache hit rate relative to
the first window.  A steady-state system wobbles; a leaking or
degrading one trends — the window comparison catches the trend
without flaking on the wobble.

The zipfian key distribution matters: a small hot set of scene seeds
keeps the ResultCache and the router's affinity map doing real work,
so the drift gates also cover the caching layers, not just the MCMC
kernel.  Fault kills wipe the dead backend's in-memory cache, so the
hit rate must *recover* after each revive — exactly the behaviour the
gate checks.

A pre-soak probe also A/Bs the span-collection cost (collector on vs
off, interleaved direct engine runs) and gates the overhead under
``--trace-overhead-tolerance`` — distributed tracing must stay
invisible at kernel granularity.  The A/B runs on a collector
pre-filled past its capacity, the state a long-lived server is in, and
the probe also gates the cost of one empty span there against the cost
on an empty collector (``span_cost_us_saturated`` ≤ 3×
``span_cost_us_empty``): filing a span must not get dearer with
history.

Connection reuse is gated too: over the last load window (steady state
— the fault cycle leaves it alone) the backends may accept at most
``CONNECTIONS_PER_JOB_LIMIT`` new connections per completed job.  The
router borrows pooled connections for submits, streams and probes, so
the honest number is ~0; a return to a connection per job reads 1.0.
``memo_hit_ratio`` (the router's fingerprint memo over the same window)
is reported next to it.

Exit codes: 0 clean, 1 on drift, 2 on a harness error (no successful
jobs at all).  Cross-commit speed is the ledger's job
(``python3 ledger/run.py``); this script gates only within one run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import threading
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro._version import __version__  # noqa: E402
from repro.cluster.local import LocalCluster  # noqa: E402
from repro.errors import ServiceError  # noqa: E402
from repro.service import ServiceClient, scene_job  # noqa: E402

MiB = 1024 * 1024

#: Metric-name prefixes that prove a layer reported into the final
#: ``op:metrics`` scrape (the gateway layer only exists when the soak
#: runs behind a gateway, which it deliberately does not).
LAYER_PREFIXES = {
    "engine": "engine_",
    "service": "service_",
    "cluster": "cluster_",
    "trace": "trace_span_seconds",
}


def percentile(sorted_values, p):
    """Legacy-exact percentile: ``sorted[min(n-1, (p*n)//100)]``."""
    n = len(sorted_values)
    if n == 0:
        return None
    return sorted_values[min(n - 1, (p * n) // 100)]


def zipf_weights(n_keys, s):
    return [1.0 / (rank + 1) ** s for rank in range(n_keys)]


class Workload:
    """Shared sample sink for the submitter threads."""

    def __init__(self):
        self.lock = threading.Lock()
        self.samples = []  # (t_rel_seconds, latency_seconds, cached)
        self.failures = []  # (t_rel_seconds, message)

    def ok(self, t_rel, latency, cached):
        with self.lock:
            self.samples.append((t_rel, latency, cached))

    def failed(self, t_rel, message):
        with self.lock:
            self.failures.append((t_rel, message))


def submitter(index, args, cluster, workload, stop, t_start):
    """One closed-loop client: zipfian key pick, detect, repeat.

    Connection errors are expected while a kill is in flight — the
    client is rebuilt and the loop continues; the drift gates see the
    failure only as a count, never as a crash.
    """
    rng = random.Random(args.seed * 1000 + index)
    keys = list(range(args.keys))
    weights = zipf_weights(args.keys, args.zipf_s)
    client = None
    try:
        while not stop.is_set():
            if client is None:
                client = ServiceClient(*cluster.address)
            seed = rng.choices(keys, weights=weights)[0]
            job = scene_job(size=args.size, circles=args.circles,
                            strategy="intelligent",
                            iterations=args.iterations, seed=seed)
            started = time.perf_counter()
            try:
                out = client.detect(job)
                workload.ok(time.monotonic() - t_start,
                            time.perf_counter() - started, out.cached)
            except (ServiceError, OSError) as exc:
                workload.failed(time.monotonic() - t_start,
                                f"{type(exc).__name__}: {exc}")
                try:
                    client.close()
                except Exception:
                    pass
                client = None
                time.sleep(0.2)
    finally:
        if client is not None:
            try:
                client.close()
            except Exception:
                pass


#: New backend connections per completed job tolerated at steady state.
CONNECTIONS_PER_JOB_LIMIT = 0.1


def n_windows(args):
    return max(3, min(10, int(args.duration // 15)))


def reuse_counters(cluster, workload):
    """Where the reuse counters stand: connections accepted per backend
    (over the router's ``op:metrics`` fan-out, which itself rides pooled
    connections), the router's own memo lookups, jobs completed."""
    with ServiceClient(*cluster.address) as client:
        families = client.metrics().get("metrics") or {}

    def samples(name):
        return (families.get(name) or {}).get("samples") or []

    return {
        "accepted": {
            s["labels"]["node"]: s["value"]
            for s in samples("service_connections_accepted_total")
            if "node" in s["labels"]
        },
        "memo": {
            s["labels"]["result"]: s["value"]
            for s in samples("spec_memo_lookups_total")
            if "node" not in s["labels"]
        },
        "jobs_ok": len(workload.samples),
    }


def reuse_doc(start, end):
    """Steady-state reuse between two :func:`reuse_counters` readings.
    A backend revived in between restarts its count from zero: what it
    has accepted since is then its whole reading."""
    if start is None:
        return {"connections_per_job": None, "memo_hit_ratio": None}
    connections = 0
    for node, after in end["accepted"].items():
        before = start["accepted"].get(node, 0)
        connections += after - before if after >= before else after
    jobs = end["jobs_ok"] - start["jobs_ok"]
    hits = end["memo"].get("hit", 0) - start["memo"].get("hit", 0)
    misses = end["memo"].get("miss", 0) - start["memo"].get("miss", 0)
    return {
        "window_jobs": jobs,
        "backend_connections_accepted": connections,
        "connections_per_job": (connections / jobs) if jobs else None,
        "memo_hit_ratio": (hits / (hits + misses)) if hits + misses else None,
    }


def run_fault_clock(args, cluster, workload, stop_at, memory_series,
                    fault_log, t_start):
    """The main-thread clock: memory sampling plus the kill/revive cycle.

    One backend at a time: kill at each cadence tick, revive at the
    next, rotating through the pool so every backend gets its turn to
    die.  The pool never drops below ``backends - 1`` healthy nodes.
    Returns the index still dead at the end (or None) and the
    :func:`reuse_counters` reading taken as the last window opened.
    """
    dead_index = None
    kill_cursor = 0
    next_fault = (t_start + args.fault_every) if args.fault_every > 0 else None
    steady_at = t_start + args.duration * (1 - 1 / n_windows(args))
    steady_start = None
    while time.monotonic() < stop_at:
        time.sleep(0.25)
        now = time.monotonic()
        memory_series.append((now - t_start,
                              tracemalloc.get_traced_memory()[0]))
        if steady_start is None and now >= steady_at:
            steady_start = reuse_counters(cluster, workload)
        if next_fault is None or now < next_fault:
            continue
        next_fault += args.fault_every
        t_rel = round(now - t_start, 3)
        if dead_index is None:
            if args.backends < 2:
                continue  # never kill the only backend
            if now + args.fault_every > stop_at:
                continue  # no time left to revive before the end
            dead_index = kill_cursor % args.backends
            kill_cursor += 1
            node = cluster.kill_backend(dead_index)
            fault_log.append({"t_seconds": t_rel, "action": "kill",
                              "node": node})
        else:
            node = cluster.revive_backend(dead_index)
            fault_log.append({"t_seconds": t_rel, "action": "revive",
                              "node": node})
            dead_index = None
    return dead_index, steady_start


def window_rows(args, workload, memory_series):
    """Bucket samples into fixed time windows for the drift gates."""
    count = n_windows(args)
    width = args.duration / count
    rows = []
    for w in range(count):
        lo, hi = w * width, (w + 1) * width
        lats = sorted(lat for t, lat, _ in workload.samples
                      if lo <= t < hi or (w == count - 1 and t >= hi))
        cached = [c for t, _, c in workload.samples
                  if lo <= t < hi or (w == count - 1 and t >= hi)]
        fails = sum(1 for t, _ in workload.failures
                    if lo <= t < hi or (w == count - 1 and t >= hi))
        mem = [b for t, b in memory_series
               if lo <= t < hi or (w == count - 1 and t >= hi)]
        rows.append({
            "index": w,
            "start_seconds": round(lo, 3),
            "end_seconds": round(hi, 3),
            "jobs_ok": len(lats),
            "jobs_failed": fails,
            "p50_seconds": percentile(lats, 50),
            "p99_seconds": percentile(lats, 99),
            "cache_hit_rate": (sum(cached) / len(cached)) if cached else None,
            "traced_memory_bytes": (sum(mem) / len(mem)) if mem else None,
        })
    return rows


def drift_checks(args, windows, workload, reuse):
    """First-window vs last-window drift gates, deliberately generous.

    The soak runs on shared CI hardware with faults mid-flight — the
    gates exist to catch *trends* (a leak, an unbounded queue, a cache
    that never recovers), so each carries slack far above run-to-run
    noise.
    """
    checks = []

    def add(name, ok, detail):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    first = next((w for w in windows if w["jobs_ok"] >= 3), None)
    last = next((w for w in reversed(windows) if w["jobs_ok"] >= 3), None)
    if first is None or last is None or first["index"] >= last["index"]:
        add("windows", False,
            "not enough samples to form first/last windows")
        return checks

    p99_limit = first["p99_seconds"] * args.p99_tolerance + 0.25
    add("p99_drift", last["p99_seconds"] <= p99_limit,
        f"last p99 {last['p99_seconds']:.3f}s vs limit {p99_limit:.3f}s "
        f"(first {first['p99_seconds']:.3f}s x{args.p99_tolerance})")

    mem_first = first["traced_memory_bytes"] or 0.0
    mem_last = last["traced_memory_bytes"] or 0.0
    mem_limit = mem_first * args.memory_tolerance + 16 * MiB
    add("memory_drift", mem_last <= mem_limit,
        f"last traced {mem_last / MiB:.1f}MiB vs limit "
        f"{mem_limit / MiB:.1f}MiB (first {mem_first / MiB:.1f}MiB)")

    rate_first = first["cache_hit_rate"] or 0.0
    rate_last = last["cache_hit_rate"] or 0.0
    add("cache_hit_rate", rate_last >= rate_first - 0.25,
        f"last hit rate {rate_last:.2f} vs first {rate_first:.2f} "
        "(allowance -0.25)")

    n_ok = len(workload.samples)
    n_failed = len(workload.failures)
    rate = n_failed / (n_ok + n_failed) if (n_ok + n_failed) else 1.0
    add("failure_rate", rate <= 0.25,
        f"{n_failed}/{n_ok + n_failed} jobs failed ({rate:.1%}, limit 25%)")

    add("liveness", all(w["jobs_ok"] >= 1 for w in windows),
        "every window completed at least one job")

    per_job = reuse["connections_per_job"]
    add("connections_per_job",
        per_job is not None and per_job <= CONNECTIONS_PER_JOB_LIMIT,
        "no job completed in the last window" if per_job is None else
        f"{reuse['backend_connections_accepted']:.0f} backend connections "
        f"accepted over {reuse['window_jobs']} steady-state jobs "
        f"({per_job:.3f}/job, limit {CONNECTIONS_PER_JOB_LIMIT})")
    return checks


#: Empty spans timed for each ``span_cost_us_*`` number.
SPAN_COST_SPANS = 10_000
#: How much dearer a span may be on a saturated collector than on an
#: empty one before retention counts as history-dependent.
SPAN_COST_SATURATED_LIMIT = 3.0


def saturate_collector():
    """Swap in a fresh global collector and fill it past capacity with
    finished traces — every tenth errored, durations spread so some sit
    above the moving p95, the head sampler taking its share of the rest
    — so protected and ordinary traces are both in play."""
    from repro.obs import Span, mark_trace, reset_collector

    collector = reset_collector()
    for i in range(4 * collector.max_traces):
        trace_id = f"soak-prefill-{i}"
        if i % 10 == 0:
            mark_trace(trace_id, error=True)
        collector.add(Span(name="soak.prefill", span_id=trace_id,
                           trace_id=trace_id, started=time.time(),
                           duration_seconds=0.001 * (1 + i % 23)))


def span_cost_us(n_spans):
    """Mean cost of one empty ``with trace(...)`` span, in µs, on the
    global collector as it stands."""
    from repro.obs import trace

    started = time.perf_counter()
    for _ in range(n_spans):
        with trace("soak.probe"):
            pass
    return 1e6 * (time.perf_counter() - started) / n_spans


def tracing_overhead_probe(args):
    """A/B the cost of span *collection* on direct engine runs.

    Interleaved rounds — collector on, collector off — over identically
    shaped (but distinctly seeded, so the result cache never answers)
    workloads.  Each round contributes one *paired* overhead sample
    (its off-arm it/s vs its on-arm it/s, adjacent in time, so machine
    drift cancels), and the gate compares the median pair against
    ``--trace-overhead-tolerance``.  Tracing is supposed to be
    invisible at kernel granularity; this keeps it that way.
    """
    from repro.bench.workloads import synthetic_workload
    from repro.engine import run
    from repro.obs import reset_collector
    from repro.obs.collect import set_collector_enabled

    iterations = max(args.iterations, 600)  # long enough to time honestly

    def once(seed):
        workload = synthetic_workload(size=args.size,
                                      n_circles=args.circles, seed=seed)
        request = workload.request("intelligent",
                                   iterations=iterations, seed=seed)
        started = time.perf_counter()
        run(request)
        return iterations / max(time.perf_counter() - started, 1e-9)

    once(9_000)  # warmup: imports, allocator, branch caches
    # The empty-collector cost, from batches too short to fill a fresh
    # collector; then everything else — the saturated cost and the A/B
    # — on a collector past capacity, which is what a server that has
    # been up for an hour files its spans into.
    batch = max(1, reset_collector().max_traces // 2)
    batch_costs = []
    for _ in range(SPAN_COST_SPANS // batch):
        reset_collector()
        batch_costs.append(span_cost_us(batch))
    cost_empty = sum(batch_costs) / len(batch_costs)
    saturate_collector()
    cost_saturated = span_cost_us(SPAN_COST_SPANS)
    arms = {True: [], False: []}
    pair_overheads = []
    seed = 9_001
    for round_index in range(args.trace_overhead_rounds):
        # Alternate which arm runs first so slow-start bias cancels.
        order = (True, False) if round_index % 2 == 0 else (False, True)
        for enabled in order:
            previous = set_collector_enabled(enabled)
            try:
                arms[enabled].append(once(seed))
            finally:
                set_collector_enabled(previous)
            seed += 1
        ips_on, ips_off = arms[True][-1], arms[False][-1]
        pair_overheads.append((ips_off - ips_on) / ips_off if ips_off else 0.0)
    ips_on = percentile(sorted(arms[True]), 50)
    ips_off = percentile(sorted(arms[False]), 50)
    overhead = percentile(sorted(pair_overheads), 50) or 0.0
    reset_collector()
    return {
        "rounds": args.trace_overhead_rounds,
        "iterations_per_second_collecting": round(ips_on, 1),
        "iterations_per_second_dark": round(ips_off, 1),
        "overhead_fraction": round(overhead, 4),
        "tolerance": args.trace_overhead_tolerance,
        "ok": overhead <= args.trace_overhead_tolerance,
        "span_cost_us_empty": round(cost_empty, 2),
        "span_cost_us_saturated": round(cost_saturated, 2),
        "span_cost_ok": (cost_saturated
                         <= SPAN_COST_SATURATED_LIMIT * cost_empty),
    }


def final_cluster_snapshot(cluster):
    """Router-side evidence: stats, the weighted cache summary, and
    which layers reported into the ``op:metrics`` fan-out."""
    with ServiceClient(*cluster.address) as client:
        stats = client.stats()
        metrics = client.metrics()
    families = metrics.get("metrics") or {}
    layers = sorted(layer for layer, prefix in LAYER_PREFIXES.items()
                    if any(name.startswith(prefix) for name in families))
    return {
        "n_failovers": stats.get("n_failovers"),
        "n_replayed": stats.get("n_replayed"),
        "n_affinity_hits": stats.get("n_affinity_hits"),
        "n_backends_healthy": stats.get("n_backends_healthy"),
        "cluster_cache": stats.get("cluster_cache"),
        "metric_families": len(families),
        "layers_covered": layers,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=float, default=90.0,
                        help="soak length in seconds (default 90)")
    parser.add_argument("--fault-every", type=float, default=30.0,
                        help="seconds between kill/revive ticks; 0 disables")
    parser.add_argument("--backends", type=int, default=3)
    parser.add_argument("--mode", choices=("thread", "process"),
                        default="thread")
    parser.add_argument("--concurrency", type=int, default=4,
                        help="closed-loop submitter threads")
    parser.add_argument("--keys", type=int, default=50,
                        help="distinct scene seeds in the zipfian key space")
    parser.add_argument("--zipf-s", type=float, default=1.1,
                        help="zipf skew (higher = hotter hot set)")
    parser.add_argument("--size", type=int, default=48)
    parser.add_argument("--circles", type=int, default=3)
    parser.add_argument("--iterations", type=int, default=200)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--p99-tolerance", type=float, default=3.0,
                        help="last-window p99 may be this multiple of the "
                             "first window's (plus 250ms slack)")
    parser.add_argument("--memory-tolerance", type=float, default=2.0,
                        help="last-window traced memory may be this multiple "
                             "of the first window's (plus 16MiB slack)")
    parser.add_argument("--trace-overhead-rounds", type=int, default=12,
                        help="interleaved on/off rounds for the span-"
                             "collection overhead gate; 0 disables")
    parser.add_argument("--trace-overhead-tolerance", type=float,
                        default=0.10,
                        help="largest tolerated fractional it/s loss with "
                             "span collection enabled (default 10%%)")
    parser.add_argument("--out", default="BENCH_soak.json")
    args = parser.parse_args(argv)

    overhead_doc = (tracing_overhead_probe(args)
                    if args.trace_overhead_rounds > 0 else None)

    tracemalloc.start()
    cluster = LocalCluster(n_backends=args.backends, mode=args.mode)
    cluster.start()
    workload = Workload()
    stop = threading.Event()
    memory_series = []
    fault_log = []
    t_start = time.monotonic()
    threads = [
        threading.Thread(target=submitter, daemon=True,
                         args=(i, args, cluster, workload, stop, t_start))
        for i in range(args.concurrency)
    ]
    try:
        for t in threads:
            t.start()
        dead_index, steady_start = run_fault_clock(
            args, cluster, workload, t_start + args.duration,
            memory_series, fault_log, t_start)
        stop.set()
        for t in threads:
            t.join(timeout=30.0)
        reuse = reuse_doc(steady_start, reuse_counters(cluster, workload))
        if dead_index is not None:
            node = cluster.revive_backend(dead_index)
            fault_log.append({"t_seconds": round(
                time.monotonic() - t_start, 3),
                "action": "revive", "node": node})
            time.sleep(1.0)  # let the probe loop mark it healthy
        cluster_doc = final_cluster_snapshot(cluster)
    finally:
        stop.set()
        cluster.stop()
        tracemalloc.stop()

    elapsed = time.monotonic() - t_start
    lats = sorted(lat for _, lat, _ in workload.samples)
    cached = [c for _, _, c in workload.samples]
    windows = window_rows(args, workload, memory_series)
    checks = drift_checks(args, windows, workload, reuse)
    if overhead_doc is not None:
        checks.append({
            "name": "tracing_overhead",
            "ok": overhead_doc["ok"],
            "detail": (
                f"span collection on: "
                f"{overhead_doc['iterations_per_second_collecting']} it/s, "
                f"off: {overhead_doc['iterations_per_second_dark']} it/s "
                f"({overhead_doc['overhead_fraction']:+.1%}, limit "
                f"{overhead_doc['tolerance']:.0%})"),
        })
        checks.append({
            "name": "span_cost_saturated",
            "ok": overhead_doc["span_cost_ok"],
            "detail": (
                f"empty span on a saturated collector: "
                f"{overhead_doc['span_cost_us_saturated']} us, on an empty "
                f"one: {overhead_doc['span_cost_us_empty']} us (limit "
                f"{SPAN_COST_SATURATED_LIMIT:g}x)"),
        })
    document = {
        "benchmark": "soak",
        "version": __version__,
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "config": {
            "duration_seconds": args.duration,
            "fault_every_seconds": args.fault_every,
            "backends": args.backends,
            "mode": args.mode,
            "concurrency": args.concurrency,
            "keys": args.keys,
            "zipf_s": args.zipf_s,
            "size": args.size,
            "iterations": args.iterations,
        },
        "totals": {
            "elapsed_seconds": round(elapsed, 3),
            "jobs_ok": len(lats),
            "jobs_failed": len(workload.failures),
            "jobs_per_second": round(len(lats) / elapsed, 3) if elapsed else 0,
            "p50_seconds": percentile(lats, 50),
            "p99_seconds": percentile(lats, 99),
            "cache_hit_rate": (sum(cached) / len(cached)) if cached else None,
            "peak_traced_memory_bytes": max(
                (b for _, b in memory_series), default=0),
            "connections_per_job": reuse["connections_per_job"],
            "memo_hit_ratio": reuse["memo_hit_ratio"],
        },
        "windows": windows,
        "faults": fault_log,
        "connection_reuse": reuse,
        "cluster": cluster_doc,
        "tracing_overhead": overhead_doc,
        "drift": {"checks": checks,
                  "ok": all(c["ok"] for c in checks)},
    }
    Path(args.out).write_text(json.dumps(document, indent=2))

    print(f"soak: {len(lats)} jobs ok, {len(workload.failures)} failed "
          f"over {elapsed:.1f}s ({document['totals']['jobs_per_second']} "
          f"jobs/s), {len(fault_log)} fault events")
    for check in checks:
        marker = "ok " if check["ok"] else "DRIFT"
        print(f"  [{marker}] {check['name']}: {check['detail']}")
    print(f"wrote {args.out}")

    if not lats:
        print("soak: no job completed — harness failure", file=sys.stderr)
        return 2
    if not document["drift"]["ok"]:
        failed = ", ".join(c["name"] for c in checks if not c["ok"])
        print(f"soak: drift detected in {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
