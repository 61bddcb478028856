#!/usr/bin/env python
"""Emit the BENCH_chaos.json fault-injection artifact for the cluster.

Where ``scripts/soak.py`` measures drift under a steady kill/revive
cadence, this harness drives a :class:`LocalCluster` through *scripted*
fault scenarios — SIGKILL mid-stream with a warm standby armed, a
same-port router restart, a torn write-ahead log, a slow node that
answers but never in time, a SIGSTOP'd process that is alive-but-frozen,
a backend restarted behind the router's idle pooled connections
— and hard-gates the self-healing invariants on each:

* **no lost acked job** — every job the router acked reaches a terminal
  state, across kills, restarts, and grey failures;
* **no duplicate side effects** — per-key results stay bit-identical
  (the content digest of a key's result never varies), so a promotion
  or failover never leaks a divergent second execution to a client;
* **bounded recovery** — the p99 of fault-to-recovered times stays
  under ``--recovery-limit``.

Scenarios that need real OS processes (SIGSTOP) self-skip in thread
mode; the CI ``chaos-short`` job runs thread mode, so the process-only
scenarios are local/nightly material.

Exit codes: 0 clean, 1 on a failed gate, 2 on a harness error (no
scenario produced evidence).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro._version import __version__  # noqa: E402
from repro.cluster.local import LocalCluster  # noqa: E402
from repro.errors import ServiceError  # noqa: E402
from repro.service import ServiceClient, scene_job  # noqa: E402


def percentile(sorted_values, p):
    """Legacy-exact percentile: ``sorted[min(n-1, (p*n)//100)]``."""
    n = len(sorted_values)
    if n == 0:
        return None
    return sorted_values[min(n - 1, (p * n) // 100)]


def _scrub_timing(node):
    """Strip wall-clock fields before digesting: ``elapsed_seconds``
    varies run to run even when the detection content is bit-identical,
    and the duplicate-side-effects gate cares about *content*."""
    if isinstance(node, dict):
        return {k: _scrub_timing(v) for k, v in node.items()
                if k != "elapsed_seconds"}
    if isinstance(node, list):
        return [_scrub_timing(v) for v in node]
    return node


def result_digest(result):
    """Canonical content digest of a terminal result document — the
    bit-identity the no-duplicate-side-effects gate compares."""
    blob = json.dumps(_scrub_timing(result), sort_keys=True,
                      separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def job_for(args, seed, iterations=None):
    return scene_job(size=args.size, circles=args.circles,
                     strategy="intelligent",
                     iterations=iterations or args.iterations, seed=seed)


def wait_until(predicate, timeout, interval=0.1):
    """Poll *predicate* until truthy; returns elapsed seconds or None."""
    t0 = time.monotonic()
    deadline = t0 + timeout
    while time.monotonic() < deadline:
        try:
            if predicate():
                return time.monotonic() - t0
        except (ServiceError, OSError):
            pass
        time.sleep(interval)
    return None


class Invariants:
    """The cross-scenario ledger the hard gates read.

    Every ack, every terminal state, every per-key digest, and every
    fault-to-recovered duration lands here; scenarios only *report*,
    the gates at the end *judge*.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.acked = []        # (scenario, job_id)
        self.terminal = set()  # (scenario, job_id)
        self.digests = {}      # (scenario, key) -> {digest, ...}
        self.recoveries = []   # (scenario, fault, seconds)
        self.failures = []     # (scenario, message)

    def ack(self, scenario, job_id):
        with self.lock:
            self.acked.append((scenario, job_id))

    def done(self, scenario, job_id, key=None, result=None):
        with self.lock:
            self.terminal.add((scenario, job_id))
            if key is not None and result is not None:
                self.digests.setdefault((scenario, key), set()).add(
                    result_digest(result))

    def recovered(self, scenario, fault, seconds):
        with self.lock:
            self.recoveries.append((scenario, fault, round(seconds, 3)))

    def failed(self, scenario, message):
        with self.lock:
            self.failures.append((scenario, message))

    def lost_acked(self):
        with self.lock:
            return [f"{s}:{j}" for s, j in self.acked
                    if (s, j) not in self.terminal]

    def divergent_keys(self):
        with self.lock:
            return [f"{s}:key={k}" for (s, k), ds in self.digests.items()
                    if len(ds) > 1]


def background_load(scenario, args, cluster, inv, stop):
    """One closed-loop zipfian submitter recording acks + digests.

    Connection errors are expected while faults are in flight; the
    client is rebuilt and the loop continues.  Every *acked* job id is
    streamed to its terminal event so the lost-acked-job gate has
    evidence either way.
    """
    rng = random.Random(args.seed * 7919 + sum(map(ord, scenario)))
    keys = list(range(args.keys))
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(args.keys)]
    client = None
    try:
        while not stop.is_set():
            if client is None:
                client = ServiceClient(*cluster.address)
            seed = rng.choices(keys, weights=weights)[0]
            try:
                ack = client.submit_wait(job_for(args, seed))
                inv.ack(scenario, ack["job_id"])
                out = client.collect(ack["job_id"])
                inv.done(scenario, ack["job_id"], key=seed,
                         result=out.result)
            except (ServiceError, OSError) as exc:
                inv.failed(scenario, f"{type(exc).__name__}: {exc}")
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


class load_running:
    """Context manager: background submitters for a scenario's duration."""

    def __init__(self, scenario, args, cluster, inv):
        self.stop = threading.Event()
        self.threads = [
            threading.Thread(target=background_load, daemon=True,
                             args=(scenario, args, cluster, inv, self.stop))
            for _ in range(args.load_concurrency)
        ]

    def __enter__(self):
        for t in self.threads:
            t.start()
        return self

    def __exit__(self, *exc):
        self.stop.set()
        for t in self.threads:
            t.join(timeout=30.0)


# -- scenarios -----------------------------------------------------------------

def scenario_standby_promotion(args, inv):
    """SIGKILL the primary mid-stream with ``replication_factor=2``:
    the warm standby must finish the job *without a fresh dispatch* —
    ``standby_promotions_total >= 1`` and ``n_routed`` unchanged."""
    name = "standby_promotion"
    with LocalCluster(n_backends=3, mode=args.mode,
                      replication_factor=2) as cluster:
        client = ServiceClient(*cluster.address)
        # Warm-up proves the pool works before any fault lands.
        client.detect(job_for(args, seed=1))
        mirrored_at_start = client.stats()["n_mirrored"]
        ack = client.submit(job_for(args, seed=2,
                                    iterations=args.long_iterations))
        inv.ack(name, ack["job_id"])
        node = None

        def routed():
            nonlocal node
            node = client.status(ack["job_id"]).get("node")
            return node is not None

        if wait_until(routed, timeout=10.0) is None:
            return {"name": name, "ok": False,
                    "detail": "job was never routed to a backend"}
        # The mirror is placed by an async side task after dispatch; a
        # kill that outraces it degrades (correctly) to plain failover.
        # This scenario gates the *promotion* path, so wait until the
        # standby is armed before pulling the trigger.
        if wait_until(
                lambda: client.stats()["n_mirrored"] > mirrored_at_start,
                timeout=10.0) is None:
            return {"name": name, "ok": False,
                    "detail": "standby was never mirrored"}
        before = client.stats()
        if client.status(ack["job_id"]).get("state") in (
                "done", "failed", "cancelled"):
            return {"name": name, "ok": False,
                    "detail": "job finished before the kill landed — "
                              "raise --long-iterations"}
        t_kill = time.monotonic()
        cluster.kill_backend(cluster.backend_index(node))
        out = client.collect(ack["job_id"])
        inv.done(name, ack["job_id"], key=2, result=out.result)
        inv.recovered(name, "kill-primary", time.monotonic() - t_kill)
        after = client.stats()
        client.close()
    promotions = after.get("n_standby_promotions", 0)
    ok = (out.result is not None and promotions >= 1
          and after["n_routed"] == before["n_routed"])
    return {
        "name": name, "ok": ok,
        "detail": (f"promotions={promotions}, "
                   f"n_routed {before['n_routed']}->{after['n_routed']}, "
                   f"mirrored={after.get('n_mirrored')}"),
        "stats": {"n_standby_promotions": promotions,
                  "n_mirrored": after.get("n_mirrored"),
                  "n_routed": after.get("n_routed"),
                  "n_failovers": after.get("n_failovers")},
    }


def scenario_router_restart(args, inv):
    """Same-port router restart: terminal job ids must still answer
    ``op:status`` afterwards (the durable result index), and in-flight
    acked work must be replayed to completion (the WAL)."""
    name = "router_restart"
    with LocalCluster(n_backends=2, mode=args.mode) as cluster:
        client = ServiceClient(*cluster.address)
        ack = client.submit_wait(job_for(args, seed=3))
        inv.ack(name, ack["job_id"])
        out = client.collect(ack["job_id"])
        inv.done(name, ack["job_id"], key=3, result=out.result)
        client.close()
        t_restart = time.monotonic()
        cluster.restart_router(settle=0.1)
        client = ServiceClient(*cluster.address)
        elapsed = wait_until(client.ping, timeout=15.0)
        if elapsed is None:
            return {"name": name, "ok": False,
                    "detail": "router did not answer after restart"}
        inv.recovered(name, "router-restart", time.monotonic() - t_restart)
        status = client.status(ack["job_id"])
        # New work must also flow on the recycled port.
        fresh = client.detect(job_for(args, seed=4))
        inv.done(name, fresh.job_id, key=4, result=fresh.result)
        client.close()
    ok = (status.get("state") == "done" and bool(status.get("restored"))
          and fresh.result is not None)
    return {
        "name": name, "ok": ok,
        "detail": (f"post-restart status state={status.get('state')!r} "
                   f"restored={status.get('restored')} "
                   f"digest={'yes' if status.get('digest') else 'no'}"),
    }


def scenario_torn_wal(args, inv):
    """Crash-consistency: tear the final WAL and index lines (a partial
    write with no newline), restart the router on the same files, and
    require a clean recovery — no crash, terminal history intact."""
    name = "torn_wal"
    with LocalCluster(n_backends=2, mode=args.mode) as cluster:
        client = ServiceClient(*cluster.address)
        ack = client.submit_wait(job_for(args, seed=5))
        inv.ack(name, ack["job_id"])
        out = client.collect(ack["job_id"])
        inv.done(name, ack["job_id"], key=5, result=out.result)
        client.close()
        for path in (cluster.router_log_path, cluster.router_index_path):
            with open(path, "ab") as fp:
                fp.write(b'{"torn": "half a rec')  # no trailing newline
        t_restart = time.monotonic()
        cluster.restart_router(settle=0.1)
        client = ServiceClient(*cluster.address)
        elapsed = wait_until(client.ping, timeout=15.0)
        if elapsed is None:
            return {"name": name, "ok": False,
                    "detail": "router did not survive the torn tail"}
        inv.recovered(name, "torn-wal-restart", time.monotonic() - t_restart)
        status = client.status(ack["job_id"])
        # The next append must seal the torn tail, not merge with it.
        fresh = client.detect(job_for(args, seed=6))
        inv.done(name, fresh.job_id, key=6, result=fresh.result)
        client.close()
    ok = status.get("state") == "done" and fresh.result is not None
    return {
        "name": name, "ok": ok,
        "detail": (f"status after torn tail: state={status.get('state')!r}, "
                   f"new work {'ok' if fresh.result is not None else 'FAILED'}"),
    }


def scenario_slow_node(args, inv):
    """Grey failure, thread mode: a node that answers — eventually.
    Latency above the probe timeout must get it marked down and routed
    around; clearing the latency must bring it back."""
    name = "slow_node"
    if args.mode != "thread":
        return {"name": name, "ok": True, "skipped": True,
                "detail": "latency injection needs mode='thread'"}
    with LocalCluster(n_backends=3, mode="thread",
                      probe_interval=0.25, probe_timeout=0.5) as cluster:
        client = ServiceClient(*cluster.address)
        client.detect(job_for(args, seed=7))

        def healthy(n):
            return lambda: client.stats()["n_backends_healthy"] == n

        cluster.set_backend_latency(0, 2.0)
        t_fault = time.monotonic()
        detected = wait_until(healthy(2), timeout=15.0)
        if detected is None:
            client.close()
            return {"name": name, "ok": False,
                    "detail": "slow node was never marked down"}
        with load_running(name, args, cluster, inv):
            time.sleep(args.load_seconds)
        cluster.set_backend_latency(0, 0.0)
        recovered = wait_until(healthy(3), timeout=15.0)
        client.close()
        if recovered is None:
            return {"name": name, "ok": False,
                    "detail": "slow node never recovered after the "
                              "latency cleared"}
        inv.recovered(name, "slow-node", time.monotonic() - t_fault)
    return {
        "name": name, "ok": True,
        "detail": (f"marked down in {detected:.2f}s, served around it, "
                   f"re-admitted {recovered:.2f}s after recovery"),
    }


def scenario_pause_resume(args, inv):
    """Grey failure, process mode: SIGSTOP freezes the primary
    mid-stream — sockets stay open, nothing answers.  A finite
    ``stream_timeout`` must fail the proxied stream over to a live
    node; SIGCONT must bring the frozen one back."""
    name = "pause_resume"
    if args.mode != "process":
        return {"name": name, "ok": True, "skipped": True,
                "detail": "SIGSTOP needs mode='process'"}
    with LocalCluster(n_backends=3, mode="process", stream_timeout=2.0,
                      probe_interval=0.25, probe_timeout=0.5) as cluster:
        client = ServiceClient(*cluster.address)
        client.detect(job_for(args, seed=8))
        ack = client.submit(job_for(args, seed=9,
                                    iterations=args.long_iterations))
        inv.ack(name, ack["job_id"])
        node = None

        def routed():
            nonlocal node
            node = client.status(ack["job_id"]).get("node")
            return node is not None

        if wait_until(routed, timeout=10.0) is None:
            client.close()
            return {"name": name, "ok": False,
                    "detail": "job was never routed to a backend"}
        index = cluster.backend_index(node)
        cluster.pause_backend(index)
        t_fault = time.monotonic()
        out = client.collect(ack["job_id"])
        inv.done(name, ack["job_id"], key=9, result=out.result)
        inv.recovered(name, "pause-failover", time.monotonic() - t_fault)
        cluster.resume_backend(index)
        recovered = wait_until(
            lambda: client.stats()["n_backends_healthy"] == 3, timeout=20.0)
        client.close()
    ok = out.result is not None and recovered is not None
    return {
        "name": name, "ok": ok,
        "detail": ("completed past a frozen primary; node "
                   f"{'re-admitted' if recovered is not None else 'LOST'} "
                   "after SIGCONT"),
    }


def scenario_pooled_restart(args, inv):
    """Restart every backend on its own port while the router holds
    idle pooled connections to it.  A stale socket is not a dead node:
    the next jobs must retry on fresh connections and complete where
    they belong — no acked job lost, no ``down`` transition, no
    failover."""
    name = "pooled_restart"
    seeds = range(20, 28)
    # Probes far apart: job traffic alone meets the restarted backends.
    with LocalCluster(n_backends=2, mode=args.mode,
                      probe_interval=600.0) as cluster:
        client = ServiceClient(*cluster.address)

        def run_jobs():
            for seed in seeds:
                ack = client.submit_wait(job_for(args, seed))
                inv.ack(name, ack["job_id"])
                out = client.collect(ack["job_id"])
                inv.done(name, ack["job_id"], key=seed, result=out.result)

        run_jobs()
        before = client.stats()
        t_fault = time.monotonic()
        for index in range(len(cluster.backends)):
            cluster.kill_backend(index)
            cluster.revive_backend(index)
        run_jobs()
        inv.recovered(name, "backend-restart", time.monotonic() - t_fault)
        after = client.stats()
        client.close()
    idle = [b["n_idle_connections"] for b in before["backends"]]
    downs = sum(b["n_downs"] for b in after["backends"])
    ok = (min(idle) >= 1 and downs == 0
          and after["n_failovers"] == before["n_failovers"])
    return {
        "name": name, "ok": ok,
        "detail": (f"idle connections at restart {idle}, "
                   f"down transitions {downs}, n_failovers "
                   f"{before['n_failovers']}->{after['n_failovers']}"),
    }


SCENARIOS = {
    "standby_promotion": scenario_standby_promotion,
    "router_restart": scenario_router_restart,
    "torn_wal": scenario_torn_wal,
    "slow_node": scenario_slow_node,
    "pause_resume": scenario_pause_resume,
    "pooled_restart": scenario_pooled_restart,
}


# -- gating / reporting --------------------------------------------------------

def hard_gates(args, results, inv):
    checks = []

    def add(name, ok, detail):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    ran = [r for r in results if not r.get("skipped")]
    add("scenarios", ran and all(r["ok"] for r in ran),
        f"{sum(1 for r in ran if r['ok'])}/{len(ran)} scenario gates held "
        f"({sum(1 for r in results if r.get('skipped'))} skipped)")

    lost = inv.lost_acked()
    add("no_lost_acked_job", not lost,
        "every acked job reached a terminal state" if not lost
        else f"{len(lost)} acked jobs never finished: {lost[:5]}")

    divergent = inv.divergent_keys()
    add("no_duplicate_side_effects", not divergent,
        "per-key results stayed bit-identical" if not divergent
        else f"{len(divergent)} keys produced divergent results: "
             f"{divergent[:5]}")

    recs = sorted(s for _, _, s in inv.recoveries)
    p99 = percentile(recs, 99)
    add("bounded_recovery",
        p99 is not None and p99 <= args.recovery_limit,
        f"recovery p99 {p99:.2f}s (limit {args.recovery_limit:.0f}s, "
        f"{len(recs)} samples)" if p99 is not None
        else "no recovery samples collected")
    return checks


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("thread", "process"),
                        default="thread")
    parser.add_argument("--scenarios", default=None,
                        help="comma-separated subset "
                             f"(default: all of {', '.join(SCENARIOS)})")
    parser.add_argument("--size", type=int, default=48)
    parser.add_argument("--circles", type=int, default=3)
    parser.add_argument("--iterations", type=int, default=200)
    parser.add_argument("--long-iterations", type=int, default=6000,
                        help="iterations for the jobs faults land on "
                             "mid-stream (must outlive the kill)")
    parser.add_argument("--keys", type=int, default=12,
                        help="distinct scene seeds in the background load")
    parser.add_argument("--load-concurrency", type=int, default=2)
    parser.add_argument("--load-seconds", type=float, default=6.0,
                        help="background-load window inside the "
                             "degraded phase of each scenario")
    parser.add_argument("--recovery-limit", type=float, default=20.0,
                        help="hard gate on the recovery-time p99")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--out", default="BENCH_chaos.json")
    args = parser.parse_args(argv)

    names = (args.scenarios.split(",") if args.scenarios
             else list(SCENARIOS))
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        parser.error(f"unknown scenarios: {', '.join(unknown)}")

    inv = Invariants()
    results = []
    t_start = time.monotonic()
    for name in names:
        print(f"chaos: scenario {name} ...", flush=True)
        try:
            result = SCENARIOS[name](args, inv)
        except Exception as exc:  # a crash is a failed gate, not a traceback
            result = {"name": name, "ok": False,
                      "detail": f"harness exception: "
                                f"{type(exc).__name__}: {exc}"}
        marker = ("skip" if result.get("skipped")
                  else "ok " if result["ok"] else "FAIL")
        print(f"  [{marker}] {result['detail']}", flush=True)
        results.append(result)
    elapsed = time.monotonic() - t_start

    checks = hard_gates(args, results, inv)
    recs = sorted(s for _, _, s in inv.recoveries)
    document = {
        "benchmark": "chaos",
        "version": __version__,
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "config": {
            "mode": args.mode,
            "scenarios": names,
            "size": args.size,
            "iterations": args.iterations,
            "long_iterations": args.long_iterations,
            "recovery_limit_seconds": args.recovery_limit,
        },
        "totals": {
            "elapsed_seconds": round(elapsed, 3),
            "scenarios_ok": sum(1 for r in results
                                if r["ok"] and not r.get("skipped")),
            "scenarios_skipped": sum(1 for r in results
                                     if r.get("skipped")),
            "jobs_ok": len(inv.terminal),
            "jobs_failed": len(inv.failures),
            "recovery_p50_seconds": percentile(recs, 50),
            "recovery_p99_seconds": percentile(recs, 99),
        },
        "scenarios": results,
        "recoveries": [{"scenario": s, "fault": f, "seconds": sec}
                       for s, f, sec in inv.recoveries],
        "gates": {"checks": checks, "ok": all(c["ok"] for c in checks)},
    }
    Path(args.out).write_text(json.dumps(document, indent=2))

    print(f"chaos: {document['totals']['scenarios_ok']} scenarios ok, "
          f"{len(inv.terminal)} jobs terminal, "
          f"recovery p99 {document['totals']['recovery_p99_seconds']}s "
          f"over {elapsed:.1f}s")
    for check in checks:
        marker = "ok " if check["ok"] else "FAIL"
        print(f"  [{marker}] {check['name']}: {check['detail']}")
    print(f"wrote {args.out}")

    if not inv.terminal:
        print("chaos: no job completed — harness failure", file=sys.stderr)
        return 2
    if not document["gates"]["ok"]:
        failed = ", ".join(c["name"] for c in checks if not c["ok"])
        print(f"chaos: gates failed: {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
