#!/usr/bin/env python
"""CI gateway guard: the HTTP/SSE front must change nothing but the wire.

Starts a 3-backend :class:`~repro.cluster.local.LocalCluster` with the
HTTP gateway in front (thread mode — determinism over throughput;
``ledger/run.py`` covers speed) and asserts the gateway's whole
correctness contract:

1. for all four strategies, a detection submitted over HTTP and
   streamed over SSE is bit-identical to a direct ``engine.run()``;
   repeated, each is a cache hit with the bit-identical result, answered
   by its submit reply alone — the gateway accepts no connection; and
   repeated again, the router answers it from its result memo — no
   backend's cache-hit counter moves;
2. every SSE data payload is byte-identical to the JSON line the TCP
   ``op: stream`` sends for the same job;
3. a backend killed mid-SSE-stream triggers failover and the stream
   still ends with the bit-identical result;
4. ``POST /admin/backends`` joins a live node that then serves routed
   jobs, and ``DELETE ?drain=true`` removes it without dropping an
   in-flight stream;
5. a drained gateway finishes in-flight streams but refuses new
   submissions with 503;
6. per-client quotas answer 429 with a ``Retry-After`` header;
7. a completed job's ``GET /v1/jobs/{id}/trace`` returns one assembled
   span tree — gateway, router, service, engine and at least one
   per-partition worker span, every span parent-linked to the gateway
   root and ``node``-labeled.

Exit status is non-zero on any violation.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.workloads import synthetic_workload  # noqa: E402
from repro.cluster import LocalCluster, QuotaPolicy  # noqa: E402
from repro.engine import run  # noqa: E402
from repro.errors import ClusterError, QuotaExceededError  # noqa: E402
from repro.service import ServiceClient, scene_job  # noqa: E402

SIZE = 64
CIRCLES = 4
ITERATIONS = 400
STRATEGIES = ("naive", "blind", "intelligent", "periodic")

SLOW = dict(size=96, circles=8, strategy="naive", iterations=6000, seed=4,
            options={"nx": 3, "ny": 3})


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def reference_circles(strategy: str, seed: int, size=SIZE, circles=CIRCLES,
                      iterations=ITERATIONS, options=None):
    workload = synthetic_workload(size=size, n_circles=circles, seed=seed)
    result = run(workload.request(strategy, iterations=iterations, seed=seed,
                                  options=options))
    return sorted((c.x, c.y, c.r) for c in result.circles)


def http_circles(doc) -> list:
    """The sorted circle tuples of a terminal SSE result document."""
    return sorted((x, y, r) for x, y, r in doc["result"]["circles"])


def wait_for(predicate, timeout: float, message: str) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    check(False, message)


def main() -> int:
    with LocalCluster(n_backends=3, mode="thread", workers=1,
                      gateway=True) as cluster:
        gw = cluster.gateway_client()
        host, port = cluster.gateway_address
        print(f"gateway: http://{host}:{port} fronting router "
              f"{cluster.address[0]}:{cluster.address[1]} over "
              f"{len(cluster.backends)} backends")

        # 1. four-strategy bit-parity through HTTP submit + SSE stream
        def section_one_job(strategy):
            return scene_job(size=SIZE, circles=CIRCLES, strategy=strategy,
                             iterations=ITERATIONS, seed=1)

        cold = {}
        for strategy in STRATEGIES:
            out = cold[strategy] = gw.detect(section_one_job(strategy))
            check(out.get("event") == "result" and
                  http_circles(out) == reference_circles(strategy, seed=1),
                  f"{strategy}: HTTP/SSE result bit-identical to engine.run()")

        # ... and warm: the same detects are cache hits whose submit
        # replies carry the result, so no SSE connection is opened.
        accepted = gw.cluster()["gateway"]["n_connections_accepted"]
        for strategy in STRATEGIES:
            out = gw.detect(section_one_job(strategy))
            check(out.get("cached") is True and
                  out.get("result") == cold[strategy]["result"],
                  f"{strategy}: warm repeat is a cache hit, bit-identical")
        check(gw.cluster()["gateway"]["n_connections_accepted"] == accepted,
              "warm repeats opened no gateway connection")

        # ... and warm again: the router remembers each key's born-done
        # result, so no backend sees these repeats at all.
        def backend_cache_hits():
            return sum(b.handle.service.stats()["n_cache_hits"]
                       for b in cluster.backends)

        hits = backend_cache_hits()
        for strategy in STRATEGIES:
            out = gw.detect(section_one_job(strategy))
            check(out.get("cached") is True and
                  out.get("result") == cold[strategy]["result"],
                  f"{strategy}: second warm repeat answered by the router, "
                  "bit-identical")
        check(backend_cache_hits() == hits,
              "second warm repeats reached no backend cache")

        # 2. SSE payloads byte-identical to the TCP op:stream lines.  The
        # job is terminal, so both transports replay the same history;
        # ack states can differ (live vs replay), event documents cannot.
        ack = gw.submit(scene_job(size=SIZE, circles=CIRCLES,
                                  strategy="intelligent",
                                  iterations=ITERATIONS, seed=2))
        sse_raw = [data for _ev, data in gw.stream_raw(ack["job_id"])]
        with ServiceClient(*cluster.address) as tcp:
            tcp_docs = list(tcp.stream(ack["job_id"]))
        tcp_raw = [json.dumps(d, separators=(",", ":")) for d in tcp_docs]
        sse_events = [r for r in sse_raw if '"event"' in r]
        tcp_events = [r for r in tcp_raw if '"event"' in r]
        check(bool(sse_events) and sse_events == tcp_events,
              f"all {len(sse_events)} SSE data payloads byte-identical "
              "to TCP stream lines")

        # 7. (numbered last, asserted here while the section-2 job is
        # fresh) distributed trace assembly: the terminal job's trace
        # endpoint returns one parent-linked, node-labeled span tree
        # covering every layer of the request path.
        trace_doc = gw.trace(job_id=ack["job_id"])
        spans = trace_doc.get("spans") or []
        names = {s["name"] for s in spans}
        check(bool(trace_doc.get("tree")) and bool(spans),
              f"trace endpoint returned an assembled tree "
              f"({len(spans)} spans)")
        check({"gateway.request", "cluster.submit", "service.run"} <= names
              and bool(names & {"engine.run", "engine.run_stream"})
              and "engine.partition" in names,
              "trace covers gateway, router, service, engine and "
              "per-partition worker spans")
        by_id = {s["span_id"]: s for s in spans}
        roots = [s for s in spans if not s.get("parent_id")
                 or s["parent_id"] not in by_id]
        check(len(roots) == 1 and roots[0]["name"] == "gateway.request",
              "every span parent-links back to the gateway request root")
        check(all((s.get("labels") or {}).get("node") for s in spans),
              "every assembled span carries a node label")

        # 3. kill a backend mid-SSE-stream; the stream must survive the
        # failover and still end with the bit-identical result
        ack = gw.submit(scene_job(**SLOW))
        index = cluster.backend_index(ack["node"])
        killed = threading.Event()

        def killer() -> None:
            time.sleep(0.3)
            cluster.kill_backend(index)
            killed.set()

        threading.Thread(target=killer, daemon=True).start()
        docs = list(gw.stream(ack["job_id"]))
        check(killed.is_set(), "backend was killed while the SSE stream ran")
        stats = gw.stats()
        expected = reference_circles(
            SLOW["strategy"], seed=SLOW["seed"], size=SLOW["size"],
            circles=SLOW["circles"], iterations=SLOW["iterations"],
            options=SLOW["options"],
        )
        check(docs[-1].get("event") == "result" and
              http_circles(docs[-1]) == expected,
              "SSE stream survived the kill, result still bit-identical "
              f"({stats['n_failovers']} failover(s))")

        # 4. control plane on the live router: join a node, see it serve
        # a routed job, then drain-remove it without dropping a stream
        from repro.service.server import serve_background

        spare = serve_background(workers=1, queue_size=8)
        try:
            new_id = "%s:%d" % spare.address
            reply = gw.join(new_id)
            check(reply["ok"] and reply["node"]["healthy"],
                  f"joined backend {new_id} probed healthy")
            with cluster.client() as tcp:
                for seed in range(100, 164):
                    spec = scene_job(size=SIZE, circles=CIRCLES,
                                     strategy="intelligent",
                                     iterations=ITERATIONS, seed=seed)
                    if tcp.route(spec)["node"] == new_id:
                        break
                else:
                    check(False, "found a spec rendezvous-routed to the "
                                 "joined node")
            ack = gw.submit(spec)
            check(ack["node"] == new_id and
                  list(gw.stream(ack["job_id"]))[-1]["event"] == "result",
                  "routed job served by the joined backend")

            slow_on_new = None
            with cluster.client() as tcp:
                for seed in range(10, 74):
                    candidate = dict(SLOW, seed=seed)
                    if tcp.route(scene_job(**candidate))["node"] == new_id:
                        slow_on_new = candidate
                        break
            check(slow_on_new is not None,
                  "found a slow spec owned by the joined node")
            ack = gw.submit(scene_job(**slow_on_new))
            got = {}

            def consume() -> None:
                got["docs"] = list(gw.stream(ack["job_id"]))

            streamer = threading.Thread(target=consume)
            streamer.start()
            wait_for(lambda: any(
                b["node_id"] == new_id and b["n_active_streams"] > 0
                for b in gw.cluster()["target"]["backends"]),
                timeout=30, message="stream attached to the joined node")
            gw.leave(new_id, drain=True)
            streamer.join(timeout=90)
            check(got.get("docs", [None])[-1] is not None and
                  got["docs"][-1].get("event") == "result" and
                  all(d.get("event") != "error" for d in got["docs"]),
                  "drain-removed node finished its in-flight stream")
            wait_for(lambda: new_id not in {
                b["node_id"] for b in gw.cluster()["target"]["backends"]},
                timeout=30, message="drained node removed from the pool")
            check(True, "drained node left the pool only after the stream")
        finally:
            spare.stop()

        # 5. gateway drain: in-flight streams finish, new submits get 503
        ack = gw.submit(scene_job(**dict(SLOW, seed=6)))
        got = {}

        def consume_drain() -> None:
            got["docs"] = list(gw.stream(ack["job_id"]))

        streamer = threading.Thread(target=consume_drain)
        streamer.start()
        time.sleep(0.2)
        reply = gw.drain()
        check(reply["ok"] and reply["draining"], "gateway entered drain mode")
        try:
            gw.submit(scene_job(size=SIZE, circles=CIRCLES,
                                iterations=ITERATIONS, seed=7))
        except ClusterError:
            check(True, "drained gateway refuses new submissions with 503")
        else:
            check(False, "drained gateway should refuse new submissions")
        streamer.join(timeout=90)
        check(got.get("docs", [None])[-1] is not None and
              got["docs"][-1].get("event") == "result",
              "in-flight SSE stream finished after the drain")
        check(gw.drain(wait=True)["drained"],
              "gateway reports fully drained once streams ended")

    # 6. quotas over HTTP: 429 with a Retry-After header
    quota = QuotaPolicy(rate=0.5, burst=2)
    with LocalCluster(n_backends=2, mode="thread", workers=1,
                      router_log=False, quota=quota,
                      gateway=True) as cluster:
        gw = cluster.gateway_client(client_id="greedy")
        gw.submit(scene_job(size=SIZE, circles=CIRCLES,
                            iterations=ITERATIONS, seed=10))
        gw.submit(scene_job(size=SIZE, circles=CIRCLES,
                            iterations=ITERATIONS, seed=11))
        try:
            gw.submit(scene_job(size=SIZE, circles=CIRCLES,
                                iterations=ITERATIONS, seed=12))
        except QuotaExceededError as exc:
            check(exc.retry_after > 0,
                  f"quota rejection carried retry_after="
                  f"{exc.retry_after:.2f}s")
        else:
            check(False, "third rapid submission should exceed the quota")
        host, port = cluster.gateway_address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        conn.request("POST", "/v1/jobs",
                     body=json.dumps({"job": scene_job(
                         size=SIZE, circles=CIRCLES,
                         iterations=ITERATIONS, seed=13)}),
                     headers={"X-Repro-Client": "greedy",
                              "Content-Type": "application/json"})
        response = conn.getresponse()
        retry_after = response.headers.get("Retry-After")
        response.read()
        conn.close()
        check(response.status == 429 and retry_after is not None
              and float(retry_after) > 0,
              f"429 response carried Retry-After: {retry_after}")

    print("gateway smoke: parity, SSE, failover, control plane, drain, "
          "quotas agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
