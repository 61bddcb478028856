"""Command-line interface: reproduce the paper's experiments by id.

Usage::

    python -m repro list                 # what can be reproduced
    python -m repro list --json          # ... machine-readable
    python -m repro run fig1             # regenerate one experiment
    python -m repro run arch --seed 7
    python -m repro detect --strategy intelligent --executor serial
    python -m repro detect --image scan.pgm          # one PGM from disk
    python -m repro detect --batch images/ --cache   # N PGMs, one pool
    python -m repro serve --port 7341 --workers 4 --cache
    python -m repro detect --server localhost:7341   # submit + stream
    python -m repro cluster serve --backend h1:7341 --backend h2:7341
    python -m repro cluster status --server localhost:7400 --json
    python -m repro gateway serve --backend h1:7341 --backend h2:7341
    python -m repro cluster status --gateway localhost:7500
    python -m repro cluster join --gateway localhost:7500 --node h3:7341
    python -m repro cluster leave --gateway localhost:7500 --node h3:7341
    python -m repro cluster drain --gateway localhost:7500 --wait
    python -m repro calibrate --save     # tune `auto` executor budgets
    python -m repro cache stats --json   # result-cache hit rates
    python -m repro quickstart           # end-to-end detection demo

``repro detect`` drives the unified detection engine
(:mod:`repro.engine`) on a synthetic scene: any registered strategy,
any executor, one request/result schema.  ``repro run`` wraps the same
machinery the benchmark suite uses (:mod:`repro.bench`), at reduced
iteration budgets where MCMC is involved, so each experiment finishes
in seconds to a couple of minutes.  For the asserted, archived versions
run ``pytest benchmarks/ --benchmark-only``.

**Batching & caching**: ``repro detect --batch DIR`` reads every
``*.pgm`` in DIR and runs them all through one shared executor pool
(pool start-up amortised across the dataset); add ``--cache`` and each
request's content-addressed digest is checked against the on-disk
result cache first, so re-runs over unchanged images skip the MCMC
entirely.  ``repro cache stats``/``repro cache clear`` inspect and
reset that store.

**Serving**: ``repro serve`` runs the asyncio detection service
(:mod:`repro.service`) — a job queue with priorities and backpressure
over a bounded engine worker pool, streaming per-partition results to
clients as chains finish.  ``repro detect --server HOST:PORT`` submits
the detect job there instead of running locally and prints events as
they stream in.  ``repro calibrate --save`` measures this host's
per-iteration cost and writes the calibration file the engine's
``auto`` executor selection loads its budgets from.

**Clustering**: ``repro cluster serve`` runs the shard router
(:mod:`repro.cluster`) in front of N ``repro serve`` backends — one
address, rendezvous-hashed cache-affine routing, health-probed failover,
a durable job log (``--log``) replayed across router restarts, and
per-client token-bucket quotas (``--quota-rate``).  The router speaks
the service protocol, so ``repro detect --server`` pointed at the router
works unchanged.  ``repro cluster status`` prints the router's view of
its backends, and ``repro cluster route`` answers where a given scene
job would be placed.  Give each backend ``--log``/``--node-id`` for
per-node job persistence and stable identity.

**Gateway**: ``repro gateway serve`` puts an HTTP/SSE front
(:mod:`repro.gateway`) over an in-process router (with ``--backend``)
or detection service (without) — ``POST /v1/jobs`` submits, ``GET
/v1/jobs/{id}/events`` streams the same event documents over SSE, and
``/admin/...`` is the cluster control plane.  The operator verbs
``repro cluster status|join|leave|drain --gateway HOST:PORT`` drive
that control plane: live backend membership, per-node drain-then-remove
(in-flight streams finish first), and whole-gateway drain mode.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict

from repro.utils.tables import Table, format_series

__all__ = ["main"]


def _run_fig1(seed: int) -> None:
    from repro.core.theory import fig1_series

    qgs = [i / 10 for i in range(11)]
    series = fig1_series(qgs, [2, 4, 8, 16])
    print(format_series(
        "Fig. 1 — predicted runtime fraction vs qg (tau_g = tau_l)",
        "qg", qgs, [(f"{s} processes", series[s]) for s in (2, 4, 8, 16)],
        precision=3,
    ))


def _run_fig2(seed: int) -> None:
    from repro.bench.harness import simulate_fig2_point
    from repro.geometry.rect import Rect
    from repro.parallel.machines import Q6600
    from repro.parallel.simcluster import simulate_sequential

    bounds = Rect(0, 0, 1024, 1024)
    seq = simulate_sequential(Q6600, 500_000, 150)
    t = Table("Fig. 2 (simulated Q6600) — 1024², 150 cells, 500k iterations",
              ["global phase (ms)", "runtime (s)", "fraction of sequential"])
    for tg in (0.002, 0.004, 0.006, 0.010, 0.020, 0.035, 0.050):
        sim = simulate_fig2_point(Q6600, 500_000, 0.4, tg, 150, bounds, seed=seed)
        t.add_row([tg * 1000, sim.total_seconds, sim.total_seconds / seq])
    t.add_row(["sequential", seq, 1.0])
    print(t.render())


def _run_arch(seed: int) -> None:
    from repro.bench.harness import simulate_architecture
    from repro.geometry.rect import Rect
    from repro.parallel.machines import PENTIUM_D, Q6600, XEON_2P

    bounds = Rect(0, 0, 1024, 1024)
    paper = {"Pentium-D": 0.38, "Q6600": 0.29, "Xeon-2P": 0.23}
    t = Table("§VII architecture study (simulated, 20 ms global phases)",
              ["machine", "sequential (s)", "periodic (s)", "reduction", "paper"],
              precision=3)
    for profile in (PENTIUM_D, Q6600, XEON_2P):
        r = simulate_architecture(profile, 500_000, 0.4, 150, bounds, seed=seed)
        t.add_row([profile.name, r.sequential_seconds, r.periodic_seconds,
                   f"{r.reduction:.1%}", f"{paper[profile.name]:.0%}"])
    print(t.render())


def _run_table1(seed: int) -> None:
    from repro.bench.workloads import bead_workload
    from repro.core.evaluation import evaluate_model
    from repro.engine import run
    from repro.imaging.density import estimate_count, estimate_count_by_area

    workload = bead_workload(scale=0.5)
    print("running intelligent partitioning on the bead image "
          f"({workload.n_truth} beads)...")
    result = run(workload.request(
        "intelligent", iterations=10_000, seed=seed, options={"min_gap": 14},
    ))
    bounds = workload.scene.image.bounds
    whole = estimate_count(workload.filtered, 0.5, workload.model.radius_mean)
    t = Table("Table I layout — intelligent partitioning",
              ["partition", "rel area", "# obj density", "# obj thresh",
               "t/iter (s)", "runtime (s)"], precision=3)
    for k, p in enumerate(result.reports):
        t.add_row([chr(ord("A") + k), p.rect.area / bounds.area,
                   estimate_count_by_area(whole, p.rect, bounds=bounds),
                   p.expected_count, p.seconds_per_iteration,
                   p.elapsed_seconds])
    print(t.render())
    rep = evaluate_model(result.circles, workload.scene.circles)
    print(f"detection F1: {rep.f1:.2f}")


def _run_fig4(seed: int) -> None:
    from repro.bench.workloads import bead_workload
    from repro.core.evaluation import evaluate_model
    from repro.engine import run

    workload = bead_workload(scale=0.5)
    print("running blind partitioning (2×2, overlap 1.1·r̄)...")
    result = run(workload.request("blind", iterations=8_000, seed=seed))
    t = Table("Fig. 4 — blind partitioning quadrants",
              ["quadrant", "runtime (s)", "est # obj"], precision=3)
    for k, p in enumerate(result.reports):
        t.add_row([f"Q{k}", p.elapsed_seconds, p.expected_count])
    print(t.render())
    m = result.merge
    print(f"merge: auto={m.n_auto_accepted} merged={m.n_merged} "
          f"corroborated={m.n_corroborated} disputed_kept={m.n_disputed_kept} "
          f"rescued={m.n_rescued}")
    rep = evaluate_model(result.circles, workload.scene.circles)
    print(f"detection F1: {rep.f1:.2f}")


def _run_spec(seed: int) -> None:
    from repro.bench.workloads import fig2_workload
    from repro.mcmc import MoveGenerator, PosteriorState, SpeculativeChain
    from repro.mcmc.speculative import speculative_speedup

    workload = fig2_workload(scale=0.25)
    t = Table("Speculative moves — empirical vs model",
              ["width n", "p_r", "empirical iters/round", "model"], precision=4)
    for width in (1, 2, 4, 8):
        post = PosteriorState(workload.filtered, workload.model)
        chain = SpeculativeChain(
            post, MoveGenerator(workload.model, workload.moves),
            width=width, seed=seed + width,
        )
        res = chain.run(6_000)
        p_r = res.stats.rejection_rate()
        t.add_row([width, p_r, res.iterations_per_round,
                   1.0 / speculative_speedup(p_r, width)])
    print(t.render())


def _run_live(seed: int) -> None:
    from repro.bench.workloads import fig2_workload
    from repro.core import PeriodicPartitioningSampler, PhaseSchedule
    from repro.core.periodic import grid_partitioner
    from repro.parallel import ProcessExecutor, SharedImage
    from repro.parallel.sharedmem import worker_initializer

    workload = fig2_workload(scale=0.5)
    spec, mc, img = workload.model, workload.moves, workload.filtered
    sched = PhaseSchedule(local_iters=6000, qg=mc.qg)
    part = grid_partitioner(150, 150)
    print("serial run...")
    serial = PeriodicPartitioningSampler(
        img, spec, mc, sched, partitioner=part, seed=seed).run(30_000)
    print("4-process run...")
    with SharedImage.create(img) as shm:
        with ProcessExecutor(4, initializer=worker_initializer,
                             initargs=shm.attach_args()) as ex:
            parallel = PeriodicPartitioningSampler(
                img, spec, mc, sched, partitioner=part, executor=ex,
                seed=seed).run(30_000)
    reduction = 1 - parallel.elapsed_seconds / serial.elapsed_seconds
    print(f"serial {serial.elapsed_seconds:.2f} s, "
          f"parallel {parallel.elapsed_seconds:.2f} s "
          f"-> reduction {reduction:.1%} (paper: 23%–38%)")


def _run_quickstart(seed: int) -> None:
    import repro

    scene, found, report = repro.quickstart_detect(seed=seed)
    print(f"truth {report.n_truth}, found {report.n_found}, "
          f"F1 {report.f1:.2f}, recall {report.recall:.2f}")


def _make_cache(args):
    from repro.engine import ResultCache

    return ResultCache(directory=args.cache_dir) if args.cache else None


def _run_detect_batch(args) -> int:
    """``repro detect --batch DIR``: every PGM in DIR through one pool."""
    from pathlib import Path

    from repro.bench.workloads import image_batch
    from repro.engine import run_batch
    from repro.errors import ConfigurationError
    from repro.imaging.pgm import read_pgm

    paths = sorted(Path(args.batch).glob("*.pgm"))
    if not paths:
        raise ConfigurationError(f"no .pgm files found in {args.batch}")
    batch = image_batch(
        [read_pgm(p) for p in paths],
        strategy=args.strategy,
        iterations=args.iterations,
        threshold=args.threshold,
        seed=args.seed,
    )
    cache = _make_cache(args)
    out = run_batch(batch, cache=cache, executor=args.executor)
    if cache is not None:
        cache.flush()
    if args.json:
        print(json.dumps({
            "batch": str(args.batch),
            "strategy": args.strategy,
            "executor": out.executor_kind,
            "n_images": len(out.items),
            "n_computed": out.n_computed,
            "n_cached": out.n_cached,
            "elapsed_seconds": out.elapsed_seconds,
            "items": [
                {"image": p.name,
                 "n_found": item.result.n_found,
                 "n_partitions": item.result.n_partitions,
                 "cached": item.cached,
                 "elapsed_seconds": item.result.elapsed_seconds}
                for p, item in zip(paths, out.items)
            ],
            "cache": cache.summary() if cache is not None else None,
        }))
        return 0
    print(f"batch of {len(out.items)} images, strategy {args.strategy}, "
          f"executor {out.executor_kind}")
    t = Table("Per-image report",
              ["image", "found", "partitions", "cached", "runtime (s)"],
              precision=3)
    for p, item in zip(paths, out.items):
        t.add_row([p.name, item.result.n_found, item.result.n_partitions,
                   "yes" if item.cached else "no",
                   item.result.elapsed_seconds])
    print(t.render())
    print(f"computed {out.n_computed}, from cache {out.n_cached}, "
          f"total {out.elapsed_seconds:.2f} s")
    return 0


def _run_detect_image(args) -> int:
    """``repro detect --image PATH.pgm``: one disk image, local run."""
    from repro.engine import DetectionBatch, request_for_image, run, run_batch
    from repro.imaging.pgm import read_pgm

    image = read_pgm(args.image)
    request = request_for_image(
        image,
        args.strategy,
        iterations=args.iterations,
        threshold=args.threshold,
        executor=args.executor,
        seed=args.seed,
    )
    cache = _make_cache(args)
    if cache is not None:
        result = run_batch(
            DetectionBatch(requests=[request]), cache=cache,
            executor=args.executor,
        ).results[0]
        cache.flush()
    else:
        result = run(request)
    if args.json:
        print(json.dumps({
            "image": str(args.image),
            "strategy": result.strategy,
            "executor": result.executor_kind,
            "width": image.width,
            "height": image.height,
            "n_found": result.n_found,
            "n_partitions": result.n_partitions,
            "elapsed_seconds": result.elapsed_seconds,
            "circles": [[c.x, c.y, c.r] for c in result.circles],
            "partitions": [
                {"rect": [r.rect.x0, r.rect.y0, r.rect.x1, r.rect.y1],
                 "expected_count": r.expected_count,
                 "n_found": r.n_found,
                 "elapsed_seconds": r.elapsed_seconds}
                for r in result.reports
            ],
        }))
        return 0
    print(f"strategy {result.strategy} on {args.image} "
          f"({image.width}x{image.height}), executor {result.executor_kind}")
    t = Table("Per-partition report",
              ["partition", "est count", "found", "runtime (s)"], precision=3)
    for k, r in enumerate(result.reports):
        t.add_row([k, r.expected_count, r.n_found, r.elapsed_seconds])
    print(t.render())
    print(f"found {result.n_found} circles in {result.elapsed_seconds:.2f} s")
    return 0


def _parse_server(address: str):
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        from repro.errors import ConfigurationError

        raise ConfigurationError(
            f"--server wants HOST:PORT, got {address!r}"
        )
    return host, int(port)


def _run_detect_server(args) -> int:
    """``repro detect --server HOST:PORT``: submit + stream remotely."""
    from repro.service import ServiceClient, pixels_job, scene_job

    if args.image:
        from repro.imaging.pgm import read_pgm

        job = pixels_job(
            read_pgm(args.image), strategy=args.strategy,
            iterations=args.iterations, seed=args.seed,
            threshold=args.threshold,
        )
        source = str(args.image)
    else:
        job = scene_job(
            size=args.size, circles=args.circles, strategy=args.strategy,
            iterations=args.iterations, seed=args.seed,
            threshold=args.threshold,
        )
        source = f"synthetic {args.size}x{args.size}"
    host, port = _parse_server(args.server)
    with ServiceClient(host, port) as client:
        reply = client.submit_wait(job, priority=args.priority)
        job_id = reply["job_id"]
        if not args.json:
            print(f"submitted {job_id} ({source}, strategy {args.strategy}, "
                  f"priority {args.priority}) to {host}:{port}"
                  + (" [cache hit]" if reply.get("cached") else ""))
        events = []
        result_doc = None
        failure = None
        cached = bool(reply.get("cached"))
        for event in client.stream(job_id):
            events.append(event)
            name = event.get("event")
            if name == "result":
                result_doc = event["result"]
                cached = bool(event.get("cached", cached))
            elif name == "error":
                failure = event.get("error", "unknown server error")
            elif name == "cancelled":
                failure = "job was cancelled"
            elif not args.json:
                if name == "planned":
                    print(f"  planned partition {event['index']} "
                          f"(est count {event['expected_count']:.2f})")
                elif name == "partition":
                    rep = event["report"]
                    print(f"  partition {event['index']} done: "
                          f"{rep['n_found']} found in "
                          f"{rep['elapsed_seconds']:.2f} s")
        if result_doc is None:
            if args.json:
                print(json.dumps({
                    "job_id": job_id,
                    "server": args.server,
                    "error": failure or "job ended without a result",
                }))
            print(f"error: job {job_id}: "
                  f"{failure or 'ended without a result'}", file=sys.stderr)
            return 2
    if args.json:
        print(json.dumps({
            "job_id": job_id,
            "server": args.server,
            "cached": cached,
            "n_events": len(events),
            "n_found": len(result_doc["circles"]),
            "n_partitions": len(result_doc["reports"]),
            "result": result_doc,
        }))
        return 0
    print(f"{job_id}: {len(result_doc['circles'])} circles across "
          f"{len(result_doc['reports'])} partitions"
          f"{' (cached)' if cached else ''}")
    return 0


def _run_detect(args) -> int:
    """``repro detect``: the engine on a synthetic scene, any strategy."""
    if args.server:
        return _run_detect_server(args)
    if args.batch:
        return _run_detect_batch(args)
    if args.image:
        return _run_detect_image(args)
    from repro.bench.workloads import synthetic_workload
    from repro.core.evaluation import evaluate_model
    from repro.engine import DetectionBatch, run, run_batch

    workload = synthetic_workload(
        size=args.size, n_circles=args.circles,
        threshold=args.threshold, seed=args.seed,
    )
    scene = workload.scene
    request = workload.request(
        args.strategy,
        iterations=args.iterations,
        executor=args.executor,
        seed=args.seed,
    )
    cache = _make_cache(args)
    if cache is not None:
        result = run_batch(
            DetectionBatch(requests=[request]), cache=cache,
            executor=args.executor,
        ).results[0]
        cache.flush()
    else:
        result = run(request)
    report = evaluate_model(result.circles, scene.circles)
    if args.json:
        print(json.dumps({
            "strategy": result.strategy,
            "executor": result.executor_kind,
            "n_tasks": result.n_tasks,
            "n_partitions": result.n_partitions,
            "n_truth": scene.n_circles,
            "n_found": result.n_found,
            "precision": report.precision,
            "recall": report.recall,
            "f1": report.f1,
            "elapsed_seconds": result.elapsed_seconds,
            "partitions": [
                {"rect": [r.rect.x0, r.rect.y0, r.rect.x1, r.rect.y1],
                 "expected_count": r.expected_count,
                 "n_found": r.n_found,
                 "iterations": r.iterations,
                 "elapsed_seconds": r.elapsed_seconds}
                for r in result.reports
            ],
        }))
        return 0
    print(f"strategy {result.strategy} on {args.size}x{args.size} scene "
          f"({scene.n_circles} artifacts), executor {result.executor_kind}")
    t = Table("Per-partition report",
              ["partition", "est count", "found", "runtime (s)"], precision=3)
    for k, r in enumerate(result.reports):
        t.add_row([k, r.expected_count, r.n_found, r.elapsed_seconds])
    print(t.render())
    print(f"found {result.n_found} (truth {scene.n_circles})  "
          f"precision {report.precision:.2f}  recall {report.recall:.2f}  "
          f"F1 {report.f1:.2f}  in {result.elapsed_seconds:.2f} s")
    return 0


def _run_serve(args) -> int:
    """``repro serve``: the asyncio detection service, foreground."""
    from repro.service import serve_forever

    serve_forever(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_size=args.queue_size,
        cache=_make_cache(args),
        executor=args.executor,
        job_log=args.log,
        node_id=args.node_id,
    )
    return 0


def _make_quota(args):
    if args.quota_rate is None:
        return None
    from repro.cluster import QuotaPolicy

    return QuotaPolicy(rate=args.quota_rate, burst=args.quota_burst)


def _run_gateway(args) -> int:
    """``repro gateway serve``: the HTTP/SSE front, foreground.

    With ``--backend`` it fronts an in-process shard router over those
    backends; without, it fronts an in-process detection service.
    """
    from repro.gateway import serve_gateway_forever

    if args.backend:
        from repro.cluster import ShardRouter

        def target_factory():
            return ShardRouter(
                backends=args.backend,
                job_log=args.log,
                result_index=args.result_index,
                replication_factor=args.replication_factor,
                quota=_make_quota(args),
                probe_interval=args.probe_interval,
                probe_timeout=args.probe_timeout,
            )
    else:
        from repro.service import DetectionService

        def target_factory():
            return DetectionService(
                workers=args.workers,
                queue_size=args.queue_size,
                cache=_make_cache(args),
                executor=args.executor,
                job_log=args.log,
                quota=_make_quota(args),
            )

    serve_gateway_forever(target_factory, host=args.host, port=args.port)
    return 0


def _print_cluster_cache_line(summary) -> None:
    """The cluster-wide weighted cache hit rate (total hits over total
    lookups across backends — per-node rates can't be averaged into
    this, idle nodes would be over-weighted)."""
    if not isinstance(summary, dict) or not summary.get("n_lookups"):
        return
    print(f"cluster cache: {summary['n_cache_hits']}/{summary['n_lookups']} "
          f"lookups hit ({summary['cache_hit_rate']:.1%} weighted)")


def _render_gateway_status(doc) -> None:
    gw = doc.get("gateway", {})
    target = doc.get("target", {})
    print(f"gateway fronting a {gw.get('target_role', '?')} "
          f"(up {gw.get('uptime_seconds', 0.0):.0f}s"
          f"{', DRAINING' if gw.get('draining') else ''})")
    t = Table("Gateway", ["field", "value"], precision=3)
    for key in ("n_requests", "n_submitted", "n_streams",
                "n_active_streams", "n_quota_rejections"):
        t.add_row([key, gw.get(key)])
    print(t.render())
    if target.get("role") == "router":
        rt = Table("Routing", ["field", "value"], precision=3)
        for key in ("n_submitted", "n_routed", "n_failovers",
                    "n_affinity_hits", "n_replayed", "n_backends_healthy"):
            rt.add_row([key, target.get(key)])
        print(rt.render())
        bt = Table("Backends",
                   ["node", "healthy", "draining", "assigned", "streams",
                    "queue depth", "cache hit rate"], precision=3)
        for row in target.get("backends", []):
            bt.add_row([row["node_id"], "yes" if row["healthy"] else "NO",
                        "yes" if row.get("draining") else "no",
                        row["n_assigned"], row.get("n_active_streams"),
                        row.get("queue_depth"), row.get("cache_hit_rate")])
        print(bt.render())
        _print_cluster_cache_line(target.get("cluster_cache"))
    else:
        st = Table("Service", ["field", "value"], precision=3)
        for key in ("queue_depth", "queue_capacity", "workers",
                    "n_submitted", "n_dispatched", "n_cache_hits",
                    "n_cache_misses", "cache_hit_rate", "n_rejected"):
            st.add_row([key, target.get(key)])
        print(st.render())
    if target.get("quota"):
        q = target["quota"]
        print(f"quota: {q['rate']:g} jobs/s (burst {q['burst']:g}), "
              f"{q['n_clients']} client(s), {q['n_rejected']} rejected")


def _run_cluster_gateway(args) -> int:
    """``repro cluster status|join|leave|drain --gateway`` — the HTTP
    operator verbs against a running gateway's control plane."""
    from repro.errors import ConfigurationError
    from repro.gateway import GatewayClient

    client = GatewayClient(args.gateway)
    if args.action == "status":
        doc = client.cluster()
        if args.json:
            print(json.dumps(doc))
        else:
            _render_gateway_status(doc)
        return 0
    if args.action == "join":
        if not args.node:
            raise ConfigurationError("cluster join needs --node HOST:PORT")
        reply = client.join(args.node)
        if args.json:
            print(json.dumps(reply))
        else:
            node = reply["node"]
            print(f"joined {node['node_id']} "
                  f"({'healthy' if node['healthy'] else 'UNREACHABLE'}); "
                  f"{reply['n_backends']} backend(s) in the pool")
        return 0
    if args.action == "leave":
        if not args.node:
            raise ConfigurationError("cluster leave needs --node HOST:PORT")
        reply = client.leave(args.node, drain=not args.no_drain, wait=args.wait)
        if args.json:
            print(json.dumps(reply))
        elif "removed" in reply:
            print(f"removed {reply['removed']}; "
                  f"{reply['n_backends']} backend(s) remain")
        else:
            print(f"draining {reply['draining']} "
                  f"({reply.get('active_streams', 0)} active stream(s)); "
                  f"it will be removed when they finish")
        return 0
    if args.action == "drain":
        reply = client.drain(wait=args.wait)
        if args.json:
            print(json.dumps(reply))
        else:
            state = "drained" if reply.get("drained") else (
                f"draining ({reply.get('active_streams', 0)} active stream(s))")
            print(f"gateway is {state}; new submissions are refused")
        return 0
    raise ConfigurationError(
        f"cluster {args.action} is not a --gateway operation"
    )


def _run_cluster(args) -> int:
    """``repro cluster serve|status|route|join|leave|drain``."""
    if args.action in ("join", "leave", "drain") or (
            args.action == "status" and args.gateway):
        from repro.errors import ConfigurationError

        if not args.gateway:
            raise ConfigurationError(
                f"cluster {args.action} needs --gateway HOST:PORT "
                "(the control plane lives on the HTTP gateway)"
            )
        return _run_cluster_gateway(args)
    if args.action == "serve":
        from repro.cluster import serve_cluster_forever

        serve_cluster_forever(
            backends=args.backend,
            host=args.host,
            port=args.port,
            job_log=args.log,
            result_index=args.result_index,
            replication_factor=args.replication_factor,
            quota=_make_quota(args),
            probe_interval=args.probe_interval,
            probe_timeout=args.probe_timeout,
        )
        return 0

    from repro.service import ServiceClient

    host, port = _parse_server(args.server)
    with ServiceClient(host, port) as client:
        if args.action == "route":
            from repro.service import scene_job

            reply = client.route(scene_job(
                size=args.size, circles=args.circles,
                strategy=args.strategy, iterations=args.iterations,
                seed=args.seed,
            ))
            if args.json:
                print(json.dumps(reply))
            else:
                print(f"key {reply['key'][:16]}… -> node {reply['node']}")
            return 0
        stats = client.stats()
    if args.json:
        print(json.dumps(stats))
        return 0
    role = stats.get("role", "service")
    print(f"{role} {stats.get('node_id', '?')} "
          f"(up {stats.get('uptime_seconds', 0.0):.0f}s)")
    if role != "router":
        t = Table("Service stats", ["field", "value"], precision=3)
        for key in ("queue_depth", "queue_capacity", "workers",
                    "n_submitted", "n_dispatched", "n_cache_hits",
                    "n_rejected", "n_replayed"):
            t.add_row([key, stats.get(key)])
        print(t.render())
        return 0
    t = Table("Routing", ["field", "value"], precision=3)
    for key in ("n_submitted", "n_routed", "n_failovers",
                "n_affinity_hits", "n_replayed", "n_backends_healthy"):
        t.add_row([key, stats.get(key)])
    print(t.render())
    bt = Table("Backends",
               ["node", "healthy", "assigned", "queue depth",
                "failures", "downs"], precision=0)
    for row in stats.get("backends", []):
        bt.add_row([row["node_id"], "yes" if row["healthy"] else "NO",
                    row["n_assigned"], row.get("queue_depth"),
                    row["n_failures"], row["n_downs"]])
    print(bt.render())
    _print_cluster_cache_line(stats.get("cluster_cache"))
    if stats.get("job_log"):
        log = stats["job_log"]
        print(f"job log: {log.get('path')} — "
              f"{log.get('n_appended')} record(s) this session, "
              f"{log.get('n_compactions')} compaction(s)")
    if stats.get("quota"):
        q = stats["quota"]
        print(f"quota: {q['rate']:g} jobs/s (burst {q['burst']:g}), "
              f"{q['n_clients']} client(s), {q['n_rejected']} rejected")
    return 0


def _render_metric_families(families) -> None:
    for name in sorted(families):
        doc = families[name]
        for sample in doc.get("samples", []):
            labels = sample.get("labels") or {}
            rendered = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            suffix = f"{{{rendered}}}" if rendered else ""
            if "value" in sample:
                print(f"{name}{suffix} {sample['value']:g}")
            elif "count" in sample:
                print(f"{name}{suffix} count={sample['count']} "
                      f"mean={sample['mean_seconds']:.6f}s "
                      f"p50={sample['p50_seconds']:.6f}s "
                      f"p99={sample['p99_seconds']:.6f}s "
                      f"max={sample['max_seconds']:.6f}s")


def _run_metrics(args) -> int:
    """``repro metrics``: one obs snapshot (or a ``--watch`` loop) from
    a running server/router (TCP ``op:metrics``) or gateway (HTTP
    ``GET /metrics?format=json``)."""
    import time as _time

    if args.gateway:
        from repro.gateway import GatewayClient

        gclient = GatewayClient(args.gateway)

        def fetch():
            return gclient.metrics(spans=args.spans)
    else:
        from repro.service import ServiceClient

        host, port = _parse_server(args.server)

        def fetch():
            with ServiceClient(host, port) as client:
                return client.metrics(spans=args.spans)

    first = True
    while True:
        if not first:
            _time.sleep(args.watch)
        first = False
        doc = fetch()
        if args.json:
            print(json.dumps(doc), flush=True)
        else:
            where = args.gateway or args.server
            role = doc.get("role", "gateway" if args.gateway else "?")
            node = doc.get("node_id") or doc.get("target_role") or ""
            print(f"-- metrics from {role} {node} @ {where} --")
            _render_metric_families(doc.get("metrics", {}))
            if args.spans:
                for span in doc.get("spans", []):
                    parent = span.get("parent_id") or "-"
                    node = (span.get("labels") or {}).get("node") or "-"
                    print(f"span {span.get('name')} "
                          f"{span.get('duration_seconds', 0.0):.6f}s "
                          f"node={node} "
                          f"id={span.get('span_id')} parent={parent}")
            sys.stdout.flush()
        if args.watch is None:
            return 0


def _run_trace(args) -> int:
    """``repro trace JOB_ID``: fetch one assembled cluster trace and
    render it — ASCII waterfall plus per-stage self-times and the
    critical path by default, the raw document with ``--json``."""
    from repro.obs import build_tree, critical_path, render_waterfall, \
        stage_self_times

    if args.gateway:
        from repro.gateway import GatewayClient

        doc = GatewayClient(args.gateway).trace(
            trace_id=args.job_id if args.trace_id else None,
            job_id=None if args.trace_id else args.job_id,
        )
    else:
        from repro.service import ServiceClient

        host, port = _parse_server(args.server)
        with ServiceClient(host, port) as client:
            doc = client.trace(
                trace_id=args.job_id if args.trace_id else None,
                job_id=None if args.trace_id else args.job_id,
            )
    if args.json:
        print(json.dumps(doc), flush=True)
        return 0
    spans = doc.get("spans") or []
    if not spans:
        print(f"no spans buffered for {args.job_id!r} (trace evicted, "
              "or the job never ran here)")
        return 1
    tree = build_tree(spans)
    print(f"-- trace {doc.get('trace')} "
          f"(job {doc.get('job_id') or args.job_id}, "
          f"{len(spans)} spans) --")
    print(render_waterfall(tree))
    stages = doc.get("stages") or stage_self_times(tree)
    total = sum(stages.values()) or 1.0
    print("\nper-stage self time:")
    for stage, seconds in sorted(stages.items(), key=lambda kv: -kv[1]):
        print(f"  {stage:<12} {seconds:.6f}s ({100.0 * seconds / total:.1f}%)")
    chain = doc.get("critical_path") or [
        {"name": s.get("name"),
         "node": (s.get("labels") or {}).get("node"),
         "duration_seconds": s.get("duration_seconds")}
        for s in critical_path(tree)
    ]
    print("\ncritical path:")
    print("  " + " -> ".join(
        f"{c.get('name')}[{c.get('node') or '-'}]"
        f" {c.get('duration_seconds') or 0.0:.4f}s"
        for c in chain))
    return 0


def _run_calibrate(args) -> int:
    """``repro calibrate``: measure τ(n), derive `auto` budgets, save."""
    from repro.bench.calibration import (
        calibrate_iteration_cost,
        derive_auto_budgets,
        save_calibration,
    )

    counts = [int(c) for c in args.features.split(",") if c.strip()]
    result = calibrate_iteration_cost(
        feature_counts=counts,
        iterations=args.iterations,
        image_size=args.size,
        seed=args.seed,
    )
    budgets = derive_auto_budgets(result)
    saved_to = None
    if args.save is not None:
        saved_to = str(save_calibration(result, args.save or None, budgets))
    if args.json:
        print(json.dumps({
            "tau_base": result.tau_base,
            "tau_per_feature": result.tau_per_feature,
            "samples": [[n, t] for n, t in result.samples],
            "auto_budgets": budgets.as_dict(),
            "saved_to": saved_to,
        }))
        return 0
    t = Table("Host calibration — seconds/iteration vs model size",
              ["n features", "s/iter"], precision=6)
    for n, tau in result.samples:
        t.add_row([n, tau])
    print(t.render())
    print(f"fit: tau(n) = {result.tau_base:.3g} + {result.tau_per_feature:.3g}·n")
    print(f"auto budgets: serial below {budgets.serial_budget:,} total "
          f"iterations, threads below {budgets.thread_budget:,}, "
          f"processes above")
    if saved_to:
        print(f"saved to {saved_to} (auto-selection loads it from here)")
    return 0


def _run_cache(args) -> int:
    """``repro cache stats|clear``: inspect the content-addressed store."""
    from repro.engine import ResultCache

    cache = ResultCache(directory=args.cache_dir)
    if args.action == "clear":
        n = cache.disk_entries
        cache.clear()
        if args.json:
            print(json.dumps({"cleared": n, "directory": args.cache_dir}))
        else:
            print(f"cleared {n} cached results from {args.cache_dir}")
        return 0
    summary = cache.summary()
    if args.json:
        print(json.dumps(summary))
        return 0
    t = Table(f"Result cache — {args.cache_dir}", ["field", "value"], precision=3)
    for field in ("disk_entries", "disk_bytes", "hits", "misses",
                  "stores", "evictions", "hit_rate"):
        t.add_row([field, summary[field]])
    print(t.render())
    return 0


EXPERIMENTS: Dict[str, tuple] = {
    "fig1": (_run_fig1, "Fig. 1: predicted runtime fraction vs qg (analytic)"),
    "fig2": (_run_fig2, "Fig. 2: runtime vs global-phase length (simulated Q6600)"),
    "arch": (_run_arch, "§VII: architecture study (three simulated machines)"),
    "table1": (_run_table1, "Table I: intelligent partitioning on the bead image"),
    "fig4": (_run_fig4, "Fig. 4/§IX: blind partitioning on the bead image"),
    "spec": (_run_spec, "Speculative moves: model vs empirical"),
    "live": (_run_live, "Live periodic-partitioning speedup on this host"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'On the Parallelisation of MCMC-based Image "
                    "Processing' (Byrd et al., 2010)",
    )
    sub = parser.add_subparsers(dest="command")
    lst = sub.add_parser("list", help="list reproducible experiments")
    lst.add_argument("--json", action="store_true",
                     help="machine-readable output (experiments + strategies)")
    run = sub.add_parser("run", help="run one experiment by id")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run.add_argument("--seed", type=int, default=0)
    detect = sub.add_parser(
        "detect",
        help="run the unified detection engine on a synthetic scene",
    )
    detect.add_argument("--strategy", default="intelligent",
                        help="registered strategy name "
                             "(naive, blind, intelligent, periodic, ...)")
    detect.add_argument("--executor", default="serial",
                        choices=["auto", "serial", "thread", "process"])
    detect.add_argument("--size", type=int, default=128,
                        help="synthetic scene edge length in pixels")
    detect.add_argument("--circles", type=int, default=10,
                        help="number of ground-truth artifacts")
    detect.add_argument("--iterations", type=int, default=2000,
                        help="per-partition budget (total for periodic)")
    detect.add_argument("--seed", type=int, default=0)
    detect.add_argument("--json", action="store_true",
                        help="machine-readable result")
    detect.add_argument("--image", metavar="PATH", default=None,
                        help="detect on one *.pgm image from disk instead "
                             "of a synthetic scene")
    detect.add_argument("--batch", metavar="DIR", default=None,
                        help="run every *.pgm in DIR through one shared "
                             "executor pool instead of a synthetic scene")
    detect.add_argument("--threshold", type=float, default=0.4,
                        help="foreground threshold for --image/--batch images")
    detect.add_argument("--server", metavar="HOST:PORT", default=None,
                        help="submit to a running `repro serve` instance and "
                             "stream per-partition results instead of "
                             "running locally")
    detect.add_argument("--priority", type=int, default=0,
                        help="job priority for --server submissions "
                             "(higher dequeues first)")
    detect.add_argument("--cache", action="store_true",
                        help="answer repeated requests from the on-disk "
                             "result cache (content-addressed; any changed "
                             "image/param/seed recomputes)")
    detect.add_argument("--cache-dir", default=".repro-cache",
                        help="result-cache directory (default: .repro-cache)")
    serve = sub.add_parser(
        "serve",
        help="run the asyncio detection service (job queue + streaming)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7341)
    serve.add_argument("--workers", type=int, default=2,
                       help="concurrent engine jobs (0: accept but never "
                            "dispatch; for debugging)")
    serve.add_argument("--queue-size", type=int, default=16,
                       help="max queued jobs before submissions are "
                            "rejected with retry_after")
    serve.add_argument("--executor", default=None,
                       choices=["auto", "serial", "thread", "process"],
                       help="force every job onto this executor kind "
                            "(default: honour each request)")
    serve.add_argument("--cache", action="store_true",
                       help="consult/fill the on-disk result cache")
    serve.add_argument("--cache-dir", default=".repro-cache")
    serve.add_argument("--log", metavar="PATH", default=None,
                       help="durable job log (JSON-lines WAL): pending "
                            "jobs survive a restart and are re-admitted")
    serve.add_argument("--node-id", default=None,
                       help="stable identity reported in stats "
                            "(default: a fresh svc-… id)")
    gateway = sub.add_parser(
        "gateway",
        help="HTTP/SSE gateway: REST job control over a service or cluster",
    )
    gateway.add_argument("action", choices=["serve"])
    gateway.add_argument("--host", default="127.0.0.1",
                         help="HTTP bind host")
    gateway.add_argument("--port", type=int, default=7500,
                         help="HTTP bind port (0 picks a free one)")
    gateway.add_argument("--backend", action="append", default=[],
                         metavar="HOST:PORT",
                         help="backend service address (repeatable); with "
                              "any, the gateway fronts an in-process shard "
                              "router, without it fronts an in-process "
                              "detection service")
    gateway.add_argument("--workers", type=int, default=2,
                         help="service-mode engine workers")
    gateway.add_argument("--queue-size", type=int, default=16,
                         help="service-mode queue capacity")
    gateway.add_argument("--executor", default=None,
                         choices=["auto", "serial", "thread", "process"],
                         help="service-mode executor override")
    gateway.add_argument("--cache", action="store_true",
                         help="service mode: consult/fill the result cache")
    gateway.add_argument("--cache-dir", default=".repro-cache")
    gateway.add_argument("--log", metavar="PATH", default=None,
                         help="durable job log for the fronted target")
    gateway.add_argument("--result-index", metavar="PATH", default=None,
                         help="router mode: durable index of terminal job "
                              "ids, answering status across restarts")
    gateway.add_argument("--replication-factor", type=int, default=1,
                         help="router mode: >= 2 mirrors each placement to "
                              "the key's rendezvous runner-up (warm standby)")
    gateway.add_argument("--quota-rate", type=float, default=None,
                         help="per-client sustained submissions/second")
    gateway.add_argument("--quota-burst", type=float, default=None)
    gateway.add_argument("--probe-interval", type=float, default=2.0)
    gateway.add_argument("--probe-timeout", type=float, default=5.0)
    cluster = sub.add_parser(
        "cluster",
        help="shard-router layer: one address over N repro serve backends",
    )
    cluster.add_argument("action", choices=["serve", "status", "route",
                                            "join", "leave", "drain"])
    cluster.add_argument("--backend", action="append", default=[],
                         metavar="HOST:PORT",
                         help="backend service address (repeatable); "
                              "required for `cluster serve`")
    cluster.add_argument("--host", default="127.0.0.1")
    cluster.add_argument("--port", type=int, default=7400)
    cluster.add_argument("--log", metavar="PATH", default=None,
                         help="durable router job log: routed jobs are "
                              "replayed across router restarts")
    cluster.add_argument("--result-index", metavar="PATH", default=None,
                         help="durable index of terminal job ids: finished "
                              "jobs answer status across router restarts")
    cluster.add_argument("--replication-factor", type=int, default=1,
                         help=">= 2 mirrors each placement to the key's "
                              "rendezvous runner-up as a warm standby")
    cluster.add_argument("--quota-rate", type=float, default=None,
                         help="per-client sustained submissions/second "
                              "(off when omitted)")
    cluster.add_argument("--quota-burst", type=float, default=None,
                         help="per-client burst capacity "
                              "(default: 2x the rate)")
    cluster.add_argument("--probe-interval", type=float, default=2.0,
                         help="seconds between backend health probes")
    cluster.add_argument("--probe-timeout", type=float, default=5.0)
    cluster.add_argument("--server", metavar="HOST:PORT",
                         default="127.0.0.1:7400",
                         help="router address for `cluster status/route`")
    cluster.add_argument("--gateway", metavar="HOST:PORT", default=None,
                         help="gateway address for the HTTP operator verbs "
                              "(status/join/leave/drain)")
    cluster.add_argument("--node", metavar="HOST:PORT", default=None,
                         help="backend node for `cluster join/leave`")
    cluster.add_argument("--no-drain", action="store_true",
                         help="`cluster leave`: remove immediately instead "
                              "of draining first")
    cluster.add_argument("--wait", action="store_true",
                         help="`cluster leave/drain`: block until the drain "
                              "completes")
    cluster.add_argument("--json", action="store_true",
                         help="machine-readable output")
    # route: which node would own this synthetic scene job
    cluster.add_argument("--strategy", default="intelligent")
    cluster.add_argument("--size", type=int, default=128)
    cluster.add_argument("--circles", type=int, default=10)
    cluster.add_argument("--iterations", type=int, default=2000)
    cluster.add_argument("--seed", type=int, default=0)
    metrics = sub.add_parser(
        "metrics",
        help="scrape the unified obs surface of a running server, "
             "router, or gateway",
    )
    metrics.add_argument("--server", metavar="HOST:PORT",
                         default="127.0.0.1:7341",
                         help="service/router address for the TCP "
                              "op:metrics verb (default: 127.0.0.1:7341)")
    metrics.add_argument("--gateway", metavar="HOST:PORT", default=None,
                         help="scrape GET /metrics?format=json on a gateway "
                              "instead (covers every layer behind it)")
    metrics.add_argument("--json", action="store_true",
                         help="print the raw exposition document")
    metrics.add_argument("--watch", nargs="?", const=2.0, type=float,
                         default=None, metavar="SECONDS",
                         help="refresh every SECONDS (default 2) until "
                              "interrupted")
    metrics.add_argument("--spans", action="store_true",
                         help="include the recent-span trace ring "
                              "(cluster-wide, node-labeled, when the "
                              "target is a router or gateway)")
    tracecmd = sub.add_parser(
        "trace",
        help="fetch one job's assembled cluster-wide trace tree and "
             "render it as an ASCII waterfall",
    )
    tracecmd.add_argument("job_id", metavar="JOB_ID",
                          help="router/service job id (or a raw trace "
                               "id with --trace-id)")
    tracecmd.add_argument("--server", metavar="HOST:PORT",
                          default="127.0.0.1:7341",
                          help="service/router address for the TCP "
                               "op:trace verb (default: 127.0.0.1:7341)")
    tracecmd.add_argument("--gateway", metavar="HOST:PORT", default=None,
                          help="fetch GET /v1/jobs/ID/trace on a gateway "
                               "instead (adds gateway request spans)")
    tracecmd.add_argument("--trace-id", action="store_true",
                          help="JOB_ID is a raw trace id, not a job id")
    render = tracecmd.add_mutually_exclusive_group()
    render.add_argument("--json", action="store_true",
                        help="print the raw assembled document")
    render.add_argument("--waterfall", action="store_true",
                        help="ASCII waterfall + critical path (default)")
    calibrate = sub.add_parser(
        "calibrate",
        help="measure this host's s/iteration and tune `auto` executor budgets",
    )
    calibrate.add_argument("--features", default="5,15,30",
                           help="comma-separated model sizes to time")
    calibrate.add_argument("--iterations", type=int, default=3000,
                           help="chain length per timing sample (>= 100)")
    calibrate.add_argument("--size", type=int, default=256,
                           help="calibration scene edge length")
    calibrate.add_argument("--seed", type=int, default=99)
    calibrate.add_argument("--save", nargs="?", const="", default=None,
                           metavar="PATH",
                           help="write the calibration file `auto` selection "
                                "loads (default path: .repro-calibration.json "
                                "or $REPRO_CALIBRATION)")
    calibrate.add_argument("--json", action="store_true",
                           help="machine-readable output")
    cache = sub.add_parser(
        "cache",
        help="inspect or clear the on-disk result cache",
    )
    cache.add_argument("action", choices=["stats", "clear"])
    cache.add_argument("--cache-dir", default=".repro-cache",
                       help="result-cache directory (default: .repro-cache)")
    cache.add_argument("--json", action="store_true",
                       help="machine-readable output")
    quick = sub.add_parser("quickstart", help="end-to-end detection demo")
    quick.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    if args.command == "list":
        if args.json:
            from repro.engine import available_strategies

            print(json.dumps({
                "experiments": {k: EXPERIMENTS[k][1] for k in sorted(EXPERIMENTS)},
                "strategies": available_strategies(),
            }))
            return 0
        t = Table("Experiments (python -m repro run <id>)", ["id", "description"])
        for key in sorted(EXPERIMENTS):
            t.add_row([key, EXPERIMENTS[key][1]])
        print(t.render())
        return 0
    from repro.errors import ReproError

    try:
        if args.command == "run":
            EXPERIMENTS[args.experiment][0](args.seed)
            return 0
        if args.command == "detect":
            return _run_detect(args)
        if args.command == "serve":
            return _run_serve(args)
        if args.command == "gateway":
            return _run_gateway(args)
        if args.command == "cluster":
            if args.action == "serve" and not args.backend:
                from repro.errors import ConfigurationError

                raise ConfigurationError(
                    "cluster serve needs at least one --backend HOST:PORT"
                )
            return _run_cluster(args)
        if args.command == "metrics":
            return _run_metrics(args)
        if args.command == "trace":
            return _run_trace(args)
        if args.command == "calibrate":
            return _run_calibrate(args)
        if args.command == "cache":
            return _run_cache(args)
        if args.command == "quickstart":
            _run_quickstart(args.seed)
            return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser.print_help()
    return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
