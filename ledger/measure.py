"""One run of one workload: set up, warm up, measure, check.

Two entry points per kind of workload.  ``measure_*`` is the untraced
run behind the end-to-end metrics; ``trace_*`` is the separate traced
run behind the per-layer metrics — it replays the workload at a quarter
of its op count twice, spans off and on (their throughput ratio is the
tracing overhead), climbs the layer ladder, and times each layer's
public functions directly.  Both return a :class:`Report`.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.evaluation import evaluate_model
from repro.engine import run
from repro.engine.cache import result_from_json
from repro.gateway.client import GatewayClient
from repro.service.protocol import request_from_wire

from ledger import deploy, layers, stats
from ledger.drive import (
    JobSample,
    Phase,
    drive_jobs,
    service_client,
    solo_pass,
    spin_ms,
)
from ledger.spans import SpanLog
from ledger.workloads import (
    N_CLIENTS,
    N_WORKERS,
    REFERENCE_SECONDS,
    Sizes,
    Workload,
    sized,
    solo_jobs,
    solo_scene,
    stack_jobs,
)

#: Untraced runs set up this many times and report the median.
SETUP_REPS = 3
#: Every this-many-th stack job is recomputed in process and compared.
VERIFY_EVERY = 16
#: Mean F1 below this is a wrong answer, whatever the digests say (they
#: compare the program with itself and would pass an empty model).
F1_FLOOR = 0.5
#: The tail metric's percentile.  Not the p95 the sample would support:
#: on stack-cold 5-8 % of jobs form a second, slower mode (+12 ms), so
#: the p95 sits on the knee between two modes and swings 14 % from run
#: to run on identical inputs, where the p90 moves 6 %.
TAIL_PERCENTILE = 90.0
#: Ladder ops at ``--seconds`` = REFERENCE_SECONDS.
LADDER_COLD_OPS = 60
LADDER_WARM_OPS = 600


@dataclass
class Report:
    """What one run measured and found."""

    metrics: Dict[str, float] = field(default_factory=dict)
    extras: Dict[str, Any] = field(default_factory=dict)  #: printed, not gated
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)  #: correctness failures

    def fail(self, what: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.problems) < 20:
            self.problems.append(what)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def _mean_f1(found_and_truth) -> float:
    return statistics.fmean(evaluate_model(f, t).f1 for f, t in found_and_truth)


def _imbalance(partition_seconds: Sequence[Sequence[float]]) -> float:
    """max / mean partition time, averaged over the requests that were
    split at all (1.0 = perfectly balanced)."""
    ratios = [max(p) / statistics.fmean(p) for p in partition_seconds
              if len(p) > 1 and statistics.fmean(p) > 0]
    return statistics.fmean(ratios) if ratios else 1.0


def _wire_circles(doc: Dict[str, Any]):
    return result_from_json(doc).circles


# -- solo ----------------------------------------------------------------------

def _serial_twin(job: Dict[str, Any]) -> Dict[str, Any]:
    twin = {k: v for k, v in job.items() if k != "n_workers"}
    twin["executor"] = "serial"
    return twin


def _short(jobs, iterations: int):
    return [dict(job, iterations=max(50, iterations // 10)) for job in jobs]


def cold_start(workload: Workload, seed: int, seconds: float) -> float:
    """Seconds a fresh interpreter needs to import the program, build
    this workload's requests and finish a first short pass — what a
    library user pays before the first result."""
    command = [sys.executable, str(Path(__file__).with_name("run.py")),
               "--cold-start", "--workload", workload.name,
               "--seed", str(seed), "--seconds", str(seconds)]
    began = time.perf_counter()
    child = subprocess.Popen(command, stdout=subprocess.DEVNULL,
                             stdin=subprocess.DEVNULL)
    try:
        # No timeout: a timed wait polls in steps of up to 50 ms, which
        # would quantise the very thing being measured.
        code = child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    elapsed = time.perf_counter() - began
    if code != 0:
        raise RuntimeError(f"cold-start child exited with code {code}")
    return elapsed


def cold_start_body(workload: Workload, seed: int, sizes: Sizes) -> None:
    """What the ``--cold-start`` child runs (see :func:`cold_start`)."""
    jobs = solo_jobs(workload, solo_scene(seed), seed, sizes.iterations)
    solo_pass(_short(jobs, sizes.iterations))


def _check_digests(report: Report, passes, reference: Optional[List[str]]) -> None:
    """Passes agree with each other bit for bit, and (solo-parallel)
    with the serial reference of the same requests."""
    first = [stats.circle_digest(s.circles) for s in passes[0]]
    for p, samples in enumerate(passes[1:], start=2):
        for s, want in zip(samples, first):
            if stats.circle_digest(s.circles) != want:
                report.fail(f"{s.strategy}: pass {p} differs from pass 1")
    if reference is not None:
        for s, got, want in zip(passes[0], first, reference):
            if got != want:
                report.fail(f"{s.strategy}: parallel result differs from serial "
                            "reference", ops=len(passes))


def measure_solo(workload: Workload, seed: int, seconds: float, sizes: Sizes,
                 setup_reps: int) -> Report:
    report = Report()
    setup = [cold_start(workload, seed, seconds) for _ in range(setup_reps)]
    scene = solo_scene(seed)
    jobs = solo_jobs(workload, scene, seed, sizes.iterations)

    reference = None
    if workload.executor != "serial":
        reference = [stats.circle_digest(s.circles)
                     for s in solo_pass([_serial_twin(j) for j in jobs])]
    solo_pass(_short(jobs, sizes.iterations))  # untimed: pools, scratch, caches

    began = time.perf_counter()
    passes = [solo_pass(jobs) for _ in range(sizes.timed)]
    wall = time.perf_counter() - began

    report.attempted = sizes.timed * len(jobs)
    _check_digests(report, passes, reference)
    f1 = _mean_f1((s.circles, scene.circles) for s in passes[0])
    if f1 < F1_FLOOR and sizes.iterations >= workload.iterations:  # full chains only
        report.fail(f"mean F1 {f1:.3f} below the floor {F1_FLOOR}", ops=0)

    # The four strategies cost different amounts by design, so the
    # median's sample is the pass (its mean time per request); the tail
    # is taken over the individual requests of all passes, where it reads
    # an inner order statistic of the slow strategies rather than the
    # slowest of three pass means.
    pass_means = [1e3 * sum(s.seconds for s in p) / len(p) for p in passes]
    requests = [1e3 * s.seconds for p in passes for s in p]
    tail = float(np.percentile(requests, TAIL_PERCENTILE))
    report.metrics = {
        "setup_s": statistics.median(setup),
        "job_p50_ms": statistics.median(pass_means),
        "job_p90_ms": tail,
        "jobs_per_s": report.attempted / wall,
        "peak_rss_mb": deploy.own_peak_rss_mb(),
    }
    report.extras = {
        "detect_s": statistics.median(sum(s.seconds for s in p) for p in passes),
        "quality_f1": f1,
        "job_p90_ms.percentile":
            f"p{TAIL_PERCENTILE:g} of {len(requests)} requests, "
            f"{sum(r > tail for r in requests)} beyond (short of the "
            f"{stats.MIN_BEYOND}-sample rule: a request takes about a second)",
        "job_p50_ms.samples": len(pass_means),
        "requests_per_pass": len(jobs),
        "iterations": sizes.iterations,
    }
    return report


def trace_solo(workload: Workload, seed: int, sizes: Sizes, scale: float,
               out: Path) -> Report:
    report = Report()
    scene = solo_scene(seed)
    jobs = solo_jobs(workload, scene, seed, sizes.iterations)
    parallel = workload.executor != "serial"

    solo_pass(_short(jobs, sizes.iterations))  # untimed: pools, scratch, caches
    serial = solo_pass([_serial_twin(j) for j in jobs])
    plain = solo_pass(jobs) if parallel else serial
    spans = SpanLog()
    traced = solo_pass(jobs, spans=spans)
    spans.write(out / f"trace-{workload.name}.jsonl")

    report.attempted = 2 * len(jobs)
    _check_digests(report, [plain, traced],
                   [stats.circle_digest(s.circles) for s in serial])

    m = report.metrics
    m["engine.run_ms"] = 1e3 * statistics.fmean(s.seconds for s in plain)
    # The engine's own share: wall minus the time inside partition chains
    # (planning, dispatch, merge, bookkeeping) — only additive when serial.
    m["engine.overhead_ms"] = 1e3 * statistics.fmean(
        s.seconds - sum(s.partition_seconds) for s in serial)
    m["engine.quality_f1"] = _mean_f1((s.circles, scene.circles) for s in plain)
    m["partitioning.imbalance"] = _imbalance([s.partition_seconds for s in plain])
    if parallel:
        speedup = sum(s.seconds for s in serial) / sum(s.seconds for s in plain)
        m["parallel.speedup"] = speedup
        m["parallel.efficiency"] = speedup / N_WORKERS
        starts = []
        for _ in range(3):
            began = time.perf_counter()
            run(request_from_wire(dict(jobs[0], iterations=1)))
            starts.append(time.perf_counter() - began)
        m["parallel.pool_start_ms"] = 1e3 * statistics.median(starts)
    m["ledger.trace_overhead_ratio"] = (
        sum(s.seconds for s in plain) / sum(s.seconds for s in traced))
    m.update(layers.direct_costs(
        _serial_twin(jobs[0]), max(500, round(8000 * min(1.0, scale))), out))
    report.extras = {"spans": len(spans),
                     "self_time_s": spans.self_time_by_name()}
    return report


# -- stack ---------------------------------------------------------------------

def _ops(jobs, indices) -> List[Tuple[int, Dict[str, Any]]]:
    return [(i, jobs[i % len(jobs)]) for i in indices]


def _check_phase(report: Report, phase: Phase, want_cached: bool,
                 what: str) -> List[JobSample]:
    """Count failed ops of a phase; return the samples that succeeded."""
    good = []
    for s in phase.samples:
        if s.error is not None:
            report.fail(f"{what} job {s.index}: {s.error}")
        elif s.cached is not want_cached:
            report.fail(f"{what} job {s.index}: cached={s.cached}, "
                        f"expected {want_cached}")
        else:
            good.append(s)
    return good


def _verify_against_engine(report: Report, samples: Sequence[JobSample],
                           jobs) -> None:
    """Every VERIFY_EVERY-th distinct job recomputed here, untimed, and
    compared bit for bit; repeats of one key compared with each other."""
    by_key: Dict[int, str] = {}
    for s in samples:
        digest = stats.circle_digest(s.result["circles"])
        key = s.index % len(jobs)
        if by_key.setdefault(key, digest) != digest:
            report.fail(f"job {s.index}: result differs from an earlier "
                        f"result of the same key {key}")
    for key in sorted(by_key)[::VERIFY_EVERY]:
        local = run(request_from_wire(jobs[key]))
        if stats.circle_digest(local.circles) != by_key[key]:
            report.fail(f"key {key}: served result differs from engine.run "
                        "of the same request")


def _prefill(report: Report, address: str, jobs) -> List[JobSample]:
    """Compute every warm key once (set-up work: all misses)."""
    phase = drive_jobs(address, _ops(jobs, range(len(jobs))))
    return _check_phase(report, phase, want_cached=False, what="prefill")


def measure_stack(workload: Workload, seed: int, sizes: Sizes,
                  setup_reps: int, out: Path) -> Report:
    report = Report()
    warm = sizes.keys > 0
    began = time.perf_counter()
    n_distinct = sizes.keys if warm else sizes.untimed + sizes.timed
    jobs, truths = stack_jobs(seed, n_distinct)
    inputs_s = time.perf_counter() - began

    setup: List[float] = []
    deployment = None
    try:
        for rep in range(setup_reps):
            if deployment is not None:
                deployment.stop()
            began = time.perf_counter()
            deployment = deploy.Deployment(cache=True, router=False, scratch=out).start()
            if warm:
                _prefill(report, deployment.gateway.address, jobs)
            setup.append(time.perf_counter() - began)
        address = deployment.gateway.address

        warmup = drive_jobs(address, _ops(jobs, range(sizes.untimed)))
        _check_phase(report, warmup, warm, "warm-up")
        phase = drive_jobs(
            address, _ops(jobs, range(sizes.untimed, sizes.untimed + sizes.timed)))
        peak_rss = deployment.peak_rss_mb()
    finally:
        if deployment is not None:
            deployment.stop()

    report.attempted = sizes.timed
    good = _check_phase(report, phase, warm, "timed")
    if not good:
        raise RuntimeError("no job completed: " + "; ".join(report.problems))
    _verify_against_engine(report, good, jobs)
    f1 = _mean_f1((_wire_circles(s.result), truths[s.index % len(jobs)])
                  for s in good)
    if f1 < F1_FLOOR:
        report.fail(f"mean F1 {f1:.3f} below the floor {F1_FLOOR}", ops=0)

    latencies = [1e3 * s.latency for s in good]
    label, tail = stats.tail(latencies, TAIL_PERCENTILE)
    report.metrics = {
        "setup_s": inputs_s + statistics.median(setup),
        "job_p50_ms": statistics.median(latencies),
        "job_p90_ms": tail,
        "jobs_per_s": len(good) / phase.wall,
        "peak_rss_mb": peak_rss,
    }
    report.extras = {
        "first_event_p50_ms": statistics.median(1e3 * s.first_event for s in good),
        "quality_f1": f1,
        "job_p90_ms.percentile": f"{label} of {len(latencies)} jobs",
        "job_p50_ms.samples": len(latencies),
        "clients": N_CLIENTS,
        "timed_wall_s": phase.wall,
        "distinct_keys": len(jobs),
    }
    return report


def _backend_stats(deployment: deploy.Deployment) -> List[Dict[str, Any]]:
    docs = []
    for server in deployment.backends:
        with service_client(server.address) as client:
            docs.append(client.stats())
    return docs


def _cpu(deployment: deploy.Deployment) -> Tuple[float, float]:
    """CPU seconds so far: (all backends, the gateway+router process)."""
    return (sum(server.cpu_seconds() for server in deployment.backends),
            deployment.gateway.cpu_seconds())


def _replay(report: Report, deployment: deploy.Deployment, jobs, warm: bool,
            first: int, warmup_n: int, replay_n: int, trace_path: Path) -> None:
    """Warm-up, then the workload at quarter size twice — spans off and
    spans on, in halves ordered off/on/on/off so that a layer whose cost
    drifts with jobs served does not pass for tracing overhead.  Reads
    the program's public counters around it."""
    m = report.metrics
    address = deployment.gateway.address
    client = GatewayClient(address)
    _check_phase(report, drive_jobs(
        address, _ops(jobs, range(first, first + warmup_n))), warm, "replay warm-up")
    first += warmup_n
    router_before, backends_before = client.stats(), _backend_stats(deployment)

    spans = SpanLog()
    half = replay_n // 2
    wall = {False: 0.0, True: 0.0}
    good: Dict[bool, List[JobSample]] = {False: [], True: []}
    cpu = [0.0, 0.0]  # backends, gateway — over the spans-off halves
    for traced in (False, True, True, False):
        ops = _ops(jobs, range(first, first + half))
        first += half
        before = _cpu(deployment)
        phase = drive_jobs(address, ops, spans=spans if traced else None)
        if not traced:
            after = _cpu(deployment)
            cpu = [cpu[0] + after[0] - before[0], cpu[1] + after[1] - before[1]]
        wall[traced] += phase.wall
        good[traced] += _check_phase(report, phase, warm,
                                     "traced replay" if traced else "replay")
    spans.write(trace_path)
    report.attempted += 4 * half
    _verify_against_engine(report, good[False] + good[True], jobs)
    report.extras["spans"] = len(spans)
    report.extras["self_time_s"] = spans.self_time_by_name()

    m["service.cpu_ms_per_job"] = 1e3 * cpu[0] / (2 * half)
    m["gateway.cpu_ms_per_job"] = 1e3 * cpu[1] / (2 * half)
    m["gateway.first_event_p50_ms"] = statistics.median(
        1e3 * s.first_event for s in good[False])
    m["ledger.trace_overhead_ratio"] = (
        (len(good[True]) / wall[True]) / (len(good[False]) / wall[False]))

    scrapes = []
    for _ in range(3):
        began = time.perf_counter()
        client.metrics_text()
        scrapes.append(time.perf_counter() - began)
    m["obs.scrape_ms"] = 1e3 * statistics.median(scrapes)

    router, backends = client.stats(), _backend_stats(deployment)
    routed = router["n_routed"] - router_before["n_routed"]
    m["cluster.affinity_hit_ratio"] = (
        (router["n_affinity_hits"] - router_before["n_affinity_hits"]) / routed
        if routed else 0.0)
    m["cluster.failovers"] = router["n_failovers"]
    assigned = [b["n_assigned"] for b in router["backends"]]
    m["cluster.placement_skew"] = max(assigned) / statistics.fmean(assigned)
    m["service.rejected"] = sum(b["n_rejected"] for b in backends)
    hits, misses = (
        sum(b[key] for b in backends) - sum(b[key] for b in backends_before)
        for key in ("n_cache_hits", "n_cache_misses"))
    m["engine.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    waits = [b["stage_latency"]["queue_wait"]["p50_seconds"] for b in backends
             if "queue_wait" in b["stage_latency"]]
    m["service.queue_wait_p50_ms"] = 1e3 * statistics.fmean(waits) if waits else 0.0


def _climb(deployment: deploy.Deployment, ladder_jobs, n_ops: int, rung0):
    """*n_ops* ops cycling through *ladder_jobs*, up all four rungs."""
    homes = layers.home_backends(deployment.router.address, ladder_jobs)
    cycle = [i % len(ladder_jobs) for i in range(n_ops)]
    return layers.run_ladder(deployment, [ladder_jobs[i] for i in cycle],
                             [homes[i] for i in cycle], rung0)


def _ladder_metrics(report: Report, climbed: Dict[str, Any], warm: bool) -> None:
    """Check that every rung returned rung 0's circles, then split the
    top rung's latency into the base and one hop per layer."""
    m = report.metrics
    want = [stats.circle_digest(r.circles) for r in climbed["engine_results"]]
    report.attempted += 3 * len(want)
    for k, terminals in enumerate(climbed["terminals"], start=1):
        for j, (doc, digest) in enumerate(zip(terminals, want)):
            if doc.get("event") != "result":
                report.fail(f"ladder rung {k} op {j}: terminal {doc.get('event')!r}")
            elif bool(doc.get("cached")) is not warm:
                report.fail(f"ladder rung {k} op {j}: cached={doc.get('cached')}")
            elif stats.circle_digest(doc["result"]["circles"]) != digest:
                report.fail(f"ladder rung {k} op {j}: differs from rung 0")

    steps = stats.ladder(climbed["rungs"])
    layer_names = ("service", "cluster", "gateway")
    m["engine.run_ms"] = 1e3 * steps["base"]
    for name, hop in zip(layer_names, steps["hops"]):
        m[f"{name}.hop_ms"] = 1e3 * hop
    m["gateway.rung_ms"] = 1e3 * steps["top"]
    m["gateway.rung_p50_ms"] = 1e3 * steps["top_p50"]
    for name, series in zip(layer_names, stats.hop_series(climbed["rungs"])[1:]):
        m[f"{name}.drift_ratio"] = stats.drift_ratio(series)
    m["gateway.submit_ack_ms"] = 1e3 * statistics.median(climbed["acks"])
    m["gateway.first_event_ms"] = 1e3 * statistics.median(climbed["firsts"])
    report.extras["ladder"] = {"ops": steps["n"], "kept": steps["kept"]}


def trace_stack(workload: Workload, seed: int, sizes: Sizes, scale: float,
                out: Path) -> Report:
    report = Report()
    m = report.metrics
    warm = sizes.keys > 0
    replay_n = max(24, sizes.timed // 4)
    warmup_n = max(4, sizes.untimed // 4)
    ladder_n = max(12, round((LADDER_WARM_OPS if warm else LADDER_COLD_OPS)
                             * min(1.0, scale)))
    trace_path = out / f"trace-{workload.name}.jsonl"
    # Cold phases must not share keys: each takes its own index range.
    jobs, truths = stack_jobs(
        seed, sizes.keys if warm else ladder_n + warmup_n + 2 * replay_n)

    if warm:
        with deploy.Deployment(cache=True, router=True, scratch=out) as deployment:
            filled = _prefill(report, deployment.gateway.address, jobs)
            if len(filled) != len(jobs):
                raise RuntimeError("prefill failed: " + "; ".join(report.problems))
            cache = layers.local_cache([s.result for s in filled], jobs)
            climbed = _climb(deployment, jobs, ladder_n, layers.cache_rung(cache))
            _replay(report, deployment, jobs, warm, 0, warmup_n, replay_n, trace_path)
        found = [(_wire_circles(s.result), truths[s.index]) for s in filled]
        m["engine.overhead_ms"] = 0.0  # a hit runs no strategy
        m["partitioning.imbalance"] = _imbalance(
            [[r["elapsed_seconds"] for r in s.result["reports"]] for s in filled])
    else:
        # Ladder rungs must recompute identical jobs: no cache there.
        with deploy.Deployment(cache=False, router=True, scratch=out) as deployment:
            _climb(deployment, jobs[ladder_n:ladder_n + 2], 2, layers.engine_rung)  # untimed
            climbed = _climb(deployment, jobs[:ladder_n], ladder_n, layers.engine_rung)
        with deploy.Deployment(cache=True, router=False, scratch=out) as deployment:
            _replay(report, deployment, jobs, warm, ladder_n, warmup_n, replay_n,
                    trace_path)
        results = climbed["engine_results"]
        found = [(r.circles, truth) for r, truth in zip(results, truths)]
        m["engine.overhead_ms"] = 1e3 * statistics.fmean(
            r.elapsed_seconds - sum(p.elapsed_seconds for p in r.reports)
            for r in results)
        m["partitioning.imbalance"] = _imbalance(
            [[p.elapsed_seconds for p in r.reports] for r in results])

    _ladder_metrics(report, climbed, warm)
    m["engine.quality_f1"] = _mean_f1(found)
    m.update(layers.direct_costs(jobs[0], max(500, round(4000 * min(1.0, scale))), out))
    return report


# -- one run -------------------------------------------------------------------

def run_once(workload: Workload, seed: int, seconds: float, traced: bool,
             out: Path) -> Report:
    """Measure *workload* once, bracketed by the noise guard."""
    scale = seconds / REFERENCE_SECONDS
    sizes = sized(workload, scale)
    # A smoke run (--quick) keeps every step but not its fixed costs:
    # one set-up instead of a median of three, a tenth of the spin.
    smoke = scale < 0.2
    setup_reps = 1 if smoke else SETUP_REPS
    rounds = 2_000 if smoke else 20_000
    spin_before = spin_ms(rounds)
    if workload.kind == "solo":
        report = (trace_solo(workload, seed, sizes, scale, out) if traced
                  else measure_solo(workload, seed, seconds, sizes, setup_reps))
    else:
        report = (trace_stack(workload, seed, sizes, scale, out) if traced
                  else measure_stack(workload, seed, sizes, setup_reps, out))
    spin = (spin_before, spin_ms(rounds))
    report.extras["host.spin_ms"] = list(spin)
    report.extras["noisy"] = abs(spin[1] - spin[0]) > 0.10 * min(spin)
    report.extras["sizes"] = asdict(sizes)
    if traced:
        report.metrics["host.spin_ms"] = statistics.fmean(spin)
    return report
