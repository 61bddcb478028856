"""Per-layer measurements: what each layer costs, timed from outside.

Three kinds of number, none of which needs a line inside ``src/``:

* :func:`direct_costs` — public functions of one layer called directly
  in this process, on the workload's own inputs;
* :func:`run_ladder` — the same jobs through successive rungs
  (in-process engine → one backend over TCP → cluster router →
  gateway over HTTP/SSE); what a layer adds is the paired difference
  between adjacent rungs (:func:`ledger.stats.ladder`);
* counters the program already publishes (``op:stats``, ``/proc``),
  read by :mod:`ledger.run` around a replay of the workload.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence

from repro.engine import ResultCache, ResultEvent, request_key, run
from repro.engine.cache import result_from_json
from repro.imaging.density import estimate_count
from repro.imaging.filters import threshold_filter
from repro.mcmc import MarkovChain, MoveGenerator, MultiproposalChain, PosteriorState
from repro.obs import reset_collector, set_collector_enabled, trace
from repro.partitioning.intelligent import segment_image
from repro.service.protocol import (
    decode_line,
    encode_line,
    event_to_wire,
    request_from_wire,
)

from ledger import deploy
from ledger.drive import JobCall, gateway_call, service_client, tcp_call


#: :func:`per_call` spends about this long on a function, in this many batches.
CALL_BUDGET_SECONDS = 0.12
CALL_BATCHES = 5


def per_call(fn: Callable[[], Any]) -> float:
    """Median seconds per call of *fn* over equal batches, sized from a
    first call to spend about CALL_BUDGET_SECONDS in total."""
    began = time.perf_counter()
    fn()
    once = max(time.perf_counter() - began, 1e-7)
    n = max(1, int(CALL_BUDGET_SECONDS / CALL_BATCHES / once))
    rates = []
    for _ in range(CALL_BATCHES):
        began = time.perf_counter()
        for _ in range(n):
            fn()
        rates.append((time.perf_counter() - began) / n)
    return statistics.median(rates)


# -- mcmc / imaging / partitioning ---------------------------------------------

def kernel_costs(job: Dict[str, Any], iterations: int) -> Dict[str, float]:
    """The kernel on this workload's image, no engine around it: a
    warmed ``MarkovChain.run``, the same with ``MultiproposalChain``
    at width 8, and the two image-preparation steps."""
    request = request_from_wire(job)
    theta = float(request.options.get("theta", 0.4))
    filtered = threshold_filter(request.image, theta)

    def chain_rate(make) -> Any:
        chain = make(PosteriorState(filtered, request.spec),
                     MoveGenerator(request.spec, request.move_config))
        chain.run(max(200, iterations // 8))  # warm scratch pools, reach the bulk
        began = time.perf_counter()
        chain.run(iterations)
        return iterations / (time.perf_counter() - began), chain

    classic_rate, classic = chain_rate(
        lambda post, gen: MarkovChain(post, gen, seed=job["seed"]))
    k8_rate, _ = chain_rate(
        lambda post, gen: MultiproposalChain(post, gen, width=8, seed=job["seed"]))
    proposed = sum(classic.stats.proposed.values())
    return {
        "mcmc.iters_per_s": classic_rate,
        "mcmc.iters_per_s_k8": k8_rate,
        "mcmc.accept_ratio":
            sum(classic.stats.accepted.values()) / proposed if proposed else 0.0,
        "imaging.prepare_ms": 1e3 * per_call(lambda: estimate_count(
            threshold_filter(request.image, theta), 0.5, request.spec.radius_mean)),
        "partitioning.plan_ms": 1e3 * per_call(lambda: segment_image(filtered, min_gap=8.0)),
    }


# -- engine --------------------------------------------------------------------

def engine_and_wire_costs(job: Dict[str, Any], scratch: Path) -> Dict[str, float]:
    """Request hashing, the result cache (memory and disk tiers, the
    latter in a temp directory under *scratch*), and the JSON work every
    hop repeats — one submit line in, one result line out — on this
    workload's request and a real result of it."""
    request = request_from_wire(dict(job, iterations=min(job["iterations"], 200),
                                     executor="serial"))
    result = run(request)
    key = request_key(request)
    memory = ResultCache()
    memory.put(key, result)
    directory = tempfile.mkdtemp(prefix="cache-", dir=str(scratch))
    try:
        disk = ResultCache(directory=directory)
        disk_put = per_call(lambda: disk.put(key, result))
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    line = encode_line({"op": "submit", "job": job, "priority": 0})
    event = ResultEvent(result=result)
    return {
        "engine.request_key_us": 1e6 * per_call(lambda: request_key(request)),
        "engine.cache_get_us": 1e6 * per_call(lambda: memory.get(key)),
        "engine.cache_put_us": 1e6 * per_call(lambda: memory.put(key, result)),
        "engine.cache_disk_put_us": 1e6 * disk_put,
        "service.wire_decode_us":
            1e6 * per_call(lambda: request_from_wire(decode_line(line)["job"])),
        "service.wire_encode_us":
            1e6 * per_call(lambda: encode_line(event_to_wire(event))),
    }


def span_cost_us() -> float:
    """One empty ``with trace(...)`` span with the collector on."""
    previous = set_collector_enabled(True)
    reset_collector()  # measured from empty, whatever the run left in it
    try:
        def one() -> None:
            with trace("ledger.probe"):
                pass
        return 1e6 * per_call(one)
    finally:
        set_collector_enabled(previous)
        reset_collector()


def direct_costs(job: Dict[str, Any], kernel_iterations: int,
                 scratch: Path) -> Dict[str, float]:
    """Every layer function timed directly, on one job of the workload."""
    costs = kernel_costs(job, kernel_iterations)
    costs.update(engine_and_wire_costs(job, scratch))
    costs["obs.span_us"] = span_cost_us()
    return costs


# -- the ladder ----------------------------------------------------------------

def engine_rung(job: Dict[str, Any]) -> Any:
    """Rung 0, a cache miss: build the request and run it, in process."""
    return run(request_from_wire(job))


def cache_rung(cache: ResultCache) -> Callable[[Dict[str, Any]], Any]:
    """Rung 0, a cache hit: what the engine layer does for a repeat —
    build the request, hash it, look it up."""
    def rung(job: Dict[str, Any]) -> Any:
        hit = cache.get(request_key(request_from_wire(job)))
        if hit is None:
            raise LookupError("ladder cache rung missed")
        return hit
    return rung


def local_cache(results: Sequence[Dict[str, Any]],
                jobs: Sequence[Dict[str, Any]]) -> ResultCache:
    """An in-process cache holding the deployment's own results for
    *jobs* (``result`` documents off the wire), for :func:`cache_rung`."""
    cache = ResultCache(max_entries=max(256, len(jobs)))
    for job, doc in zip(jobs, results):
        cache.put(request_key(request_from_wire(job)), result_from_json(doc))
    return cache


def home_backends(router_address: str, jobs: Sequence[Dict[str, Any]]) -> List[str]:
    """The backend each job's key lives on, as the router places it —
    a warm rung must ask the backend that holds the entry."""
    with service_client(router_address) as client:
        return [client.route(job)["node"] for job in jobs]


def run_ladder(
    deployment: deploy.Deployment,
    ops: Sequence[Dict[str, Any]],
    homes: Sequence[str],
    rung0: Callable[[Dict[str, Any]], Any],
) -> Dict[str, Any]:
    """Drive every op through all four rungs, one in flight, and return
    per-rung latencies (seconds, op order) plus what the top rung saw.

    Rungs are interleaved per op — rung 0, 1, 2, 3 of op *j*, then op
    *j+1* — so the paired differences compare measurements taken
    milliseconds apart, not minutes.
    """
    backend_calls: Dict[str, JobCall] = {
        server.address: tcp_call(server.address) for server in deployment.backends
    }
    router_call = tcp_call(deployment.router.address)
    front_call = gateway_call(deployment.gateway.address)
    rungs: List[List[float]] = [[], [], [], []]
    acks: List[float] = []
    firsts: List[float] = []
    terminals: List[List[Dict[str, Any]]] = [[], [], []]
    engine_results: List[Any] = []
    try:
        for job, home in zip(ops, homes):
            began = time.perf_counter()
            engine_results.append(rung0(job))
            rungs[0].append(time.perf_counter() - began)
            for k, call in enumerate(
                    (backend_calls[home], router_call, front_call), start=1):
                began = time.perf_counter()
                acked, first, last = call(job)
                rungs[k].append(time.perf_counter() - began)
                terminals[k - 1].append(last)
                if k == 3:
                    acks.append(acked - began)
                    firsts.append(first - began)
    finally:
        for call in (*backend_calls.values(), router_call):
            call.close()
    return {"rungs": rungs, "acks": acks, "firsts": firsts,
            "terminals": terminals, "engine_results": engine_results}
