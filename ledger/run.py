#!/usr/bin/env python3
"""The benchmark ledger: one seeded, fixed-work benchmark of the stack.

One run of one workload (what the benchmark contract calls)::

    python3 ledger/run.py --workload stack-warm --seed 7 --seconds 15 --trace 0

prints every metric by name with its unit, then — as the last line of
stdout — one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of the separate traced run with ``--trace 1``.  Exit code 1 on
a correctness failure.

Without ``--workload``, or with ``--runs N`` / ``--quick``, it becomes
the front end: each run is a child process of the form above (seeds
``seed .. seed+N-1``), gathered into ``<out>/ledger.json`` with medians
and quartile spreads.  ``--compare A.json B.json`` reads two such files.
See ``ledger/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

QUICK_SECONDS = 0.75  # ~5 % of the reference op counts
#: How long the front end waits for an interrupted run to stop its
#: servers (four of them, each given deploy.STOP_TIMEOUT) before killing it.
CHILD_GRACE_SECONDS = 30.0


def bootstrap() -> None:
    """Put the program (``src/``) and the ``ledger`` package on the path;
    refuse to run in a tree that has no program to measure."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"error: {ROOT / 'src' / 'repro'} is missing — the ledger measures "
                 "the program in this checkout and has nothing to run without it")
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def load_contract() -> Dict[str, Any]:
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as fh:
        return json.load(fh)


def host_fingerprint() -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "loadavg": list(os.getloadavg()),
    }


# -- one run, in this process --------------------------------------------------

def run_single(args, contract: Dict[str, Any]) -> int:
    from ledger.measure import run_once
    from ledger.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    declared = contract["per_layer" if traced else "end_to_end"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = run_once(workload, args.seed, args.seconds, traced, out)

    units = {m["name"]: m["unit"] for m in declared}
    unknown = sorted(set(report.metrics) - set(units))
    if unknown:
        raise SystemExit(f"error: measured metrics missing from BENCHMARK.json: {unknown}")
    if not traced and set(units) - set(report.metrics):
        raise SystemExit("error: end-to-end metrics not measured: "
                         f"{sorted(set(units) - set(report.metrics))}")
    # A per-layer metric the run did not produce belongs to a layer this
    # workload bypasses.  The contract wants every declared name in the
    # result line, so it goes there as 0 — what that layer contributes
    # here — and the listing says "bypassed", which a measured 0 does not.
    values = {name: float(report.metrics.get(name, 0.0)) for name in units}

    kind = "per-layer (traced run)" if traced else "end-to-end"
    print(f"== {workload.name}  seed {args.seed}  --seconds {args.seconds:g}  {kind}")
    for name, value in values.items():
        note = report.extras.get(f"{name}.percentile") or (
            "" if name in report.metrics else "(bypassed)")
        print(f"  {name:<30} {value:>14.6g} {units[name]:<6} {note}")
    for name, value in report.extras.items():
        if not name.endswith(".percentile"):
            print(f"  {name:<30} {json.dumps(value)}")
    print(f"  {'failed_ratio':<30} {report.failed / max(1, report.attempted):>14.6g} "
          f"       ({report.failed} of {report.attempted} ops)")
    for problem in report.problems:
        print(f"  FAILED: {problem}")

    document = {
        "correct": report.correct,
        "attempted": max(1, report.attempted),
        "failed": report.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    sidecar = dict(document, workload=workload.name, seed=args.seed,
                   seconds=args.seconds, trace=int(traced), extras=report.extras,
                   problems=report.problems)
    path = out / f"run-{workload.name}-s{args.seed}-t{int(traced)}.json"
    path.write_text(json.dumps(sidecar, indent=1), encoding="utf-8")
    print(json.dumps(document), flush=True)
    return 0 if report.correct else 1


# -- the front end: many runs, one ledger --------------------------------------

def run_child(command: List[str]) -> Tuple[int, str]:
    """One run as its own process: ``(exit code, stdout)``.  If this
    process is interrupted meanwhile, the run is told to stop and given
    time to take its servers down — killing it would orphan them."""
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             stdin=subprocess.DEVNULL)
    try:
        stdout, _ = child.communicate()
    except BaseException:  # SIGTERM or Ctrl-C here; re-raised below
        child.terminate()
        try:
            child.wait(CHILD_GRACE_SECONDS)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        raise
    return child.returncode, stdout


def run_many(args, contract: Dict[str, Any]) -> int:
    from ledger import stats

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    names = [args.workload] if args.workload else [w["name"] for w in contract["workloads"]]
    traces = [0, 1] if args.quick else [int(bool(args.trace))]
    seeds = list(range(args.seed, args.seed + args.runs))
    ledger: Dict[str, Any] = {
        "host": host_fingerprint(), "seconds": args.seconds, "seeds": seeds,
        "workloads": {},
    }
    all_correct = True
    for name in names:
        row = ledger["workloads"][name] = {
            "attempted": 0, "failed": 0, "noisy_runs": 0, "metrics": {}}
        for trace in traces:
            for seed in seeds:
                command = [sys.executable, str(Path(__file__)), "--workload", name,
                           "--seed", str(seed), "--seconds", str(args.seconds),
                           "--trace", str(trace), "--out", str(out)]
                code, stdout = run_child(command)
                sys.stdout.write(stdout)
                sys.stdout.flush()
                lines = stdout.strip().splitlines()
                if code not in (0, 1) or not lines:
                    print(f"error: {name} seed {seed} exited {code}", file=sys.stderr)
                    return 2
                document = json.loads(lines[-1])
                sidecar = json.loads(
                    (out / f"run-{name}-s{seed}-t{trace}.json").read_text("utf-8"))
                all_correct &= bool(document["correct"])
                row["attempted"] += document["attempted"]
                row["failed"] += document["failed"]
                row["noisy_runs"] += int(bool(sidecar["extras"].get("noisy")))
                for metric, entry in document["metrics"].items():
                    slot = row["metrics"].setdefault(
                        metric, {"unit": entry["unit"], "values": []})
                    slot["values"].append(entry["value"])
        for slot in row["metrics"].values():
            slot["median"] = statistics.median(slot["values"])
            if len(slot["values"]) >= 2:
                slot["spread"] = stats.quartile_spread(slot["values"])

    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    print("\n== ledger summary (median over seeds; spread = (Q3-Q1)/median)")
    for name, row in ledger["workloads"].items():
        for metric, slot in row["metrics"].items():
            spread = slot.get("spread")
            note = ""
            if not args.quick and spread is not None and metric in bounds:
                note = (f"bound {bounds[metric]:.0%}" +
                        ("  UNSTEADY" if spread > bounds[metric] else ""))
            print(f"  {name:<14} {metric:<30} {slot['median']:>14.6g} {slot['unit']:<6}"
                  + (f" spread {spread:6.2%}  {note}" if spread is not None else ""))
        print(f"  {name:<14} failed {row['failed']} of {row['attempted']} ops, "
              f"{row['noisy_runs']} noisy run(s)")
    # This benchmark defines the yardstick; it claims no gain.
    ledger["claim"] = None
    (out / "ledger.json").write_text(json.dumps(ledger, indent=1), encoding="utf-8")
    print(json.dumps({"ledger": str(out / "ledger.json"), "correct": all_correct,
                      "claim": None}))
    return 0 if all_correct else 1


def compare(path_a: str, path_b: str, contract: Dict[str, Any]) -> int:
    """Rows of A (base) against B (new), one per workload and end-to-end metric."""
    from ledger import stats

    a, b = (json.loads(Path(p).read_text("utf-8")) for p in (path_a, path_b))
    print(f"{'workload':<14} {'metric':<14} {'base':>12} {'new':>12} "
          f"{'worse by':>9} {'spread':>8} {'bound':>6}  verdict")
    worst = 0
    for name in (w["name"] for w in contract["workloads"]):
        for metric in contract["end_to_end"]:
            try:
                base = a["workloads"][name]["metrics"][metric["name"]]["values"]
                new = b["workloads"][name]["metrics"][metric["name"]]["values"]
            except KeyError:
                continue
            row = stats.verdict(base, new, metric["better"], metric["bound"])
            spread = f"{row['spread']:8.2%}" if row["spread"] is not None else "     n/a"
            print(f"{name:<14} {metric['name']:<14} {row['base']:>12.6g} "
                  f"{row['new']:>12.6g} {row['worse_by']:>+9.2%} {spread} "
                  f"{row['bound']:>6.0%}  {row['status']}")
            worst = max(worst, int(row["status"] == "worse"))
    return worst


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        epilog="See ledger/README.md for the workloads and metrics.")
    parser.add_argument("--workload", default=None,
                        help="one of the BENCHMARK.json workloads (default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="every input is generated from it (default 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="sizes the fixed work: the reference host measures "
                             "for about this long (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the traced run: per-layer metrics and span files")
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat each workload on seeds seed..seed+N-1 and "
                             "report medians and quartile spreads")
    parser.add_argument("--quick", action="store_true",
                        help="smoke: every workload, untraced and traced, at ~5%% "
                             "of the op counts; bounds not applied")
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="directory for run reports, span files, ledger.json")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two ledger.json files against the bounds")
    parser.add_argument("--cold-start", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    bootstrap()
    contract = load_contract()
    if args.compare:
        return compare(*args.compare, contract)
    known = [w["name"] for w in contract["workloads"]]
    if args.workload is not None and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; choose from {known}")
    if args.quick:
        args.seconds = QUICK_SECONDS
    elif args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    if args.seconds <= 0 or args.runs < 1:
        parser.error("--seconds must be positive and --runs at least 1")

    # SIGTERM unwinds like Ctrl-C, so every `finally` stops its servers;
    # the first signal wins — a second one must not cut that teardown short.
    def unwind(signum, _frame) -> None:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, unwind)
    signal.signal(signal.SIGINT, unwind)
    # Whatever a run starts — servers, their workers, pool processes, the
    # multiprocessing resource tracker — has ended before this process does.
    from ledger import deploy

    deploy.adopt_orphans()
    try:
        if args.cold_start:
            from ledger.measure import cold_start_body
            from ledger.workloads import REFERENCE_SECONDS, WORKLOADS, sized

            workload = WORKLOADS[args.workload]
            cold_start_body(workload, args.seed,
                            sized(workload, args.seconds / REFERENCE_SECONDS))
            return 0
        if args.workload is not None and args.runs == 1 and not args.quick:
            return run_single(args, contract)
        return run_many(args, contract)
    finally:
        deploy.reap_descendants()


if __name__ == "__main__":
    sys.exit(main())
