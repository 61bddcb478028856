"""Experiment ``live`` — wall-clock periodic-partitioning speedup on
this host (validates the simulated machine profiles that stand in for
the paper's hardware).

Runs the identical periodic schedule three ways:

* serially (the reference);
* on a 4-process pool with the Fig. 2 four-partition scheme — expected
  to be capped by the largest partition ("the four processors will
  never be fully utilised", §VII);
* on a 4-process pool with a finer grid (more partitions than
  processors, reclaiming dead time exactly as §VI's task-scheduler
  remark prescribes).

Results are bit-identical across executors (per-task seeding), so the
comparisons are pure wall-clock.
"""

import pytest

from conftest import emit
from repro.core import PeriodicPartitioningSampler, PhaseSchedule
from repro.core.evaluation import evaluate_model
from repro.core.periodic import grid_partitioner, single_point_partitioner
from repro.parallel import ProcessExecutor, SharedImage
from repro.parallel.sharedmem import worker_initializer
from repro.utils.tables import Table

ITERS = 45_000
LOCAL_ITERS = 6_000
WORKERS = 4
FINE_SPACING = 150.0


def run_variants(workload):
    spec, mc, img = workload.model, workload.moves, workload.filtered
    sched = PhaseSchedule(local_iters=LOCAL_ITERS, qg=mc.qg)

    def sampler(executor=None, partitioner=None):
        return PeriodicPartitioningSampler(
            img, spec, mc, sched, partitioner=partitioner, executor=executor,
            seed=21,
        )

    results = {}
    results["serial (fine grid)"] = sampler(
        partitioner=grid_partitioner(FINE_SPACING, FINE_SPACING)
    ).run(ITERS)

    with SharedImage.create(img) as shm:
        with ProcessExecutor(
            WORKERS, initializer=worker_initializer, initargs=shm.attach_args()
        ) as ex:
            ex.map(abs, range(WORKERS))  # warm the pool before timing
            results["4 procs, 4 partitions (Fig. 2 scheme)"] = sampler(
                executor=ex, partitioner=single_point_partitioner()
            ).run(ITERS)
            results["4 procs, fine grid (§VI scheduler remark)"] = sampler(
                executor=ex, partitioner=grid_partitioner(FINE_SPACING, FINE_SPACING)
            ).run(ITERS)
    return results


def test_live_speedup(benchmark, capsys, fig2_medium):
    results = benchmark.pedantic(
        run_variants, args=(fig2_medium,), iterations=1, rounds=1
    )
    baseline = results["serial (fine grid)"]

    t = Table(
        f"Live periodic partitioning on this host ({WORKERS}-process pool)",
        ["variant", "total (s)", "global (s)", "local (s)", "reduction"],
        precision=4,
    )
    for name, res in results.items():
        t.add_row([
            name, res.elapsed_seconds, res.global_seconds, res.local_seconds,
            1.0 - res.elapsed_seconds / baseline.elapsed_seconds,
        ])
    emit(capsys, t.render())
    fine = results["4 procs, fine grid (§VI scheduler remark)"]
    coarse = results["4 procs, 4 partitions (Fig. 2 scheme)"]
    reduction = 1.0 - fine.elapsed_seconds / baseline.elapsed_seconds
    emit(capsys, f"fine-grid reduction: {reduction:.1%} "
                 "(paper's per-machine range: 23%–38%)")

    # Determinism across executors (same partitioner): fine-grid serial
    # and fine-grid parallel must produce identical chains.
    a = sorted((c.x, c.y, c.r) for c in baseline.final_circles)
    b = sorted((c.x, c.y, c.r) for c in fine.final_circles)
    assert a == pytest.approx(b)

    # Real wall-clock gains in the local phases; the fine grid must beat
    # the 4-partition scheme (the §VI load-balancing argument).
    assert fine.local_seconds < 0.7 * baseline.local_seconds
    assert fine.local_seconds <= coarse.local_seconds * 1.05
    assert reduction > 0.15

    f1 = evaluate_model(fine.final_circles, fig2_medium.scene.circles).f1
    assert f1 > 0.6
