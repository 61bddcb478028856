"""Experiment ``fig4`` — §IX / Fig. 4: blind partitioning.

Paper: quartering the bead image with 1.1·r overlap gives per-quadrant
relative runtimes 0.12 / 0.08 / 0.27 / 0.11, so with four processors
the whole procedure costs 27 % of the sequential run, "with no apparent
anomalies present as a result of the partitioning".

Shapes to reproduce: every quadrant much cheaper than the full run;
total = the slowest quadrant; merged model as good as the sequential
one (no boundary duplicates/losses).
"""


from conftest import emit
from repro.core.evaluation import evaluate_model
from repro.engine import run
from repro.mcmc import MarkovChain, MoveGenerator, PosteriorState
from repro.utils.tables import Table

ITERS_FULL = 30_000
ITERS_PART = 8_000

PAPER_QUADRANTS = [0.12, 0.08, 0.27, 0.11]


def run_experiment(workload):
    post = PosteriorState(workload.filtered, workload.model)
    chain = MarkovChain(post, MoveGenerator(workload.model, workload.moves), seed=7)
    seq = chain.run(ITERS_FULL)

    pipeline = run(workload.request(
        "blind", iterations=ITERS_PART, seed=8,
        options={"nx": 2, "ny": 2, "overlap_factor": 1.1},
    ))
    return seq, pipeline


def test_fig4_blind(benchmark, capsys, beads):
    seq, pipeline = benchmark.pedantic(
        run_experiment, args=(beads,), iterations=1, rounds=1
    )
    rel = [p.elapsed_seconds / seq.elapsed_seconds for p in pipeline.reports]

    t = Table(
        "Fig. 4 / §IX — blind partitioning (2×2, overlap 1.1·r̄)",
        ["quadrant", "paper rel runtime", "measured rel runtime", "est # obj"],
        precision=3,
    )
    for k, (r, p) in enumerate(zip(rel, pipeline.reports)):
        t.add_row([f"Q{k}", PAPER_QUADRANTS[k], r, p.expected_count])
    # One processor per quadrant: the procedure costs its slowest quadrant.
    total = max(rel)
    t.add_row(["whole procedure (4 procs)", 0.27, total, None])
    emit(capsys, t.render())

    merge = pipeline.merge
    emit(capsys, (
        f"merge report: auto={merge.n_auto_accepted} merged={merge.n_merged} "
        f"corroborated={merge.n_corroborated} disputed_kept={merge.n_disputed_kept} "
        f"disputed_dropped={merge.n_disputed_dropped}"
    ))

    # --- paper shapes -----------------------------------------------------
    # Every quadrant far cheaper than the sequential run...
    assert all(r < 0.75 for r in rel)
    # ...and the whole procedure (= slowest quadrant) a large reduction.
    assert total < 0.75
    # No apparent anomalies: quality comparable to sequential.
    seq_report = evaluate_model(seq.final_circles, beads.scene.circles)
    blind_report = evaluate_model(pipeline.circles, beads.scene.circles)
    assert blind_report.f1 >= seq_report.f1 - 0.25
    # No residual duplicates at partition boundaries.
    for i, a in enumerate(pipeline.circles):
        for b in pipeline.circles[i + 1 :]:
            assert a.distance_to(b) > 2.0
