"""The ledger's reporting rules, pinned on synthetic numbers."""

import json
import random

import pytest

from ledger import stats
from ledger.spans import SpanLog


# -- the percentile rule: highest percentile with >= 10 samples beyond it -------

@pytest.mark.parametrize("n, expected", [
    (3, None), (19, None),          # not even a median
    (20, 50.0), (39, 50.0),
    (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0),
    (1000, 99.0), (2000, 99.0),
    (10_000, 99.9),
])
def test_supported_percentile(n, expected):
    assert stats.supported_percentile(n) == expected


def test_tail_reports_p95_only_when_the_sample_supports_it():
    values = list(range(1, 501))
    assert stats.tail(values, 95.0) == ("p95", pytest.approx(475.05))
    assert stats.tail(values, 90.0) == ("p90", pytest.approx(450.1))
    label, _ = stats.tail(values[:150], 95.0)  # 150 samples: p90 is the ceiling
    assert label == "p90"
    assert stats.tail([3.0, 9.0, 4.0], 90.0) == ("max", 9.0)  # three passes: no percentile


def test_quartile_spread_matches_the_contract_definition():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    import statistics

    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / 14.5)


# -- span self time: duration minus the union of the children -------------------

def test_self_time_subtracts_the_union_not_the_sum():
    # Two children overlap on [2, 3]: they cover [1, 4], not 2 + 2 seconds.
    assert stats.self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0)]) == pytest.approx(7.0)


def test_self_time_clips_children_to_the_parent_and_ignores_outsiders():
    children = [(-1.0, 1.0), (9.5, 12.0), (20.0, 21.0), (4.0, 4.0)]
    assert stats.self_time(0.0, 10.0, children) == pytest.approx(10.0 - 1.0 - 0.5)


def test_self_time_of_nested_and_disjoint_children():
    assert stats.self_time(0.0, 10.0, [(1.0, 9.0), (2.0, 3.0)]) == pytest.approx(2.0)
    assert stats.self_time(0.0, 10.0, []) == pytest.approx(10.0)


def test_span_log_attributes_self_time_per_parent(tmp_path):
    log = SpanLog()
    root = log.add("bench.request", 0.0, 10.0, "r1")
    engine = log.add("engine.run", 1.0, 9.0, "r1", parent=root)
    log.add("engine.partition", 2.0, 6.0, "r1", parent=engine)
    log.add("engine.partition", 4.0, 8.0, "r1", parent=engine)  # overlaps the first
    totals = log.self_time_by_name()
    assert totals["bench.request"] == pytest.approx(2.0)
    assert totals["engine.run"] == pytest.approx(8.0 - 6.0)
    assert totals["engine.partition"] == pytest.approx(8.0)
    path = tmp_path / "trace.jsonl"
    log.write(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["name"] for r in rows] == ["bench.request", "engine.run",
                                         "engine.partition", "engine.partition"]
    assert all({"id", "start", "end", "parent", "request", "self_s"} <= set(r) for r in rows)


# -- the ladder: hops telescope to the top rung ---------------------------------

def test_constant_hops_are_recovered_exactly():
    base = [30.0 + (i % 7) for i in range(100)]
    rungs = [base, [b + 2.0 for b in base], [b + 5.0 for b in base],
             [b + 5.5 for b in base]]
    steps = stats.ladder(rungs)
    assert steps["hops"] == pytest.approx([2.0, 3.0, 0.5])
    assert steps["base"] + sum(steps["hops"]) == pytest.approx(steps["top"])


def test_hops_telescope_to_the_top_rung_on_noisy_data():
    rng = random.Random(5)
    n = 400
    rung0 = [rng.lognormvariate(3.4, 0.3) for _ in range(n)]
    rungs = [rung0]
    for hop in (1.5, 2.5, 4.0):
        rungs.append([prev + hop + rng.expovariate(4.0) for prev in rungs[-1]])
    rungs[2][17] += 250.0  # a scheduling hiccup on one rung of one job
    steps = stats.ladder(rungs)
    # By construction: base + hops is the top rung's mean over the kept jobs.
    assert steps["base"] + sum(steps["hops"]) == pytest.approx(steps["top"], rel=1e-12)
    assert steps["kept"] < n
    # The hiccup was trimmed, not averaged into the cluster hop.
    assert steps["hops"][1] == pytest.approx(2.5 + 0.25, abs=0.15)
    # ...and the kept jobs' mean sits near the top rung's median.
    assert steps["top"] == pytest.approx(steps["top_p50"], rel=0.05)


def test_ladder_rejects_ragged_rungs():
    with pytest.raises(ValueError):
        stats.ladder([[1.0, 2.0], [1.0]])


def test_hop_series_and_drift():
    rungs = [[1.0] * 8, [2.0, 2.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0]]
    series = stats.hop_series(rungs)
    assert series[0] == [1.0] * 8
    assert series[1] == [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
    assert stats.drift_ratio(series[1]) == pytest.approx(3.0)


# -- compare --------------------------------------------------------------------

def test_verdict_distinguishes_ok_worse_and_unresolved():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 100.3, 99.9]
    slower = [v * 1.2 for v in steady]
    assert stats.verdict(steady, steady, "lower", 0.10)["status"] == "ok"
    assert stats.verdict(steady, slower, "lower", 0.10)["status"] == "worse"
    # Lower throughput is worse when higher is better.
    assert stats.verdict(slower, steady, "higher", 0.10)["status"] == "worse"
    assert stats.verdict(steady, slower, "higher", 0.10)["status"] == "ok"
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert stats.verdict(steady, noisy, "lower", 0.10)["status"] == "unresolved"
