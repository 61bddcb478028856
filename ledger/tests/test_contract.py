"""BENCHMARK.json stays inside the contract's limits and in step with the code."""

import json
import re
from pathlib import Path

from ledger.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_exactly_the_contract_keys():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["ledger"]
    assert CONTRACT["command"] == ["python3", "ledger/run.py"]
    assert isinstance(CONTRACT["run_seconds"], int) and 1 <= CONTRACT["run_seconds"] <= 60
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_workloads_match_the_code():
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    for entry in CONTRACT["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_metric_declarations_are_well_formed():
    end_to_end, per_layer = CONTRACT["end_to_end"], CONTRACT["per_layer"]
    assert 1 <= len(end_to_end) <= 16 and 1 <= len(per_layer) <= 128
    names = [w["name"] for w in CONTRACT["workloads"]]
    for metric in end_to_end:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in per_layer:
        assert set(metric) == {"name", "unit", "better"}
    for metric in end_to_end + per_layer:
        names.append(metric["name"])
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names)), "a name is used once"
    setup = next(m for m in end_to_end if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in end_to_end)


def test_the_time_cap_holds_with_room():
    """4 + 22 × workloads runs within 3420 s: a run may average ~37 s;
    the reference host needs ~22 s (see ledger/README.md)."""
    runs = 4 + 22 * len(CONTRACT["workloads"])
    assert runs * (CONTRACT["run_seconds"] + 12) <= 3420
