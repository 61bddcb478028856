"""Tests for the CLI (repro.cli)."""

import json

import pytest

from repro.cli import EXPERIMENTS, main

pytestmark = pytest.mark.fast


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in EXPERIMENTS:
            assert key in out

    def test_list_json(self, capsys):
        assert main(["list", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data["experiments"]) == set(EXPERIMENTS)
        assert {"naive", "blind", "intelligent", "periodic"} <= set(
            data["strategies"]
        )

    def test_run_fig1(self, capsys):
        assert main(["run", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 1" in out
        assert "16 processes" in out

    # ~4 s: seven simulated 500,000-iteration Fig. 2 points, end to end through `repro run fig2`.
    def test_run_fig2(self, capsys):
        assert main(["run", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "sequential" in out

    def test_run_arch(self, capsys):
        assert main(["run", "arch", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Pentium-D" in out and "Q6600" in out and "Xeon-2P" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "nonsense"])

    def test_no_command_shows_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_quickstart(self, capsys):
        assert main(["quickstart", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "F1" in out


class TestDetect:
    """The `repro detect` engine smoke path."""

    def test_detect_table_output(self, capsys):
        assert main([
            "detect", "--strategy", "naive", "--executor", "serial",
            "--size", "64", "--circles", "4", "--iterations", "400",
            "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "strategy naive" in out
        assert "Per-partition report" in out
        assert "F1" in out

    def test_detect_json_output(self, capsys):
        assert main([
            "detect", "--strategy", "intelligent", "--size", "64",
            "--circles", "4", "--iterations", "400", "--seed", "1", "--json",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["strategy"] == "intelligent"
        assert data["executor"] == "serial"
        assert data["n_partitions"] == len(data["partitions"]) >= 1
        assert data["n_truth"] == 4
        assert 0.0 <= data["f1"] <= 1.0

    def test_detect_periodic(self, capsys):
        assert main([
            "detect", "--strategy", "periodic", "--size", "64",
            "--circles", "4", "--iterations", "600", "--seed", "2", "--json",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["strategy"] == "periodic"
        assert data["n_partitions"] == 1

    def test_detect_unknown_strategy_clean_error(self, capsys):
        assert main(["detect", "--strategy", "quantum", "--size", "64",
                     "--circles", "4", "--iterations", "100"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "quantum" in err and "intelligent" in err

    def test_detect_deterministic(self, capsys):
        args = ["detect", "--strategy", "blind", "--size", "64", "--circles",
                "4", "--iterations", "400", "--seed", "3", "--json"]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        stable = ("n_found", "precision", "recall", "f1", "n_partitions")
        assert {k: first[k] for k in stable} == {k: second[k] for k in stable}
        assert [p["n_found"] for p in first["partitions"]] == [
            p["n_found"] for p in second["partitions"]
        ]


@pytest.fixture
def pgm_dir(tmp_path):
    """Two tiny PGM scenes on disk, as `repro detect --batch` expects."""
    from repro.bench.workloads import synthetic_workload
    from repro.imaging.pgm import write_pgm

    directory = tmp_path / "imgs"
    directory.mkdir()
    for i, seed in enumerate((1, 2)):
        scene = synthetic_workload(size=64, n_circles=4, seed=seed).scene
        write_pgm(scene.image, directory / f"scene{i}.pgm")
    return directory


class TestDetectBatch:
    """`repro detect --batch DIR --cache`: N PGMs, one pool, cached re-runs."""

    def batch_args(self, pgm_dir, tmp_path, *extra):
        return ["detect", "--batch", str(pgm_dir), "--iterations", "300",
                "--seed", "0", "--cache", "--cache-dir",
                str(tmp_path / "cache"), "--json", *extra]

    def test_batch_then_cached_rerun(self, capsys, pgm_dir, tmp_path):
        assert main(self.batch_args(pgm_dir, tmp_path)) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["n_images"] == 2
        assert first["n_computed"] == 2
        assert [i["image"] for i in first["items"]] == ["scene0.pgm", "scene1.pgm"]

        assert main(self.batch_args(pgm_dir, tmp_path)) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["n_computed"] == 0
        assert second["n_cached"] == 2
        assert all(i["cached"] for i in second["items"])
        assert [i["n_found"] for i in second["items"]] == [
            i["n_found"] for i in first["items"]
        ]

    def test_batch_table_output(self, capsys, pgm_dir, tmp_path):
        args = [a for a in self.batch_args(pgm_dir, tmp_path) if a != "--json"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "Per-image report" in out
        assert "scene0.pgm" in out

    def test_empty_batch_dir_clean_error(self, capsys, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["detect", "--batch", str(empty)]) == 2
        assert "no .pgm files" in capsys.readouterr().err

    def test_single_detect_with_cache(self, capsys, tmp_path):
        args = ["detect", "--size", "64", "--circles", "4", "--iterations",
                "300", "--seed", "1", "--cache", "--cache-dir",
                str(tmp_path / "cache"), "--json"]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["n_found"] == first["n_found"]
        assert second["partitions"] == first["partitions"]


class TestCacheCommand:
    def test_stats_and_clear(self, capsys, pgm_dir, tmp_path):
        cache_dir = tmp_path / "cache"
        assert main(["detect", "--batch", str(pgm_dir), "--iterations", "300",
                     "--seed", "0", "--cache", "--cache-dir", str(cache_dir),
                     "--json"]) == 0
        capsys.readouterr()

        assert main(["cache", "stats", "--cache-dir", str(cache_dir),
                     "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["disk_entries"] == 2
        assert stats["stores"] == 2
        assert stats["misses"] == 2

        assert main(["cache", "clear", "--cache-dir", str(cache_dir),
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["cleared"] == 2
        assert main(["cache", "stats", "--cache-dir", str(cache_dir),
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["disk_entries"] == 0

    def test_stats_table_on_missing_dir(self, capsys, tmp_path):
        assert main(["cache", "stats", "--cache-dir",
                     str(tmp_path / "nowhere")]) == 0
        assert "Result cache" in capsys.readouterr().out
