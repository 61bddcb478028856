"""CLI coverage for the new subcommands: ``detect --image``,
``detect --server``, and ``calibrate --save``."""

import json

import pytest

from repro.cli import main
from repro.engine import clear_auto_budget_cache


@pytest.fixture
def pgm_scene(tmp_path):
    from repro.bench.workloads import synthetic_workload
    from repro.imaging.pgm import write_pgm

    workload = synthetic_workload(size=64, n_circles=4, seed=3)
    path = tmp_path / "scene.pgm"
    write_pgm(workload.scene.image, path)
    return path


class TestDetectImage:
    def test_detect_image_json(self, pgm_scene, capsys):
        rc = main(["detect", "--image", str(pgm_scene),
                   "--iterations", "300", "--seed", "1", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["image"] == str(pgm_scene)
        assert doc["width"] == doc["height"] == 64
        assert doc["n_partitions"] >= 1
        assert len(doc["circles"]) == doc["n_found"]

    def test_detect_image_matches_library_path(self, pgm_scene, capsys):
        from repro.engine import request_for_image, run
        from repro.imaging.pgm import read_pgm

        rc = main(["detect", "--image", str(pgm_scene),
                   "--iterations", "300", "--seed", "1", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        ref = run(request_for_image(
            read_pgm(pgm_scene), "intelligent", iterations=300, seed=1,
        ))
        assert sorted(map(tuple, doc["circles"])) == sorted(
            (c.x, c.y, c.r) for c in ref.circles
        )

    def test_detect_image_missing_file_errors(self, tmp_path, capsys):
        rc = main(["detect", "--image", str(tmp_path / "nope.pgm"), "--json"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestDetectServer:
    def test_submit_and_stream_round_trip(self, capsys):
        from repro.service import serve_background

        handle = serve_background(workers=1, queue_size=4)
        try:
            host, port = handle.address
            rc = main(["detect", "--server", f"{host}:{port}",
                       "--size", "64", "--circles", "4",
                       "--iterations", "300", "--seed", "2", "--json"])
            assert rc == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["n_found"] >= 0
            assert doc["n_partitions"] >= 1
            assert doc["result"]["strategy"] == "intelligent"
        finally:
            handle.stop()

    def test_bad_server_address_errors(self, capsys):
        rc = main(["detect", "--server", "nonsense"])
        assert rc == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_failing_remote_job_reports_cause(self, capsys):
        from repro.service import serve_background

        handle = serve_background(workers=1, queue_size=4)
        try:
            host, port = handle.address
            # An unknown strategy passes submit (the spec is well-formed)
            # and fails at engine dispatch — the error event must reach
            # the user with its cause, not as "ended without a result".
            rc = main(["detect", "--server", f"{host}:{port}",
                       "--strategy", "bogus",
                       "--size", "64", "--circles", "4",
                       "--iterations", "200", "--seed", "0", "--json"])
            captured = capsys.readouterr()
            assert rc == 2
            doc = json.loads(captured.out)
            assert "bogus" in doc["error"]
            assert doc["error"] in captured.err
        finally:
            handle.stop()


class TestCalibrate:
    def test_calibrate_save_writes_loadable_budgets(
        self, tmp_path, capsys, monkeypatch
    ):
        target = tmp_path / "cal.json"
        monkeypatch.setenv("REPRO_CALIBRATION", str(target))
        clear_auto_budget_cache()
        try:
            rc = main(["calibrate", "--features", "3,6",
                       "--iterations", "120", "--size", "64",
                       "--save", "--json"])
            assert rc == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["saved_to"] == str(target)
            assert doc["auto_budgets"]["serial_budget"] >= 1000
            on_disk = json.loads(target.read_text())
            assert on_disk["auto_budgets"] == doc["auto_budgets"]
            from repro.engine import auto_budgets

            assert auto_budgets() == (
                doc["auto_budgets"]["serial_budget"],
                doc["auto_budgets"]["thread_budget"],
            )
        finally:
            clear_auto_budget_cache()

    def test_calibrate_without_save_leaves_no_file(
        self, tmp_path, capsys, monkeypatch
    ):
        target = tmp_path / "cal.json"
        monkeypatch.setenv("REPRO_CALIBRATION", str(target))
        rc = main(["calibrate", "--features", "3,6",
                   "--iterations", "120", "--size", "64", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["saved_to"] is None
        assert not target.exists()
