"""Process hygiene: addresses are parsed, failures carry the child's
output, and nothing — process or directory — outlives a deployment."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ledger import deploy
from ledger.drive import gateway_call
from repro.service.protocol import scene_job


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _servers_in(directory: Path):
    """Pids of the ``python -m repro`` servers running with *directory*
    as their cwd — however deep below the caller they were started."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            if (os.readlink(entry / "cwd") == str(directory)
                    and b"repro" in (entry / "cmdline").read_bytes().split(b"\0")):
                found.append(int(entry.name))
        except OSError:  # exited while we looked, or not ours to read
            continue
    return found


def test_a_server_that_cannot_start_fails_fast_with_its_output(tmp_path):
    server = deploy.Server("broken", ["serve", "--no-such-flag"], tmp_path)
    began = time.perf_counter()
    with pytest.raises(deploy.DeployError) as caught:
        server.wait_ready()
    # The exit wakes the waiter, not the timeout.
    assert time.perf_counter() - began < deploy.START_TIMEOUT / 2
    assert "broken" in str(caught.value)
    assert "--no-such-flag" in str(caught.value)  # argparse's complaint, verbatim
    assert server.process.poll() is not None


def test_deployment_serves_then_leaves_nothing_behind(tmp_path):
    with deploy.Deployment(cache=True, router=False, scratch=tmp_path) as deployment:
        for server in deployment.servers:
            host, _, port = server.address.rpartition(":")
            assert host and int(port) > 0  # bound on --port 0, parsed off stdout
        assert len(list(tmp_path.glob("deploy-*"))) == 1
        _, _, terminal = gateway_call(deployment.gateway.address)(
            scene_job(size=48, circles=3, iterations=100, seed=1))
        assert terminal["event"] == "result"
        backend = deployment.backends[0]
        assert backend.cpu_seconds() > 0 and backend.peak_rss_mb() > 10
        pids = [server.pid for server in deployment.servers]
        assert sorted(pids) == sorted(_servers_in(tmp_path)) and len(pids) == 3
    assert not any(_alive(pid) for pid in pids)
    assert list(tmp_path.iterdir()) == []


def test_failure_inside_the_block_still_tears_down(tmp_path):
    pids = []
    with pytest.raises(KeyboardInterrupt):
        with deploy.Deployment(cache=False, router=True, scratch=tmp_path) as deployment:
            pids = [s.pid for s in deployment.servers]
            raise KeyboardInterrupt  # Ctrl-C mid-run
    assert len(pids) == 4 and not any(_alive(pid) for pid in pids)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("front_end", [[], ["--runs", "2"]], ids=["one-run", "front-end"])
def test_sigterm_to_the_harness_stops_its_servers(tmp_path, front_end):
    """The whole harness, killed mid-workload, takes its servers with it
    — also when the run is a child of the multi-run front end."""
    run = Path(deploy.__file__).with_name("run.py")
    harness = subprocess.Popen(
        [sys.executable, str(run), "--workload", "stack-warm", "--seed", "1",
         "--seconds", "15", "--out", str(tmp_path), *front_end],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        servers = []
        deadline = time.time() + 30
        while time.time() < deadline and len(servers) < 3:
            time.sleep(0.25)
            servers = _servers_in(tmp_path)
        assert len(servers) == 3, "two backends and a gateway should be up"
        harness.send_signal(signal.SIGTERM)
        assert harness.wait(timeout=40) == 143
        assert not any(_alive(pid) for pid in servers)
        assert _servers_in(tmp_path) == []
        assert list(tmp_path.glob("deploy-*")) == []
    finally:
        if harness.poll() is None:
            harness.kill()
            harness.wait()
        for pid in _servers_in(tmp_path):  # a failed test must not leak either
            os.kill(pid, signal.SIGKILL)


def _python(code: str, tmp_path, timeout: float = 120) -> str:
    """Run *code* in its own interpreter (it reaps, or adopts, children —
    not something to do inside pytest) and return what it printed."""
    env = dict(deploy.child_env(), PYTHONPATH=os.pathsep.join(
        [str(deploy.SRC.parent), str(deploy.SRC)]))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=timeout)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_reaping_waits_for_the_dying_and_kills_the_rest(tmp_path):
    """An orphaned grandchild that would run on is adopted, killed after
    the grace period and waited for; one that ends by itself is not killed."""
    out = _python(
        "import subprocess, time\n"
        "from ledger import deploy\n"
        "assert deploy.adopt_orphans()\n"
        "subprocess.run(['sh', '-c', 'sleep 60 & sleep 0.3 & exit 0'])\n"
        "began = time.monotonic()\n"
        "killed = deploy.reap_descendants(grace=1.0)\n"
        "print(killed, deploy._children(), time.monotonic() - began < 10)\n",
        tmp_path)
    assert out == "1 [] True"


def test_a_process_pool_run_leaves_no_process_behind(tmp_path):
    """solo-parallel starts multiprocessing's resource tracker, which
    would outlive the run by a moment; the watcher adopts whatever the
    run orphans and must find nothing, running or zombie."""
    run = Path(deploy.__file__).with_name("run.py")
    out = _python(
        "import subprocess, sys\n"
        "from ledger import deploy\n"
        "assert deploy.adopt_orphans()\n"
        f"done = subprocess.run([sys.executable, {str(run)!r}, '--workload', "
        f"'solo-parallel', '--seed', '3', '--seconds', '0.75', '--out', {str(tmp_path)!r}], "
        "stdout=subprocess.DEVNULL)\n"
        "print(done.returncode, deploy._children())\n",
        tmp_path)
    assert out == "0 []"
