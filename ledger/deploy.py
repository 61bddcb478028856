"""Process hygiene: start the program's servers, find them, stop them.

Each server is its own process, started exactly as an operator would —
``python -m repro serve | cluster serve | gateway serve`` — on
``--port 0``; the bound address is read off the "listening on" line the
server prints.  Whatever happens (success, failure, Ctrl-C, SIGTERM to
the harness) every child is terminated and waited for, and every cache
directory removed, before :class:`Deployment` lets go.  Servers run in,
and cache directories live under, the run's own output directory.

A run also ends with no descendant at all: :func:`adopt_orphans` makes it
the reaper of processes whose own parent went first, and
:func:`reap_descendants` waits for every one before the run exits.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Optional, Sequence

SRC = Path(__file__).resolve().parent.parent / "src"

START_TIMEOUT = 30.0
STOP_TIMEOUT = 5.0
N_BACKENDS = 2

_LISTENING = re.compile(r"listening on (\S+):(\d+)")
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class DeployError(RuntimeError):
    """A server did not come up; the message carries its output."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


class Server:
    """One ``python -m repro …`` child and the address it listens on."""

    def __init__(self, name: str, args: Sequence[str], cwd: Path) -> None:
        self.name = name
        self.address: Optional[str] = None
        self._output: Deque[str] = deque(maxlen=200)
        self._ready = threading.Event()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL, env=child_env(), cwd=str(cwd), text=True,
        )
        # Drained for the child's whole life: a full pipe would block it.
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    @property
    def pid(self) -> int:
        return self.process.pid

    def _drain(self) -> None:
        for line in self.process.stdout:
            self._output.append(line.rstrip("\n"))
            if self.address is None:
                match = _LISTENING.search(line)
                if match:
                    self.address = f"{match.group(1)}:{match.group(2)}"
                    self._ready.set()
        self._ready.set()  # EOF: the child is gone; wake any waiter

    def wait_ready(self) -> str:
        """Block until the child printed its address; raise with the
        child's output if it exits or stays silent past START_TIMEOUT."""
        self._ready.wait(START_TIMEOUT)
        if self.address is None:
            self.stop()
            raise DeployError(
                f"{self.name} did not report a listening address within "
                f"{START_TIMEOUT:g}s (exit code {self.process.returncode}); its output:\n"
                + "\n".join(self._output)
            )
        return self.address

    def stop(self) -> None:
        """SIGTERM, then SIGKILL after a grace period; always reaps."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
        self.process.wait()
        self._reader.join(STOP_TIMEOUT)
        if self.process.stdout is not None:
            self.process.stdout.close()

    # -- /proc readings (public counters of a running process) -----------------
    def cpu_seconds(self) -> float:
        """User + system CPU time consumed so far."""
        with open(f"/proc/{self.pid}/stat", "rb") as fh:
            fields = fh.read().rsplit(b")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        return _vm_hwm_mb(self.pid)


def _vm_hwm_mb(pid) -> float:
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise DeployError(f"/proc/{pid}/status has no VmHWM line")


def own_peak_rss_mb() -> float:
    """High-water RSS of the benchmark process itself (the program, for
    the solo workloads, runs inside it)."""
    return _vm_hwm_mb("self")


# -- nothing outlives the run ---------------------------------------------------

_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> bool:
    """Make this process the parent of every descendant whose own parent
    exits first (a server's pool worker, the multiprocessing resource
    tracker of a ``--cold-start`` child), so :func:`reap_descendants`
    can wait for them instead of leaving them to init.  Linux only;
    returns whether the kernel agreed."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _children() -> List[int]:
    me = str(os.getpid()).encode()
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", "rb") as fh:
                    ppid = fh.read().rsplit(b")", 1)[1].split()[1]
            except OSError:  # gone while we looked
                continue
            if ppid == me:
                found.append(int(entry))
    return found


def reap_descendants(grace: float = STOP_TIMEOUT) -> int:
    """Wait until this process has no child left; return how many had to
    be killed.  The last thing a run does, on every path out of it.

    The one child that is still *meant* to be alive here is the
    multiprocessing resource tracker that ``SharedMemory`` starts behind
    the process executor: it ignores SIGTERM and ends only when its pipe
    closes, which the interpreter otherwise leaves to its own exit —
    after which nobody waits for it.  Everything else gets *grace*
    seconds to finish dying, then SIGKILL.
    """
    module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(module, "_resource_tracker", None)
    if getattr(tracker, "_fd", None) is not None:
        # What its own _stop() does, minus the unbounded wait: should a
        # pool worker still hold the pipe, the loop below must get to kill.
        os.close(tracker._fd)
        tracker._fd = None
    killed = set()
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # no child left
            return len(killed)
        if pid:
            continue
        if time.monotonic() > deadline:
            # Every round: a killed child's own children arrive here next.
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                    killed.add(child)
                except ProcessLookupError:
                    pass
        time.sleep(0.005)


class Deployment:
    """Two single-worker backends behind ``gateway serve``.

    ``cache`` starts the backends with ``--cache --cache-dir`` in a
    fresh temp directory under *scratch* (the stack workloads) or
    without any cache (cold ladder rungs, which must recompute
    identical jobs).  ``router`` adds a standalone ``cluster serve``
    over the same backends — the ladder's TCP rung.
    """

    def __init__(self, cache: bool, router: bool, scratch: Path) -> None:
        self.cache = cache
        self.want_router = router
        self.scratch = scratch.resolve()  # servers run with it as their cwd
        self.backends: List[Server] = []
        self.router: Optional[Server] = None
        self.gateway: Optional[Server] = None
        self._tmp: Optional[str] = None

    def start(self) -> "Deployment":
        try:
            self._start()
        except BaseException:  # incl. Ctrl-C mid-start: leave nothing running
            self.stop()
            raise
        return self

    def __enter__(self) -> "Deployment":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _start(self) -> None:
        self.scratch.mkdir(parents=True, exist_ok=True)
        self._tmp = tempfile.mkdtemp(prefix="deploy-", dir=str(self.scratch))
        for i in range(N_BACKENDS):
            args = ["serve", "--port", "0", "--workers", "1"]
            if self.cache:
                args += ["--cache", "--cache-dir", f"{self._tmp}/cache-{i}"]
            self.backends.append(Server(f"backend-{i}", args, self.scratch))
        over: List[str] = []
        for backend in self.backends:  # started together, awaited together
            over += ["--backend", backend.wait_ready()]
        if self.want_router:
            self.router = Server(
                "router", ["cluster", "serve", "--port", "0", *over], self.scratch)
        self.gateway = Server(
            "gateway", ["gateway", "serve", "--port", "0", *over], self.scratch)
        for front in (self.router, self.gateway):
            if front is not None:
                front.wait_ready()

    @property
    def servers(self) -> List[Server]:
        fronts = [s for s in (self.router, self.gateway) if s is not None]
        return self.backends + fronts

    def stop(self) -> None:
        # Fronts first: a router that outlives its backends only logs probes.
        for server in reversed(self.servers):
            server.stop()
        self.backends, self.router, self.gateway = [], None, None
        if self._tmp is not None:
            shutil.rmtree(self._tmp, ignore_errors=True)
            self._tmp = None

    def peak_rss_mb(self) -> float:
        return sum(server.peak_rss_mb() for server in self.servers)

