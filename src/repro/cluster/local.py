"""LocalCluster: a whole cluster (router + N backends) on one machine.

The test/bench harness behind every cluster guarantee in CI.  Two
backend modes, one API:

``mode="thread"``
    Backends are in-process :func:`~repro.service.server.serve_background`
    services.  Fast to spin up, fully deterministic, and a killed
    backend is a *graceful-ish* death (its sockets close, its workers
    cancel) — right for parity/failover/replay tests, wrong for
    throughput numbers (every backend shares this process's GIL).

``mode="process"``
    Backends are ``python -m repro serve`` subprocesses, each with its
    own interpreter, cores, and on-disk cache directory.  Here
    ``kill_backend`` is a real SIGKILL — the router sees exactly what a
    crashed host looks like (``scripts/chaos.py --mode process``).

Either way the router runs in-process (it is IO-bound), with a durable
:class:`~repro.service.store.JobLog` by default so
:meth:`LocalCluster.restart_router` exercises the replay path on the
same port with the same log.
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
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.quota import QuotaPolicy
from repro.cluster.router import RouterHandle, router_background
from repro.engine.cache import ResultCache
from repro.errors import ClusterError
from repro.service.client import ServiceClient
from repro.service.server import serve_background
from repro.service.store import JobLog

__all__ = ["LocalCluster"]

_LISTEN_RE = re.compile(r"listening on ([\w.\-]+):(\d+)")


class _ThreadBackend:
    """One in-process backend service."""

    def __init__(self, handle) -> None:
        self.handle = handle
        self.address: Tuple[str, int] = handle.address
        self.alive = True

    def kill(self) -> None:
        if self.alive:
            self.alive = False
            self.handle.stop()

    stop = kill  # in-process: graceful and hard death are the same


class _ProcessBackend:
    """One ``python -m repro serve`` subprocess."""

    def __init__(self, argv: List[str], env: Dict[str, str],
                 startup_timeout: float = 60.0) -> None:
        self.proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        line = self._await_listen_line(startup_timeout)
        match = _LISTEN_RE.search(line)
        if match is None:
            self.proc.kill()
            raise ClusterError(f"backend did not announce its address: {line!r}")
        self.address = (match.group(1), int(match.group(2)))
        self.alive = True
        # Keep draining stdout so the child never blocks on a full pipe.
        threading.Thread(target=self._drain, daemon=True).start()

    def _await_listen_line(self, timeout: float) -> str:
        box: Dict[str, str] = {}

        def read() -> None:
            box["line"] = self.proc.stdout.readline()

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(timeout)
        if "line" not in box or not box["line"]:
            self.proc.kill()
            raise ClusterError(
                f"backend process did not start within {timeout:.0f}s"
            )
        return box["line"]

    def _drain(self) -> None:
        try:
            for _ in self.proc.stdout:
                pass
        except ValueError:  # stdout closed during shutdown
            pass

    def kill(self) -> None:
        """SIGKILL — the hard host-death the chaos scenarios inject."""
        if self.alive:
            self.alive = False
            self.proc.kill()
            self.proc.wait(timeout=10)

    def stop(self) -> None:
        if self.alive:
            self.alive = False
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                self.proc.kill()
                self.proc.wait(timeout=10)


class LocalCluster:
    """Router + N backends, started together, torn down together.

    Parameters
    ----------
    n_backends:
        How many detection services to front.
    mode:
        ``"thread"`` (in-process backends) or ``"process"``
        (subprocess backends) — see the module docstring.
    workers, queue_size, executor:
        Per-backend service knobs.
    cache:
        Give each backend its own result cache (in-memory for thread
        mode, on-disk under ``base_dir`` for process mode) — the thing
        cache-affine routing exists to exploit.
    router_log:
        Keep a durable router :class:`JobLog` under ``base_dir`` (on by
        default; :meth:`restart_router` depends on it).
    router_index:
        Keep a durable router result index under ``base_dir`` (on by
        default when ``router_log`` is on) so terminal job ids answer
        status across :meth:`restart_router`.
    replication_factor:
        Router replication: ``>= 2`` mirrors every placement to the
        key's rendezvous runner-up (warm standby).
    backend_logs:
        Also give each backend its own durable job log.
    quota:
        Optional :class:`QuotaPolicy` installed on the router.
    gateway:
        Also put an HTTP/SSE :class:`~repro.gateway.server.Gateway` in
        front of the router (sharing its event loop).  The router's TCP
        address keeps working — :attr:`gateway_address` /
        :meth:`gateway_client` add the HTTP surface the gateway tests
        and smoke script drive.
    """

    def __init__(
        self,
        n_backends: int = 3,
        mode: str = "thread",
        workers: int = 1,
        queue_size: int = 16,
        executor: Optional[str] = None,
        cache: bool = True,
        router_log: bool = True,
        router_index: Optional[bool] = None,
        replication_factor: int = 1,
        backend_logs: bool = False,
        quota: Optional[QuotaPolicy] = None,
        probe_interval: float = 0.5,
        probe_timeout: float = 2.0,
        backend_timeout: float = 60.0,
        stream_timeout: Optional[float] = None,
        base_dir: Optional[str] = None,
        gateway: bool = False,
    ) -> None:
        if n_backends < 1:
            raise ClusterError(f"n_backends must be >= 1, got {n_backends}")
        if mode not in ("thread", "process"):
            raise ClusterError(f"mode must be 'thread' or 'process', got {mode!r}")
        self.n_backends = n_backends
        self.mode = mode
        self.workers = workers
        self.queue_size = queue_size
        self.executor = executor
        self.cache = cache
        self.router_log = router_log
        self.router_index = router_log if router_index is None else router_index
        self.replication_factor = replication_factor
        self.backend_logs = backend_logs
        self.quota = quota
        self.probe_interval = probe_interval
        self.probe_timeout = probe_timeout
        self.backend_timeout = backend_timeout
        self.stream_timeout = stream_timeout
        self._own_dir = base_dir is None
        self.base_dir = Path(base_dir) if base_dir is not None else None
        self.backends: List[Any] = []
        self.router_handle: Optional[RouterHandle] = None
        self.gateway = gateway
        self.gateway_handle: Optional[Any] = None
        self._router_port: Optional[int] = None
        self._gateway_port: Optional[int] = None
        self._started = False

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> "LocalCluster":
        if self._started:
            return self
        if self.base_dir is None:
            self.base_dir = Path(tempfile.mkdtemp(prefix="repro-cluster-"))
        self.base_dir.mkdir(parents=True, exist_ok=True)
        for i in range(self.n_backends):
            self.backends.append(self._start_backend(i))
        self._start_router()
        self._started = True
        return self

    def _start_backend(self, i: int, port: int = 0):
        if self.mode == "thread":
            kwargs: Dict[str, Any] = {
                "port": port,
                "workers": self.workers,
                "queue_size": self.queue_size,
                "executor": self.executor,
                "node_id": f"backend-{i}",
            }
            if self.cache:
                kwargs["cache"] = ResultCache()
            if self.backend_logs:
                kwargs["job_log"] = JobLog(self.base_dir / f"backend-{i}.wal")
            return _ThreadBackend(serve_background(**kwargs))
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--port", str(port),
            "--workers", str(self.workers),
            "--queue-size", str(self.queue_size),
            "--node-id", f"backend-{i}",
        ]
        if self.executor is not None:
            argv += ["--executor", self.executor]
        if self.cache:
            argv += ["--cache", "--cache-dir", str(self.base_dir / f"cache-{i}")]
        if self.backend_logs:
            argv += ["--log", str(self.base_dir / f"backend-{i}.wal")]
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return _ProcessBackend(argv, env)

    def _start_router(self) -> None:
        kwargs: Dict[str, Any] = {
            "backends": self.backend_addresses,
            "probe_interval": self.probe_interval,
            "probe_timeout": self.probe_timeout,
            "backend_timeout": self.backend_timeout,
            "quota": self.quota,
            "replication_factor": self.replication_factor,
            "stream_timeout": self.stream_timeout,
        }
        if self.router_log:
            kwargs["job_log"] = JobLog(self.router_log_path)
        if self.router_index:
            kwargs["result_index"] = str(self.router_index_path)
        if self._router_port is not None:
            kwargs["port"] = self._router_port
        if self.gateway:
            # Router + gateway on one loop: the gateway calls straight
            # into loop-owned router state, so they must be born together.
            from repro.cluster.router import ShardRouter
            from repro.gateway.server import gateway_background

            self.gateway_handle = gateway_background(
                lambda: ShardRouter(**kwargs),
                port=self._gateway_port or 0,
            )
            self._gateway_port = self.gateway_handle.address[1]
            self._router_port = self.gateway_handle.gateway.target.address[1]
        else:
            self.router_handle = router_background(**kwargs)
            self._router_port = self.router_handle.address[1]

    @property
    def router_log_path(self) -> Path:
        if self.base_dir is None:
            raise ClusterError("cluster is not started")
        return self.base_dir / "router.wal"

    @property
    def router_index_path(self) -> Path:
        if self.base_dir is None:
            raise ClusterError("cluster is not started")
        return self.base_dir / "router.idx"

    def stop(self) -> None:
        if self.gateway_handle is not None:
            self.gateway_handle.stop()  # stops the router it owns too
            self.gateway_handle = None
        if self.router_handle is not None:
            self.router_handle.stop()
            self.router_handle = None
        for backend in self.backends:
            if backend.alive:
                backend.stop()
        self.backends = []
        self._started = False
        if self._own_dir and self.base_dir is not None:
            # Self-created scratch (WALs, per-backend caches): remove it,
            # and forget the path so a later start() gets a fresh one.
            shutil.rmtree(self.base_dir, ignore_errors=True)
            self.base_dir = None

    def __enter__(self) -> "LocalCluster":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # -- access ----------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        if self.gateway_handle is not None:
            return self.gateway_handle.gateway.target.address
        if self.router_handle is None:
            raise ClusterError("cluster is not started")
        return self.router_handle.address

    @property
    def router(self):
        if self.gateway_handle is not None:
            return self.gateway_handle.gateway.target
        if self.router_handle is None:
            raise ClusterError("cluster is not started")
        return self.router_handle.router

    @property
    def gateway_address(self) -> Tuple[str, int]:
        if self.gateway_handle is None:
            raise ClusterError("cluster was not started with gateway=True")
        return self.gateway_handle.address

    def gateway_client(self, **kwargs: Any):
        """A fresh :class:`~repro.gateway.client.GatewayClient` pointed
        at the gateway's HTTP address."""
        from repro.gateway.client import GatewayClient

        return GatewayClient(self.gateway_address, **kwargs)

    @property
    def backend_addresses(self) -> List[str]:
        return [f"{b.address[0]}:{b.address[1]}" for b in self.backends]

    def client(self, **kwargs: Any) -> ServiceClient:
        """A fresh (unconnected) client pointed at the router."""
        host, port = self.address
        return ServiceClient(host, port, **kwargs)

    # -- fault injection -------------------------------------------------------
    def kill_backend(self, index: int) -> str:
        """Kill backend *index*; returns its node id.  The router
        notices via its next forwarded request or health probe."""
        backend = self.backends[index]
        node_id = f"{backend.address[0]}:{backend.address[1]}"
        backend.kill()
        return node_id

    def revive_backend(self, index: int) -> str:
        """Restart a killed backend on its *original* address — host
        recovery, as the router sees it: the node id is unchanged, so
        the next health probe marks it back up and rendezvous placement
        returns its keys.  Thread-mode revivals start with a cold
        in-memory cache; process-mode revivals keep their on-disk one.
        Returns the node id.  The soak harness's kill/restart loop is
        the primary caller.
        """
        backend = self.backends[index]
        if backend.alive:
            return self.node_id(index)
        host, port = backend.address
        self.backends[index] = self._start_backend(index, port=port)
        return self.node_id(index)

    def pause_backend(self, index: int) -> str:
        """SIGSTOP backend *index* (process mode only): the node is
        alive-but-frozen — sockets accept, nothing answers.  The
        grey-failure case probe timeouts and ``stream_timeout`` exist
        for, distinct from :meth:`kill_backend`'s clean death.
        Returns the node id."""
        backend = self.backends[index]
        if not isinstance(backend, _ProcessBackend):
            raise ClusterError("pause_backend needs mode='process'")
        os.kill(backend.proc.pid, signal.SIGSTOP)
        return self.node_id(index)

    def resume_backend(self, index: int) -> str:
        """SIGCONT a paused backend; returns the node id."""
        backend = self.backends[index]
        if not isinstance(backend, _ProcessBackend):
            raise ClusterError("resume_backend needs mode='process'")
        os.kill(backend.proc.pid, signal.SIGCONT)
        return self.node_id(index)

    def set_backend_latency(self, index: int, seconds: float) -> str:
        """Inject *seconds* of reply latency into backend *index*
        (thread mode only — the hook lives on the in-process service).
        Latency above the router's probe timeout turns the node into a
        slow-node grey failure: probes time out, the router routes
        around it, and recovery is just setting ``0.0`` back.
        Returns the node id."""
        backend = self.backends[index]
        if not isinstance(backend, _ThreadBackend):
            raise ClusterError("set_backend_latency needs mode='thread'")
        backend.handle.service.response_delay = max(0.0, float(seconds))
        return self.node_id(index)

    def node_id(self, index: int) -> str:
        backend = self.backends[index]
        return f"{backend.address[0]}:{backend.address[1]}"

    def backend_index(self, node_id: str) -> int:
        for i, backend in enumerate(self.backends):
            if f"{backend.address[0]}:{backend.address[1]}" == node_id:
                return i
        raise ClusterError(f"unknown node id {node_id!r}")

    def restart_router(self, settle: float = 0.0) -> None:
        """Stop the router (and its gateway, if any) and start fresh on
        the same port(s) with the same job log — the restart-with-replay
        path."""
        if self.gateway_handle is not None:
            self.gateway_handle.stop()
            self.gateway_handle = None
        elif self.router_handle is None:
            raise ClusterError("cluster is not started")
        else:
            self.router_handle.stop()
            self.router_handle = None
        if settle:
            time.sleep(settle)
        self._start_router()
