"""Engine-owned executor lifecycle.

Executor construction and the shared-memory image plumbing live in
one place: :func:`engine_executor` turns a request's
executor choice into a live, context-managed executor, doing the
:class:`~repro.parallel.sharedmem.SharedImage` setup exactly once for
process pools, and guaranteeing shutdown on exit.  A live
:class:`Executor` instance passed in a request is used as-is — its
lifecycle stays with the caller.

Batch runs invert the ownership: :func:`batch_pool` builds one executor
that outlives N requests, so pool start-up is paid once per batch
instead of once per image.  Serial and thread pools run worker code in
the dispatching process, where the orchestrator's ``set_worker_image``
call is all the image plumbing needed; process pools get a
:class:`SwitchingProcessExecutor`, which re-homes each request's image
in a fresh shared-memory block and tags every task message with the
block to use, so one pool of workers serves the whole dataset.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import FIRST_COMPLETED, Future, wait
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.engine.schema import DetectionRequest
from repro.errors import ConfigurationError, ExecutorError
from repro.imaging.image import Image
from repro.parallel.executor import Executor, SerialExecutor, ThreadExecutor
from repro.parallel.process import ProcessExecutor
from repro.parallel.sharedmem import (
    SharedImage,
    use_shared_image,
    worker_initializer,
)

__all__ = [
    "engine_executor",
    "auto_executor_kind",
    "auto_budgets",
    "clear_auto_budget_cache",
    "batch_pool",
    "AsyncExecutor",
    "SwitchingProcessExecutor",
]

#: Below this total-iteration budget parallel dispatch cannot win back
#: its start-up cost, so "auto" stays serial.
AUTO_SERIAL_BUDGET = 50_000
#: Between the serial and process thresholds "auto" uses threads: pool
#: start-up is ~free and numpy's GIL releases give some overlap.
AUTO_THREAD_BUDGET = 400_000

#: Environment variable naming the calibration file ``auto`` selection
#: loads its budgets from; default is :data:`CALIBRATION_FILE` in the
#: working directory (written by ``repro calibrate --save``).
CALIBRATION_ENV = "REPRO_CALIBRATION"
CALIBRATION_FILE = ".repro-calibration.json"

# Loaded (serial, thread) budgets keyed by resolved path; None caches
# "no usable file" so auto selection stats the filesystem once, not
# once per request.
_BUDGET_CACHE: dict = {}


def _calibration_path() -> Path:
    return Path(os.environ.get(CALIBRATION_ENV) or CALIBRATION_FILE)


def auto_budgets() -> Tuple[int, int]:
    """The (serial, thread) iteration budgets ``auto`` selection uses.

    Measured budgets from the host's calibration file (see
    :func:`repro.bench.calibration.save_calibration` and ``repro
    calibrate --save``) when one is readable, else the built-in
    defaults.  The file is consulted once per path and cached; call
    :func:`clear_auto_budget_cache` after writing a new calibration.
    """
    path = _calibration_path()
    key = str(path)
    if key not in _BUDGET_CACHE:
        _BUDGET_CACHE[key] = _load_budgets(path)
    loaded = _BUDGET_CACHE[key]
    return loaded if loaded is not None else (AUTO_SERIAL_BUDGET, AUTO_THREAD_BUDGET)


def _load_budgets(path: Path) -> Optional[Tuple[int, int]]:
    try:
        data = json.loads(path.read_text())
        budgets = data["auto_budgets"]
        serial = int(budgets["serial_budget"])
        thread = int(budgets["thread_budget"])
    except (OSError, ValueError, KeyError, TypeError):
        return None
    if not (0 < serial <= thread):
        return None  # nonsense thresholds read as "uncalibrated"
    return serial, thread


def clear_auto_budget_cache() -> None:
    """Forget loaded calibration budgets (after writing a new file)."""
    _BUDGET_CACHE.clear()


def auto_executor_kind(n_tasks: int, iterations_per_task: int) -> str:
    """Pick an executor kind from the shape of the work.

    One task can never be parallelised; tiny budgets are not worth any
    pool start-up; mid-size budgets get threads (cheap start-up);
    large budgets get a process pool (true parallelism for the
    Python-level MCMC inner loop).  The serial/thread thresholds come
    from the host's calibration file when present
    (:func:`auto_budgets`), else the built-in defaults.
    """
    if n_tasks <= 1:
        return "serial"
    serial_budget, thread_budget = auto_budgets()
    budget = n_tasks * iterations_per_task
    if budget < serial_budget:
        return "serial"
    if budget < thread_budget:
        return "thread"
    return "process"


@contextmanager
def engine_executor(
    request: DetectionRequest, image: Image, n_tasks: int
) -> Iterator[Tuple[Executor, str]]:
    """Yield ``(executor, kind)`` for *request*, owning its lifecycle.

    Engine-constructed executors (string choices) are shut down on exit,
    and a process pool's shared-memory image block is created, attached
    to workers, and unlinked here.  Caller-supplied instances are
    yielded untouched.
    """
    choice = request.executor
    if isinstance(choice, Executor):
        # Batch pools label themselves so reports read "process", not
        # "caller"; genuinely caller-owned executors have no label.
        yield choice, getattr(choice, "kind_label", "caller")
        return

    kind = choice or "auto"
    if kind == "auto":
        kind = auto_executor_kind(n_tasks, request.iterations)

    if kind == "serial":
        with SerialExecutor() as exec_:
            yield exec_, "serial"
    elif kind == "thread":
        workers = request.n_workers or max(1, min(n_tasks, os.cpu_count() or 1))
        with ThreadExecutor(workers) as exec_:
            yield exec_, "thread"
    elif kind == "process":
        workers = request.n_workers or max(1, min(n_tasks, os.cpu_count() or 1))
        with SharedImage.create(image) as shm:
            with ProcessExecutor(
                workers,
                initializer=worker_initializer,
                initargs=shm.attach_args(),
            ) as exec_:
                yield exec_, "process"
    else:  # pragma: no cover - schema validation rejects this earlier
        raise ConfigurationError(f"unknown executor choice {kind!r}")


# -- batch pool reuse ----------------------------------------------------------

def _shared_image_call(payload: Tuple[str, Tuple[int, int], Callable, Any]) -> Any:
    """Worker-side trampoline: install the named shared image, run the task.

    Module-level so it pickles; the attach is cached per worker per
    block name (see :func:`repro.parallel.sharedmem.use_shared_image`).
    """
    shm_name, shape, fn, task = payload
    use_shared_image(shm_name, shape)
    return fn(task)


class SwitchingProcessExecutor(Executor):
    """A process pool reused across requests with *different* images.

    The per-run process path puts one image in shared memory at pool
    start-up; a batch has N images but should pay pool start-up once.
    This executor keeps one persistent :class:`ProcessExecutor` and a
    *current* shared block: :meth:`use_image` re-homes the block for the
    next request, and :meth:`map` prefixes every task message with the
    block's (name, shape) so workers attach to the right image lazily.
    """

    kind_label = "process"

    def __init__(self, n_workers: int, start_method: str = "fork") -> None:
        self._pool = ProcessExecutor(n_workers, start_method=start_method)
        self._shared: Optional[SharedImage] = None

    def use_image(self, image: Image) -> None:
        """Make *image* the one task messages reference from now on."""
        self._release_shared()
        self._shared = SharedImage.create(image)

    def map(self, fn: Callable[[Any], Any], tasks: Sequence[Any]) -> List[Any]:
        if self._shared is None:
            raise ExecutorError(
                "SwitchingProcessExecutor.map() before use_image(); the pool "
                "has no image to offer workers"
            )
        name, shape = self._shared.attach_args()
        payloads = [(name, shape, fn, task) for task in tasks]
        return self._pool.map(_shared_image_call, payloads)

    def submit(self, fn: Callable[[Any], Any], task: Any) -> "Future":
        if self._shared is None:
            raise ExecutorError(
                "SwitchingProcessExecutor.submit() before use_image(); the "
                "pool has no image to offer workers"
            )
        name, shape = self._shared.attach_args()
        return self._pool.submit(_shared_image_call, (name, shape, fn, task))

    @property
    def parallelism(self) -> int:
        return self._pool.parallelism

    def _release_shared(self) -> None:
        if self._shared is not None:
            self._shared.close()
            try:
                self._shared.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self._shared = None

    def shutdown(self) -> None:
        # Workers may still hold attachments; POSIX keeps the mapping
        # alive after unlink, so release order does not matter.
        self._release_shared()
        self._pool.shutdown()


#: Tile count assumed per request before planning has run — the
#: smallest parallel grid (2×2).  Under-estimating errs toward the
#: cheaper pool kind and the smaller pool.
BATCH_TASKS_PER_REQUEST = 4


@contextmanager
def batch_pool(
    kind: str,
    n_requests: int,
    iterations: int,
    n_workers: Optional[int] = None,
) -> Iterator[Tuple[Executor, str]]:
    """Yield one ``(executor, kind)`` to share across a whole batch.

    ``kind`` is an :data:`EXECUTOR_CHOICES` string; ``auto`` picks from
    the batch's *total* budget the same way per-run dispatch does
    (paying pool start-up is worth it for a batch even when no single
    request would justify it).  Pool *size* follows the per-request
    shape instead: requests dispatch sequentially, so concurrency never
    exceeds one request's task count — :data:`BATCH_TASKS_PER_REQUEST`
    by default; pass ``n_workers`` when per-image partition counts are
    known to be higher.  The yielded executor carries a ``kind_label``
    so per-request reports name the real pool kind.
    """
    if kind == "auto":
        kind = auto_executor_kind(BATCH_TASKS_PER_REQUEST * n_requests, iterations)
    workers = n_workers or max(
        1, min(BATCH_TASKS_PER_REQUEST, os.cpu_count() or 1)
    )
    if kind == "serial":
        pool: Executor = SerialExecutor()
        pool.kind_label = "serial"  # type: ignore[attr-defined]
    elif kind == "thread":
        pool = ThreadExecutor(workers)
        pool.kind_label = "thread"  # type: ignore[attr-defined]
    elif kind == "process":
        pool = SwitchingProcessExecutor(workers)
    else:
        raise ConfigurationError(f"unknown batch executor choice {kind!r}")
    try:
        yield pool, kind
    finally:
        pool.shutdown()


# -- streaming dispatch --------------------------------------------------------

class AsyncExecutor:
    """Streaming dispatch: submit tasks as planning discovers them,
    surface each completion the moment it happens.

    The blocking path (:func:`engine_executor` + ``map``) needs the full
    task list before any chain starts, so the estimation phase and the
    chain execution phase run strictly in sequence.  This executor
    inverts that: :meth:`submit` dispatches one task immediately, so the
    orchestrator can keep *planning* partition ``i+1`` (threshold scans,
    count estimation) while partitions ``0..i`` are already sampling —
    and :meth:`completed`/:meth:`iter_completed` hand back each tile's
    result as soon as its chain finishes, which is what lets the service
    layer stream per-partition fragments instead of waiting for merge.

    Kind resolution mirrors :func:`engine_executor` — a live
    :class:`Executor` in the request is used as-is (caller-owned
    lifecycle, inline ``submit`` unless it provides its own); string
    choices are constructed here and shut down on exit, shared-memory
    image plumbing included.  ``auto`` cannot see the final task count
    before planning has run, so it sizes from *expected_tasks* (the
    smallest parallel grid by default — erring toward the cheaper kind).

    Completion order is nondeterministic on real pools; result *content*
    is not (chains are seeded per task), and :meth:`results` returns
    submit order for the merge step, so streamed-then-merged output is
    bit-identical to the blocking path.
    """

    def __init__(
        self,
        request: DetectionRequest,
        image: Image,
        expected_tasks: Optional[int] = None,
    ) -> None:
        self._request = request
        self._image = image
        # None: final task count unknown at pool-open time — assume the
        # smallest parallel grid, erring toward the cheaper pool kind.
        self._expected_tasks = max(1, expected_tasks or BATCH_TASKS_PER_REQUEST)
        self._pool: Optional[Executor] = None
        self._owned = False
        self._shared: Optional[SharedImage] = None
        self._futures: List[Future] = []
        self._pending: set = set()  # indices submitted but not yet surfaced
        self.kind = "serial"

    def __enter__(self) -> "AsyncExecutor":
        choice = self._request.executor
        if isinstance(choice, Executor):
            self._pool = choice
            self.kind = getattr(choice, "kind_label", "caller")
            return self
        kind = choice or "auto"
        if kind == "auto":
            kind = auto_executor_kind(self._expected_tasks, self._request.iterations)
        workers = self._request.n_workers or max(
            1, min(self._expected_tasks, os.cpu_count() or 1)
        )
        if kind == "serial":
            self._pool = SerialExecutor()
        elif kind == "thread":
            self._pool = ThreadExecutor(workers)
        elif kind == "process":
            self._shared = SharedImage.create(self._image)
            self._pool = ProcessExecutor(
                workers,
                initializer=worker_initializer,
                initargs=self._shared.attach_args(),
            )
        else:  # pragma: no cover - schema validation rejects this earlier
            raise ConfigurationError(f"unknown executor choice {kind!r}")
        self._owned = True
        self.kind = kind
        return self

    def __exit__(self, *exc) -> None:
        if self._owned and self._pool is not None:
            self._pool.shutdown()
        if self._shared is not None:
            self._shared.close()
            try:
                self._shared.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self._shared = None
        self._pool = None

    def submit(self, fn: Callable[[Any], Any], task: Any) -> int:
        """Dispatch *task* now; returns its index (submit order)."""
        if self._pool is None:
            raise ExecutorError("AsyncExecutor used outside its context")
        index = len(self._futures)
        self._futures.append(self._pool.submit(fn, task))
        self._pending.add(index)
        return index

    def completed(self) -> List[Tuple[int, Any]]:
        """Tasks finished since the last call, without blocking.

        Ties (several tasks done at once) surface in index order so the
        serial pool — where every task is done by submit's return —
        streams fragments in tile order.
        """
        done = sorted(i for i in self._pending if self._futures[i].done())
        for i in done:
            self._pending.discard(i)
        return [(i, self._futures[i].result()) for i in done]

    def iter_completed(self) -> Iterator[Tuple[int, Any]]:
        """Yield every not-yet-surfaced task as it completes (blocking)."""
        while self._pending:
            wait(
                [self._futures[i] for i in self._pending],
                return_when=FIRST_COMPLETED,
            )
            for item in self.completed():
                yield item

    def results(self) -> List[Any]:
        """All results in submit order (blocks until every task is done)."""
        return [f.result() for f in self._futures]

    @property
    def n_submitted(self) -> int:
        return len(self._futures)
