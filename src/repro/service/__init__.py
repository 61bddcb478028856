"""repro.service — the async detection service.

The layer that turns the engine library into a server: submissions go
onto a bounded priority job queue, a worker pool drains it through the
engine's streaming path, and clients watch per-partition result
fragments arrive over a JSON-lines TCP protocol instead of blocking on
run-to-completion calls::

    # server (or `repro serve --port 7341 --workers 4 --cache`)
    from repro.service import serve_background
    handle = serve_background(workers=2, queue_size=8)

    # client (or `repro detect --server HOST:PORT`)
    from repro.service import ServiceClient, scene_job
    with ServiceClient(*handle.address) as client:
        out = client.detect(scene_job(size=64, circles=4, iterations=800))
        print(len(out.fragments), "fragments,", len(out.circles), "circles")
    handle.stop()

The pieces:

* :mod:`~repro.service.jobs` — job identity, state machine, event log,
  subscriber fan-out;
* :mod:`~repro.service.queue` — bounded priority admission with
  reject-with-retry-after backpressure;
* :mod:`~repro.service.protocol` — the wire schema (submit / status /
  cancel / stream / stats) and job-spec → request construction;
* :mod:`~repro.service.jobserver` — the one JSON-lines connection loop
  and op table under both the service and the cluster router, which
  the HTTP gateway also calls directly;
* :mod:`~repro.service.server` — the service's job side: the worker
  pool over :func:`repro.engine.run_stream`, with
  :class:`~repro.engine.cache.ResultCache` consult-before-dispatch /
  publish-after-merge;
* :mod:`~repro.service.client` — the blocking stdlib client the CLI,
  tests, and benchmarks use;
* :mod:`~repro.service.store` — the durable JSON-lines stores: the job
  WAL every job server replays pending jobs from, and the router's
  index of terminal job ids.

Determinism carries through: a job's streamed fragments and merged
result are bit-identical to a direct :func:`repro.engine.run` of the
same request, so the service is a transport, never a source of
numerical drift.
"""

from repro.service.client import ServiceClient, StreamedDetection
from repro.service.jobs import Job, JobState, TERMINAL_STATES
from repro.service.jobserver import JobServer
from repro.service.policy import RetryPolicy, RetryState
from repro.service.protocol import (
    event_to_wire,
    pgm_job,
    pixels_job,
    request_from_wire,
    scene_job,
)
from repro.service.queue import JobQueue
from repro.service.server import (
    DetectionService,
    ServiceHandle,
    serve_background,
    serve_forever,
)
from repro.service.store import (
    IndexedResult,
    JobLog,
    JobLogReplay,
    JsonlSegment,
    PendingJob,
    ResultIndex,
)

__all__ = [
    "DetectionService",
    "JobServer",
    "ServiceHandle",
    "serve_background",
    "serve_forever",
    "ServiceClient",
    "StreamedDetection",
    "RetryPolicy",
    "RetryState",
    "Job",
    "JobState",
    "TERMINAL_STATES",
    "JobQueue",
    "IndexedResult",
    "JobLog",
    "JobLogReplay",
    "JsonlSegment",
    "PendingJob",
    "ResultIndex",
    "scene_job",
    "pgm_job",
    "pixels_job",
    "request_from_wire",
    "event_to_wire",
]
