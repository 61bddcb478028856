"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised deliberately by this library derive from
:class:`ReproError` so that callers can catch library failures without
accidentally swallowing programming errors (``TypeError`` etc. are still
raised for misuse that static checking would catch).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "GeometryError",
    "ImagingError",
    "ChainError",
    "PartitioningError",
    "ExecutorError",
    "CalibrationError",
    "EngineError",
    "UnknownStrategyError",
    "ServiceError",
    "ServiceUnavailableError",
    "QueueFullError",
    "QuotaExceededError",
    "JobNotFoundError",
    "DeadlineExceededError",
    "ClusterError",
    "GatewayError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """Invalid user-supplied configuration or parameter combination."""


class GeometryError(ReproError):
    """Invalid geometric construction (degenerate rect, negative radius...)."""


class ImagingError(ReproError):
    """Image container / synthetic scene / filter failures."""


class ChainError(ReproError):
    """Markov chain driver failures (state corruption, bad move, ...)."""


class PartitioningError(ReproError):
    """Partition grid / segmentation / merge failures."""


class ExecutorError(ReproError):
    """Parallel executor failures (worker crash, pool misuse, ...)."""


class CalibrationError(ReproError):
    """Benchmark calibration could not produce usable timings."""


class EngineError(ReproError):
    """Detection-engine failures (registry misuse, bad request, ...)."""


class UnknownStrategyError(EngineError):
    """A detection request named a strategy that is not registered."""


class ServiceError(ReproError):
    """Detection-service failures (protocol violation, bad job spec, ...)."""


class QueueFullError(ServiceError):
    """The service job queue is at capacity; retry after a delay.

    ``retry_after`` is the server's estimate (seconds) of when capacity
    should free up — the backpressure contract clients are expected to
    honour instead of hammering the queue.
    """

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class ServiceUnavailableError(ServiceError):
    """The connection to a service was refused, reset, or closed
    mid-request.  The client may transparently reconnect and retry
    (see :class:`repro.service.client.ServiceClient`) — in a cluster,
    this is what a router restart or a dying node looks like from
    outside."""


class QuotaExceededError(QueueFullError):
    """A per-client quota rejected the submission; retry after a delay.

    Subclasses :class:`QueueFullError` deliberately: quota rejections
    reuse the queue's retry-after backpressure shape, so any client loop
    that already honours queue-full rejections honours quotas for free.
    """


class JobNotFoundError(ServiceError):
    """A status/cancel/stream request named an unknown job id."""


class DeadlineExceededError(ServiceError):
    """An operation's overall deadline expired before it could finish.

    Distinct from :class:`QueueFullError` (the server asked for a
    retry) and :class:`ServiceUnavailableError` (the connection died):
    this is the *caller's* time budget running out — raised by
    :class:`repro.service.policy.RetryPolicy` instead of sleeping into
    a wait that cannot succeed, and by servers shedding queued work
    whose propagated wire deadline has already passed.
    """


class ClusterError(ServiceError):
    """Cluster-layer failures (no healthy backends, routing misuse, ...)."""


class GatewayError(ServiceError):
    """HTTP-gateway failures (malformed requests, bad admin ops, ...)."""
