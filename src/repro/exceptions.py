"""Exception hierarchy shared across the :mod:`repro` package.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can catch simulator-level failures without also swallowing
programming errors (``TypeError`` and friends propagate untouched).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class TopologyError(ReproError):
    """A site or link referenced in the network topology does not exist."""


class PortPolicyError(ReproError):
    """An operation required an inbound network port a site does not allow.

    This models the deployment constraint at the heart of the paper: HPC
    centers rarely allow services to listen on externally reachable ports,
    which is why the Parsl baseline needs "open ports or a tunnel" while the
    FuncX/Globus stack only makes outbound connections.
    """


class FileSystemError(ReproError):
    """A path was missing or a site attempted to use a non-mounted volume."""


class AuthenticationError(ReproError):
    """A request carried a missing, expired, or malformed credential."""


class AuthorizationError(ReproError):
    """A valid identity lacked the scope or role required for an operation."""


class SerializationError(ReproError):
    """An object could not be serialized or deserialized for transport."""


class PayloadTooLargeError(SerializationError):
    """A payload exceeded a transport's size cap (e.g. FuncX's 10 MB)."""


class TaskError(ReproError):
    """A task failed on a worker; carries the remote traceback text."""

    def __init__(self, message: str, *, remote_traceback: str | None = None):
        super().__init__(message)
        self.remote_traceback = remote_traceback


class DeadlineExceededError(ReproError):
    """A blocking wait elapsed before the awaited event happened."""


#: Deprecated alias for :class:`DeadlineExceededError` (the old name worked
#: around shadowing the builtin ``TimeoutError`` with a trailing underscore).
TimeoutError_ = DeadlineExceededError


class RetryExhaustedError(ReproError):
    """An operation failed on every attempt its retry budget allowed.

    Carries the number of attempts and the last underlying error so callers
    can distinguish "gave up retrying" from a first-try failure.
    """

    def __init__(
        self,
        message: str,
        *,
        attempts: int | None = None,
        last_error: str | None = None,
    ) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


class InvalidTenantError(ReproError):
    """A tenant name failed validation (charset/length) or is unknown to the
    control plane; raised at registration/submission time so the mistake
    surfaces where it was made rather than as a later ``KeyError``."""


class InvalidFunctionError(ReproError):
    """A function name failed validation (charset/length) at registration
    time, or a function id does not resolve within the caller's tenant."""


class ThrottledError(ReproError):
    """The control plane rejected a request with a *retryable* throttle
    response (HTTP-429-shaped).  ``retry_after`` is the server's hint, in
    nominal seconds, for when the client should try again; clients are
    expected to back off and resubmit rather than fail the task."""

    def __init__(self, message: str, *, retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class TenantQuotaExceededError(ThrottledError):
    """A tenant hit one of its quotas (in-flight tasks, registered
    functions, queued bytes) or its submit rate limit.  Retryable: quota
    headroom returns as in-flight work completes or the token bucket
    refills."""


class ShardUnavailableError(ThrottledError):
    """The shard that owns the request's partition is restarting or
    otherwise briefly unavailable.  Retryable: the shard's durable state
    (queues, payload store) survives the restart, so a resubmission after
    ``retry_after`` succeeds without losing work."""


class TaskQuarantinedError(ReproError):
    """A task's argument fingerprint was quarantined as a poison task: it
    failed deterministically on a quorum of distinct endpoints and now lives
    in the tenant's dead-letter queue.  Terminal, *not* retryable — retrying
    would burn budget on a task that fails everywhere; an operator must
    ``deadletter retry`` (after fixing the cause) or ``deadletter drop`` it."""

    def __init__(self, message: str, *, fingerprint: str | None = None) -> None:
        super().__init__(message)
        self.fingerprint = fingerprint


class LeaseExpiredError(ReproError):
    """An endpoint acted on a task after its heartbeat lease expired and the
    task was handed to another endpoint (the action must be discarded)."""


class EndpointUnavailableError(ReproError):
    """A FaaS endpoint was offline and the operation could not be queued."""


class TransferError(ReproError):
    """A managed data transfer failed terminally."""


class StoreError(ReproError):
    """A ProxyStore backend operation failed (missing key, evicted, ...)."""


class ProxyResolutionError(StoreError):
    """A proxy's factory could not produce the target object."""


class SchedulerError(ReproError):
    """The batch scheduler rejected a job request."""


class WorkflowError(ReproError):
    """Generic workflow-engine failure (double shutdown, bad method, ...)."""


class ResultNotReadyError(WorkflowError):
    """A result was asked for before the task reached a terminal state.

    Not a failed attempt: the task is still in flight.  A doorbell can
    announce a result the cloud's durable state does not hold — rung by a
    shard instance a crash had already discarded — and the re-leased task
    rings again when it really completes.
    """
