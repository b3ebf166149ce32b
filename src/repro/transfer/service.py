"""A Globus-Transfer-like cloud-managed data transfer service.

The paper uses Globus Transfer as the wide-area data plane of ProxyStore's
Globus backend.  Its performance signature (§V-C2, §V-D1) is:

* submitting a transfer is an HTTPS request taking ≈500 ms on average;
* a transfer "typically completes in 1–5 s, depending on data transfer node
  utilization and concurrent transfer limits per user" — i.e. a size-
  independent orchestration floor for payloads up to ≈100 MB, after which
  bandwidth matters;
* the service enforces a per-user concurrent-transfer limit (the paper
  suggests fusing files into one task to sidestep it);
* the cloud service is store-and-forward robust: submitted tasks survive
  client disconnection and endpoints being temporarily offline.

:class:`TransferService` reproduces all four with no thread of its own:
wherever a task can become eligible it starts every queued task the limit
allows, and each started attempt lands on one process-reactor timer that
copies file bytes between the endpoints' staging volumes.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
from dataclasses import dataclass, field
from enum import Enum

from repro.batch.reactor import get_reactor
from repro.chaos.plan import chaos_check
from repro.exceptions import FileSystemError, TransferError
from repro.net.clock import get_clock
from repro.net.context import at_site
from repro.net.defaults import PaperConstants
from repro.net.fs import FileSystem
from repro.net.topology import Network, Site
from repro.observe import TraceContext, counter_inc, gauge_set, observe, record_span

__all__ = [
    "TransferEndpoint",
    "TransferItem",
    "TransferStatus",
    "TransferTask",
    "TransferService",
]


@dataclass(frozen=True)
class TransferEndpoint:
    """A Globus collection: a named staging volume at a site."""

    endpoint_id: str
    site: Site
    volume: FileSystem
    # A paused endpoint (a flag on the service) holds its transfers back.
    #: Notified by every landing here, so a reader waits instead of polling.
    landed: threading.Condition = field(
        default_factory=threading.Condition, init=False, repr=False, compare=False
    )


@dataclass(frozen=True)
class TransferItem:
    src_path: str
    dst_path: str


class TransferStatus(str, Enum):
    QUEUED = "QUEUED"
    ACTIVE = "ACTIVE"
    SUCCEEDED = "SUCCEEDED"
    FAILED = "FAILED"
    CANCELLED = "CANCELLED"

    @property
    def terminal(self) -> bool:
        return self in (
            TransferStatus.SUCCEEDED,
            TransferStatus.FAILED,
            TransferStatus.CANCELLED,
        )


@dataclass
class TransferTask:
    task_id: str
    user: str
    src: TransferEndpoint
    dst: TransferEndpoint
    items: tuple[TransferItem, ...]
    status: TransferStatus = TransferStatus.QUEUED
    submitted_at: float = 0.0
    started_at: float | None = None
    completed_at: float | None = None
    bytes_transferred: int = 0
    error: str | None = None
    #: Times the task was requeued; faults themselves are counted per file.
    retries: int = 0
    #: Files still to copy (the faulted ones, once the rest have landed).
    todo: tuple[TransferItem, ...] = ()
    #: ``dst_path`` -> faulted attempts so far.
    attempts: dict[str, int] = field(default_factory=dict)
    trace_ctx: TraceContext | None = None
    #: Set once when the per-user concurrency limit first defers this task,
    #: so the ``transfer.limit_stalls`` counter ticks once per task, not
    #: once per admission pass.
    limit_stalled: bool = False
    #: Cancellation is asynchronous like real Globus: the flag is observed
    #: at the next opportunity (queue pop, landing, retry decision).
    cancel_requested: bool = False
    done_event: threading.Event = field(default_factory=threading.Event, repr=False)


class TransferService:
    """The cloud service: accepts tasks, enforces per-user concurrency,
    lands transfer attempts on reactor timers, and answers status polls."""

    MAX_RETRIES = 2

    def __init__(
        self,
        site: Site,
        network: Network,
        constants: PaperConstants | None = None,
    ) -> None:
        self.site = site
        self._network = network
        self._constants = constants or PaperConstants()
        self._clock = get_clock()
        self._endpoints: dict[str, TransferEndpoint] = {}
        self._paused: set[str] = set()
        self._tasks: dict[str, TransferTask] = {}
        self._queue: list[str] = []
        self._active_by_user: dict[str, int] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._running = False
        self._fail_next: list[str] = []  # test hook: error messages to inject

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "TransferService":
        self._running = True
        self._admit()
        return self

    def stop(self) -> None:
        """Start no further attempt; the ones in flight still land."""
        with self._lock:
            self._running = False

    # -- endpoint registry ----------------------------------------------------
    def register_endpoint(self, endpoint: TransferEndpoint) -> TransferEndpoint:
        with self._lock:
            if endpoint.endpoint_id in self._endpoints:
                raise TransferError(
                    f"endpoint {endpoint.endpoint_id!r} already registered"
                )
            self._endpoints[endpoint.endpoint_id] = endpoint
        return endpoint

    def endpoint(self, endpoint_id: str) -> TransferEndpoint:
        try:
            return self._endpoints[endpoint_id]
        except KeyError:
            raise TransferError(f"unknown endpoint {endpoint_id!r}") from None

    def pause_endpoint(self, endpoint_id: str) -> None:
        """Take an endpoint offline; its transfers wait (store-and-forward)."""
        with self._lock:
            self.endpoint(endpoint_id)
            self._paused.add(endpoint_id)

    def resume_endpoint(self, endpoint_id: str) -> None:
        with self._lock:
            self._paused.discard(endpoint_id)
        self._admit()

    def inject_failure(self, message: str = "DTN checksum mismatch") -> None:
        """Make the next landed transfer attempt fail (for failure tests)."""
        with self._lock:
            self._fail_next.append(message)

    # -- service API (no latency here; clients charge their own wire time) ----
    def submit(
        self,
        user: str,
        src_endpoint: str,
        dst_endpoint: str,
        items: list[TransferItem] | list[tuple[str, str]],
        *,
        trace_ctx: TraceContext | None = None,
    ) -> str:
        src, dst = self.endpoint(src_endpoint), self.endpoint(dst_endpoint)
        norm = tuple(
            it if isinstance(it, TransferItem) else TransferItem(*it) for it in items
        )
        if not norm:
            raise TransferError("a transfer task needs at least one item")
        task_id = f"gt-{next(self._ids):06d}"
        task = TransferTask(
            task_id=task_id,
            user=user,
            src=src,
            dst=dst,
            items=norm,
            todo=norm,
            submitted_at=self._clock.now(),
            trace_ctx=trace_ctx,
        )
        with self._lock:
            self._tasks[task_id] = task
            self._queue.append(task_id)
        self._admit()
        return task_id

    def status(self, task_id: str) -> TransferTask:
        with self._lock:
            try:
                return self._tasks[task_id]
            except KeyError:
                raise TransferError(f"unknown transfer task {task_id!r}") from None

    def active_count(self, user: str) -> int:
        with self._lock:
            return self._active_by_user.get(user, 0)

    def cancel(self, task_id: str) -> bool:
        """Request cancellation; returns True unless already terminal.

        A QUEUED task is cancelled immediately; an ACTIVE one finishes as
        CANCELLED when its attempt lands (the in-flight copy is abandoned,
        no destination files are written)."""
        with self._lock:
            task = self._tasks.get(task_id)
            if task is None:
                raise TransferError(f"unknown transfer task {task_id!r}")
            if task.status.terminal:
                return False
            task.cancel_requested = True
            if task.status is TransferStatus.QUEUED:
                self._queue = [tid for tid in self._queue if tid != task_id]
                task.status = TransferStatus.CANCELLED
                task.completed_at = self._clock.now()
                task.error = "cancelled by client"
                task.done_event.set()
                counter_inc("transfer.cancelled", user=task.user)
            return True

    # -- admission and landings ---------------------------------------------------
    def _eligible(self, task: TransferTask) -> bool:
        limit = self._constants.globus_concurrent_transfer_limit
        if self._active_by_user.get(task.user, 0) >= limit:
            if not task.limit_stalled:
                task.limit_stalled = True
                counter_inc("transfer.limit_stalls", user=task.user)
            return False
        if task.src.endpoint_id in self._paused or task.dst.endpoint_id in self._paused:
            return False
        return True

    def _admit(self) -> None:
        """Start every queued task that may run now; each started attempt
        stages its files and lands on one reactor timer."""
        with self._lock:
            if not self._running:
                return
            started: list[TransferTask] = []
            remaining: list[str] = []
            for task_id in self._queue:
                task = self._tasks[task_id]
                if self._eligible(task):
                    task.status = TransferStatus.ACTIVE
                    task.started_at = self._clock.now()
                    active = self._active_by_user
                    active[task.user] = active.get(task.user, 0) + 1
                    started.append(task)
                else:
                    remaining.append(task_id)
            self._queue = remaining
            gauge_set("transfer.active", sum(self._active_by_user.values()))
        for task in started:
            self._step(task, self._stage)

    def _step(self, task: TransferTask, step, *args) -> None:
        """Run one step of an attempt at the Globus site.  An unexpected
        error fails the task, so no task is left ACTIVE forever."""
        try:
            with at_site(self.site):
                step(task, *args)
        except Exception as exc:
            self._finish(task, TransferStatus.FAILED, error=repr(exc))

    def _later(self, delay: float, task: TransferTask, step, *args) -> None:
        get_reactor().call_later(delay, lambda: self._step(task, step, *args))

    def _transfer_duration(self, task: TransferTask, files: int, total_bytes: int) -> float:
        c = self._constants
        base = self._network._sample(c.globus_transfer_base)
        wire = total_bytes / min(
            c.globus_dtn_bandwidth,
            self._network.bandwidth(task.src.site, task.dst.site),
        )
        return base + c.globus_per_file_overhead * files + wire

    @staticmethod
    def _chaos_key(item: TransferItem) -> str:
        """Content-derived fault key: the destination path names the file
        stably across retries, runs, and whichever task it was fused into."""
        return hashlib.sha256(item.dst_path.encode()).hexdigest()[:16]

    def _stage(self, task: TransferTask) -> None:
        """Read the attempt's outstanding files at the source and arm its
        landing.  A file evicted at the source is skipped — its neighbours
        still land; with nothing left to read the task fails."""
        staged: list[tuple[TransferItem, bytes, int]] = []
        total, gone = 0, None
        for item in task.todo:
            try:
                data, nominal = task.src.volume.raw(item.src_path)
            except FileSystemError as exc:
                gone = str(exc)
                continue
            staged.append((item, data, nominal))
            total += nominal
        if not staged:
            self._finish(task, TransferStatus.FAILED, error=task.error or gone)
            return
        duration = self._transfer_duration(task, len(staged), total)
        self._later(duration, task, self._run_transfer, staged)

    def _run_transfer(
        self, task: TransferTask, staged: list[tuple[TransferItem, bytes, int]]
    ) -> None:
        """One attempt lands.

        Faults are per file: the files that copied cleanly land, the ones
        that faulted are requeued (up to ``MAX_RETRIES`` each) and a file
        that runs out of retries fails the task once the rest are through.
        A chaos stall holds the outcome back by its delay.
        """
        if task.cancel_requested:
            self._finish_cancelled(task)
            return
        with self._lock:
            injected = self._fail_next.pop(0) if self._fail_next else None
        retry: list[TransferItem] = []
        stall = 0.0
        for item, data, nominal in staged:
            fault = injected
            faulted = task.attempts.get(item.dst_path, 0)
            spec = chaos_check(
                "transfer.attempt",
                self._chaos_key(item),
                attempt=faulted,
                user=task.user,
            )
            if spec is not None:
                stall += spec.delay  # a stall before the failure
                fault = f"injected fault {spec.mode!r}: DTN aborted mid-copy"
            if fault is None:
                task.dst.volume.write_raw(item.dst_path, data, nominal)
                task.bytes_transferred += nominal
            elif faulted < self.MAX_RETRIES:
                task.attempts[item.dst_path] = faulted + 1
                retry.append(item)
            else:
                task.error = fault
        with task.dst.landed:
            task.dst.landed.notify_all()
        if stall:
            self._later(stall, task, self._conclude, retry)
        else:
            self._conclude(task, retry)

    def _conclude(self, task: TransferTask, retry: list[TransferItem]) -> None:
        """Requeue the faulted files, or finish the task."""
        if retry and task.cancel_requested:
            self._finish_cancelled(task)
        elif retry:
            with self._lock:
                task.todo = tuple(retry)
                task.retries += 1
                task.status = TransferStatus.QUEUED
                self._active_by_user[task.user] -= 1
                self._queue.append(task.task_id)
            counter_inc("transfer.retries", len(retry), user=task.user)
            self._admit()
        elif task.error is not None:
            self._finish(task, TransferStatus.FAILED, error=task.error)
        else:
            self._finish(task, TransferStatus.SUCCEEDED)

    def _finish_cancelled(self, task: TransferTask) -> None:
        self._finish(task, TransferStatus.CANCELLED, error="cancelled by client")
        counter_inc("transfer.cancelled", user=task.user)

    def _finish(
        self,
        task: TransferTask,
        status: TransferStatus,
        *,
        error: str | None = None,
    ) -> None:
        with self._lock:
            task.status = status
            task.completed_at = self._clock.now()
            task.error = error
            self._active_by_user[task.user] -= 1
            task.done_event.set()
        record_span(
            "globus.transfer",
            parent=task.trace_ctx,
            start=task.submitted_at,
            end=task.completed_at,
            task_id=task.task_id,
            status=status.value,
            bytes=task.bytes_transferred,
            files=len(task.items),
            retries=task.retries,
        )
        if task.started_at is not None:
            observe("transfer.queue_wait_s", task.started_at - task.submitted_at)
            observe("transfer.active_s", task.completed_at - task.started_at)
        self._admit()  # the slot it held may start a queued task
