"""Elastic worker pools: pilot jobs that grow, shrink, and scale to zero.

An :class:`ElasticWorkerPool` keeps the :class:`~repro.resources.WorkerPool`
surface (``submit`` / ``queue_depth`` / ``active_count``) so FaaS endpoints
and Parsl executors run on it unchanged, but its workers come and go at
runtime.  Each ``grow(n)`` spawns worker threads that provision *their own*
node share by resizing the pool's shared :class:`BatchJob` in place
(``BatchScheduler.resize``), so capacity arrives incrementally and the
batch-queue wait is paid inside the new worker, never by the caller.
``drain(n)`` retires workers gracefully: in-flight closures finish, queued
closures stay queued for the survivors (or the next scale-up), and the
retired worker returns its nodes on the way out.  Draining to zero releases
the whole allocation — the scale-to-zero state the autoscaler enters when
an endpoint goes idle.

Provisioning is a chaos hook (``scheduler.provision``): a fault spec can
stall or fail a scale-up request, and the pool retries with the shared
:class:`~repro.chaos.policy.RetryPolicy` backoff.  A failed provision only
delays capacity — tasks sit in the pool queue and are never lost.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable

from repro.bench.recording import emit
from repro.chaos.plan import chaos_check
from repro.chaos.policy import RetryPolicy
from repro.exceptions import SchedulerError
from repro.net.clock import Clock
from repro.net.context import SiteThread
from repro.net.topology import Site
from repro.observe import counter_inc, gauge_set, observe
from repro.resources.scheduler import BatchScheduler, JobState
from repro.resources.worker import WorkerPool

__all__ = ["ElasticWorkerPool"]

#: Default backoff for retrying failed scale-up requests.
DEFAULT_PROVISION_RETRY = RetryPolicy(max_attempts=4, base_delay=0.5, max_delay=8.0)


class ElasticWorkerPool(WorkerPool):
    """A worker pool whose size is a runtime variable, not a constructor
    argument.  Starts with ``n_workers`` (zero is fine); ``grow``/``drain``
    move it between 0 and ``max_workers``."""

    def __init__(
        self,
        site: Site,
        n_workers: int = 0,
        *,
        name: str = "elastic-pool",
        scheduler: BatchScheduler | None = None,
        nodes_per_worker: int = 1,
        clock: Clock | None = None,
        max_workers: int | None = None,
        provision_retry: RetryPolicy | None = None,
        provision_timeout: float | None = 120.0,
    ) -> None:
        if n_workers < 0:
            raise ValueError("n_workers must be non-negative")
        super().__init__(
            site,
            max(1, n_workers),
            name=name,
            scheduler=scheduler,
            nodes_per_worker=nodes_per_worker,
            clock=clock,
        )
        self.n_workers = n_workers
        self.max_workers = max_workers
        self._retry = provision_retry or DEFAULT_PROVISION_RETRY
        self._provision_timeout = provision_timeout
        self._elock = threading.Lock()
        self._job_cond = threading.Condition(self._elock)
        #: Notified by ``submit``, ``drain`` and ``stop``: an idle worker
        #: sleeps here until there is work or a retirement to take.
        self._work_ready = threading.Condition(self._elock)
        self._job_creating = False
        self._worker_ids = itertools.count()
        self._workers: dict[int, SiteThread] = {}
        self._online: set[int] = set()
        self._online_at: dict[int, float] = {}
        self._retire = 0
        #: Node-seconds accumulated by departed workers (live workers are
        #: added on top by :meth:`node_seconds_total`).
        self.node_seconds = 0.0
        self._wake_mark: float | None = None
        #: Time-to-first-task samples recorded after each scale-from-zero.
        self.wake_latencies: list[float] = []

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "ElasticWorkerPool":
        if self._running:
            return self
        self._running = True
        if self.n_workers:
            self.grow(self.n_workers)
        return self

    def stop(self, *, drain: bool = True) -> list[Callable[[], None]]:
        if not self._running:
            return []
        if drain and self.queue_depth > 0 and not self._workers:
            # Nobody left to run the backlog: wake one worker for the drain.
            self.grow(1)
        pending: list[Callable[[], None]] = []
        with self._elock:
            self._running = False
            self._retire = 0
            live = list(self._workers.values())
            while not drain and self._queue.qsize():
                work = self._queue.get_nowait()
                if work is not None:
                    pending.append(work)
            for _ in live:
                self._queue.put(None)
            self._work_ready.notify_all()
        for thread in live:
            thread.join(timeout=10)
        with self._job_cond:
            job = self._job
            self._job = None
        if self._scheduler is not None and job is not None:
            self._scheduler.release(job)
        self._publish_workers()
        return pending

    # -- elasticity ----------------------------------------------------------
    @property
    def size(self) -> int:
        """Live workers, counting ones still provisioning, minus pending
        retirements."""
        with self._elock:
            return max(0, len(self._workers) - self._retire)

    @property
    def online_count(self) -> int:
        """Workers that finished provisioning and hold nodes."""
        with self._elock:
            return len(self._online)

    @property
    def idle_count(self) -> int:
        return max(0, self.online_count - self.active_count)

    def grow(self, n: int) -> list[int]:
        """Add ``n`` workers; returns their indices immediately.  Each new
        worker provisions its node share inside its own thread, so the
        batch-queue wait never blocks the caller.  Pending retirements are
        cancelled first — a grow right after a drain reclaims the workers
        that have not exited yet."""
        if n <= 0:
            return []
        with self._elock:
            if not self._running:
                raise RuntimeError(f"worker pool {self.name!r} is not running")
            reclaimed = min(self._retire, n)
            self._retire -= reclaimed
            spawn = n - reclaimed
            if self.max_workers is not None:
                room = self.max_workers - (len(self._workers) - self._retire)
                spawn = max(0, min(spawn, room))
            indices = [next(self._worker_ids) for _ in range(spawn)]
            threads = []
            for idx in indices:
                thread = SiteThread(
                    self.site,
                    target=self._elastic_worker,
                    args=(idx,),
                    name=f"{self.name}-worker-{idx}",
                )
                self._workers[idx] = thread
                threads.append(thread)
        for thread in threads:
            thread.start()
        if indices or reclaimed:
            counter_inc("pool.grows", pool=self.name)
        self._publish_workers()
        return indices

    def drain(self, n: int) -> int:
        """Retire up to ``n`` workers gracefully; returns how many were
        claimed.  Each retiring worker finishes its in-flight closure, puts
        nothing back, and leaves queued closures on the queue for the
        survivors (or for the next ``grow``)."""
        with self._elock:
            claimable = len(self._workers) - self._retire
            claimed = max(0, min(n, claimable))
            self._retire += claimed
            self._work_ready.notify_all()
        if claimed:
            counter_inc("pool.drains", pool=self.name)
        return claimed

    def mark_wake(self, at: float | None = None) -> None:
        """Arm time-to-first-task tracking: the next closure to *start*
        records ``now - at`` as ``autoscale.time_to_first_task_s``."""
        with self._elock:
            self._wake_mark = self._clock.now() if at is None else at

    def node_seconds_total(self) -> float:
        """Node-seconds consumed so far, including live workers."""
        now = self._clock.now()
        with self._elock:
            live = sum(now - t for t in self._online_at.values())
            return self.node_seconds + live * self._nodes_per_worker

    def submit(self, work: Callable[[], None]) -> None:
        super().submit(work)
        with self._elock:
            self._work_ready.notify()

    # -- worker internals ----------------------------------------------------
    def _elastic_worker(self, idx: int) -> None:
        try:
            if not self._provision(idx):
                return
            while True:
                with self._elock:
                    self._clock.wait_for(
                        self._work_ready,
                        lambda: self._retire > 0 or self._queue.qsize() > 0,
                        None,
                    )
                    if self._retire > 0:
                        # Leave ``size`` in one step: the retirement and the
                        # worker go together, so a concurrent grow sees either
                        # both or neither.
                        self._retire -= 1
                        del self._workers[idx]
                        return
                    work = self._queue.get_nowait()
                if work is None:
                    return
                self._execute(idx, work)
        finally:
            self._depart(idx)

    def _execute(self, idx: int, work: Callable[[], None]) -> None:
        with self._elock:
            mark, self._wake_mark = self._wake_mark, None
        if mark is not None:
            ttft = self._clock.now() - mark
            self.wake_latencies.append(ttft)
            observe("autoscale.time_to_first_task_s", ttft, pool=self.name)
        try:
            super()._execute(idx, work)
        finally:
            self._publish_workers()

    def _provision(self, idx: int) -> bool:
        """Acquire this worker's nodes, retrying injected/real scheduler
        failures with backoff.  Returns False once retries are exhausted —
        the worker departs and the autoscaler's next pass tops the pool
        back up; queued tasks are untouched either way."""
        base_key = f"{self.name}|w{idx}"
        attempt = 0
        while True:
            key = base_key if attempt == 0 else f"{base_key}#a{attempt}"
            err: Exception | None = None
            spec = chaos_check(
                "scheduler.provision",
                key,
                attempt=attempt,
                pool=self.name,
                site=self.site.name,
            )
            if spec is not None:
                if spec.delay:
                    self._clock.sleep(spec.delay)
                err = SchedulerError(
                    f"injected provision fault for worker {idx} of {self.name}"
                )
            else:
                try:
                    self._acquire_nodes()
                except SchedulerError as exc:
                    err = exc
            if err is None:
                now = self._clock.now()
                with self._elock:
                    self._online.add(idx)
                    self._online_at[idx] = now
                counter_inc("pool.provisions", pool=self.name)
                self._publish_workers()
                return True
            if not self._retry.retries_left(attempt):
                counter_inc("autoscale.provision_abandoned", pool=self.name)
                emit(
                    "provision_abandoned",
                    pool=self.name,
                    worker=idx,
                    error=repr(err),
                )
                return False
            counter_inc("autoscale.provision_retries", pool=self.name)
            self._clock.sleep(self._retry.delay_for(attempt, key=base_key))
            attempt += 1

    def _acquire_nodes(self) -> None:
        """Claim ``nodes_per_worker`` nodes by resizing the pool's shared
        batch job (creating it on first use).  Raises SchedulerError on
        timeout or if the job completes mid-wait."""
        if self._scheduler is None:
            return
        npw = self._nodes_per_worker
        with self._job_cond:
            # One worker creates the shared job; the rest wait to resize it.
            self._clock.wait_for(self._job_cond, lambda: not self._job_creating, None)
            job = self._job
            if job is None or job.state is not JobState.RUNNING:
                self._job_creating = True
                job = None
        if job is not None:
            self._scheduler.resize(job, npw, timeout=self._provision_timeout)
            return
        new_job = None
        try:
            new_job = self._scheduler.submit(npw, timeout=self._provision_timeout)
        finally:
            with self._job_cond:
                if new_job is not None:
                    self._job = new_job
                self._job_creating = False
                self._job_cond.notify_all()

    def _release_nodes(self) -> None:
        if self._scheduler is None:
            return
        with self._job_cond:
            job = self._job
        if job is None:
            return
        try:
            self._scheduler.resize(job, -self._nodes_per_worker)
        except SchedulerError:
            return  # already released (e.g. by stop())
        if job.state is JobState.COMPLETED:
            with self._job_cond:
                if self._job is job:
                    self._job = None

    def _depart(self, idx: int) -> None:
        now = self._clock.now()
        with self._elock:
            self._workers.pop(idx, None)
            was_online = idx in self._online
            if was_online:
                self._online.discard(idx)
                online_at = self._online_at.pop(idx)
                self.node_seconds += (now - online_at) * self._nodes_per_worker
        if was_online:
            self._release_nodes()
        self._publish_workers()

    def _publish_workers(self) -> None:
        online = self.online_count
        active = min(self.active_count, online)
        gauge_set("pool.workers", active, pool=self.name, state="active")
        gauge_set("pool.workers", max(0, online - active), pool=self.name, state="idle")
        gauge_set("pool.queue_depth", self._queue.qsize(), pool=self.name)
