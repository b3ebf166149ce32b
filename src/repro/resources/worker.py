"""Worker pools: the per-resource execution lanes under every fabric.

A :class:`WorkerPool` models the workers a FuncX endpoint or Parsl pilot
deploys on compute nodes: N threads pinned to the resource's site, pulling
closures off a local queue.  The pool measures what §V-E1 plots in Fig. 6b —
the *idle gap* each worker sees between finishing one task and starting the
next, which is exactly the (notify Thinker) + (decide) + (dispatch) latency
the steering system must keep small to hold CPU utilization above 99 %.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable

from repro.bench.recording import emit
from repro.net.clock import Clock, get_clock
from repro.net.context import SiteThread
from repro.net.topology import Site
from repro.observe import gauge_set, observe
from repro.resources.scheduler import BatchJob, BatchScheduler

__all__ = ["WorkerPool"]


class WorkerPool:
    """N worker threads on one site, executing submitted closures in FIFO
    order.  Exceptions inside a closure are the closure author's problem
    (fabrics wrap user functions); the pool only guards its own liveness."""

    def __init__(
        self,
        site: Site,
        n_workers: int,
        *,
        name: str = "pool",
        scheduler: BatchScheduler | None = None,
        nodes_per_worker: int = 1,
        clock: Clock | None = None,
    ) -> None:
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        self.site = site
        self.n_workers = n_workers
        self.name = name
        self._scheduler = scheduler
        self._nodes_per_worker = nodes_per_worker
        self._clock = clock or get_clock()
        # A ``SimpleQueue``: a handoff is one C-level put, and nothing here
        # uses ``join``/``task_done``, which it does not have.
        self._queue: queue.SimpleQueue[Callable[[], None] | None] = queue.SimpleQueue()
        self._threads: list[SiteThread] = []
        self._job: BatchJob | None = None
        self._running = False
        self._lock = threading.Lock()
        self._active = 0
        self._last_end: dict[int, float] = {}
        #: Gaps (nominal seconds) between consecutive tasks on each worker.
        self.idle_gaps: list[float] = []
        self.tasks_completed = 0
        #: Cumulative nominal seconds workers spent executing closures.
        self.busy_seconds = 0.0

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "WorkerPool":
        if self._running:
            return self
        if self._scheduler is not None:
            # Pilot-job provisioning: wait in the batch queue for our nodes.
            self._job = self._scheduler.submit(
                self.n_workers * self._nodes_per_worker
            )
        self._running = True
        for idx in range(self.n_workers):
            thread = SiteThread(
                self.site,
                target=self._worker_loop,
                args=(idx,),
                name=f"{self.name}-worker-{idx}",
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self, *, drain: bool = True) -> list[Callable[[], None]]:
        """Stop the pool and return any closures that did not run.

        ``drain=True`` (the default) lets workers run the queue dry before
        exiting: the stop sentinels sit behind the backlog in FIFO order, so
        every queued closure executes and the return value is empty.

        ``drain=False`` is a prompt stop: queued-but-unstarted closures are
        pulled off the queue and *returned* to the caller (in submission
        order) instead of executing; only in-flight work finishes.  Callers
        that own a durable queue upstream (the FaaS cloud requeues on lease
        expiry) use this on crash paths where running the backlog would
        produce results nobody can report.
        """
        if not self._running:
            return []
        self._running = False
        pending: list[Callable[[], None]] = []
        if not drain:
            while True:
                try:
                    work = self._queue.get_nowait()
                except queue.Empty:
                    break
                if work is not None:
                    pending.append(work)
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=10)
        if self._scheduler is not None and self._job is not None:
            self._scheduler.release(self._job)
        self._threads.clear()
        return pending

    # -- work -------------------------------------------------------------------
    def submit(self, work: Callable[[], None]) -> None:
        if not self._running:
            raise RuntimeError(f"worker pool {self.name!r} is not running")
        self._queue.put(work)
        gauge_set("pool.queue_depth", self._queue.qsize(), pool=self.name)

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    @property
    def active_count(self) -> int:
        with self._lock:
            return self._active

    @property
    def idle_count(self) -> int:
        return self.n_workers - self.active_count

    def _worker_loop(self, idx: int) -> None:
        while True:
            work = self._queue.get()
            if work is None:
                return
            self._execute(idx, work)

    def _execute(self, idx: int, work: Callable[[], None]) -> None:
        """Run one closure with idle-gap/utilization instrumentation."""
        start = self._clock.now()
        with self._lock:
            last_end = self._last_end.get(idx)
            if last_end is not None:
                self.idle_gaps.append(start - last_end)
                observe("pool.idle_gap_s", start - last_end, pool=self.name)
            self._active += 1
            gauge_set("pool.active", self._active, pool=self.name)
        emit("worker_task_start", pool=self.name, resource=self.site.name)
        try:
            work()
        except Exception as exc:  # closure bug: record, keep the lane alive
            emit(
                "worker_task_error",
                pool=self.name,
                resource=self.site.name,
                error=repr(exc),
            )
        finally:
            end = self._clock.now()
            with self._lock:
                self._active -= 1
                self._last_end[idx] = end
                self.tasks_completed += 1
                self.busy_seconds += end - start
            emit("worker_task_end", pool=self.name, resource=self.site.name)

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
