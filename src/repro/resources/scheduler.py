"""Batch scheduler simulation (Slurm/Cobalt stand-in).

FuncX endpoints and Parsl pilots do not own nodes: they submit a batch job
and wait in the queue before their workers exist.  That queue wait is why
"adding each new task to a global queue ... can result in significant
delays" (§II-A) and why multi-level scheduling (pilot jobs + local task
dispatch) wins for dynamic workloads.  The model here: a site has a fixed
node count; a job asks for ``n`` nodes, waits for free nodes plus a sampled
queue delay, holds them for its walltime or until released.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from enum import Enum

from repro.exceptions import SchedulerError
from repro.net.clock import Clock, get_clock
from repro.net.topology import LatencyModel, LogNormalLatency, Network, Site

__all__ = ["JobState", "BatchJob", "BatchScheduler"]


class JobState(str, Enum):
    QUEUED = "QUEUED"
    RUNNING = "RUNNING"
    COMPLETED = "COMPLETED"
    CANCELLED = "CANCELLED"


@dataclass
class BatchJob:
    job_id: str
    n_nodes: int
    walltime: float | None
    state: JobState = JobState.QUEUED
    submitted_at: float = 0.0
    started_at: float | None = None
    ended_at: float | None = None


class BatchScheduler:
    """A per-site FIFO batch scheduler with sampled queue delays."""

    def __init__(
        self,
        site: Site,
        total_nodes: int,
        *,
        queue_delay: LatencyModel | None = None,
        network: Network | None = None,
        clock: Clock | None = None,
    ) -> None:
        if total_nodes <= 0:
            raise SchedulerError("a scheduler needs at least one node")
        self.site = site
        self.total_nodes = total_nodes
        self._queue_delay = queue_delay or LogNormalLatency(2.0, 0.5, cap=30.0)
        self._network = network
        self._clock = clock or get_clock()
        self._free = total_nodes
        self._lock = threading.Lock()
        self._nodes_freed = threading.Condition(self._lock)
        self._jobs: dict[str, BatchJob] = {}
        self._ids = itertools.count()

    def _sample_queue_delay(self) -> float:
        if self._network is not None:
            return self._network._sample(self._queue_delay)
        import random

        return self._queue_delay.sample(random.Random())

    def submit(
        self, n_nodes: int, walltime: float | None = None, timeout: float | None = None
    ) -> BatchJob:
        """Submit and *block* until the job starts (pilot-job style).

        Raises :class:`SchedulerError` if the request can never be satisfied
        or the wait exceeds ``timeout`` (nominal seconds).
        """
        if n_nodes <= 0:
            raise SchedulerError("n_nodes must be positive")
        if n_nodes > self.total_nodes:
            raise SchedulerError(
                f"requested {n_nodes} nodes but {self.site.name} has only "
                f"{self.total_nodes}"
            )
        job = BatchJob(
            job_id=f"{self.site.name}-{next(self._ids)}",
            n_nodes=n_nodes,
            walltime=walltime,
            submitted_at=self._clock.now(),
        )
        with self._lock:
            self._jobs[job.job_id] = job
        # Scheduler cycle + queue position.
        self._clock.sleep(self._sample_queue_delay())
        with self._nodes_freed:
            if not self._clock.wait_for(
                self._nodes_freed, lambda: self._free >= n_nodes, timeout
            ):
                job.state = JobState.CANCELLED
                raise SchedulerError(
                    f"timed out waiting for {n_nodes} nodes on {self.site.name}"
                )
            self._free -= n_nodes
            job.state = JobState.RUNNING
            job.started_at = self._clock.now()
        return job

    def resize(
        self, job: BatchJob, delta: int, *, timeout: float | None = None
    ) -> BatchJob:
        """Grow or shrink a RUNNING job by ``delta`` nodes in place.

        Growing models submitting an expansion request for an existing pilot
        allocation: it pays a freshly sampled queue delay and then blocks
        until the extra nodes are free (or ``timeout`` nominal seconds pass,
        raising :class:`SchedulerError` with the job left at its old size).
        Shrinking returns nodes immediately and wakes queued growers;
        shrinking to zero completes the job, exactly like :meth:`release`.
        Deltas are applied under the scheduler lock, so concurrent resizes
        of one job from many workers never lose an update.
        """
        if delta == 0:
            return job
        if delta < 0:
            with self._nodes_freed:
                if job.state is not JobState.RUNNING:
                    raise SchedulerError(
                        f"cannot resize job {job.job_id!r} in state {job.state}"
                    )
                if job.n_nodes + delta < 0:
                    raise SchedulerError(
                        f"cannot shrink job {job.job_id!r} below zero nodes"
                    )
                job.n_nodes += delta
                self._free -= delta
                if job.n_nodes == 0:
                    job.state = JobState.COMPLETED
                    job.ended_at = self._clock.now()
                self._nodes_freed.notify_all()
            return job
        with self._lock:
            if job.state is not JobState.RUNNING:
                raise SchedulerError(
                    f"cannot resize job {job.job_id!r} in state {job.state}"
                )
            if job.n_nodes + delta > self.total_nodes:
                raise SchedulerError(
                    f"growing {job.job_id!r} by {delta} nodes exceeds the "
                    f"{self.total_nodes} nodes on {self.site.name}"
                )
        # Growth request: another trip through the batch queue.
        self._clock.sleep(self._sample_queue_delay())
        with self._nodes_freed:
            if not self._clock.wait_for(
                self._nodes_freed,
                lambda: self._free >= delta or job.state is not JobState.RUNNING,
                timeout,
            ):
                raise SchedulerError(
                    f"timed out growing {job.job_id!r} by {delta} nodes "
                    f"on {self.site.name}"
                )
            if job.state is not JobState.RUNNING:
                raise SchedulerError(
                    f"job {job.job_id!r} completed while a resize waited"
                )
            self._free -= delta
            job.n_nodes += delta
        return job

    def release(self, job: BatchJob) -> None:
        """Return a running job's nodes to the pool."""
        with self._nodes_freed:
            if job.state is not JobState.RUNNING:
                return
            job.state = JobState.COMPLETED
            job.ended_at = self._clock.now()
            self._free += job.n_nodes
            self._nodes_freed.notify_all()

    @property
    def free_nodes(self) -> int:
        with self._lock:
            return self._free

    def job(self, job_id: str) -> BatchJob:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise SchedulerError(f"unknown job {job_id!r}") from None
