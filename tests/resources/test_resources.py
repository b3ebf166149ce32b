"""Tests for the batch scheduler and worker pools."""

import threading

import pytest

from repro.exceptions import SchedulerError
from repro.net.clock import Clock, get_clock
from repro.net.topology import FixedLatency, Site
from repro.resources import BatchScheduler, JobState, WorkerPool


@pytest.fixture
def site():
    return Site("hpc", trust_group="hpc")


@pytest.fixture
def scheduler(site):
    return BatchScheduler(site, total_nodes=4, queue_delay=FixedLatency(0.1))


# -- scheduler -------------------------------------------------------------------


def test_submit_starts_job(scheduler):
    job = scheduler.submit(2)
    assert job.state is JobState.RUNNING
    assert scheduler.free_nodes == 2
    scheduler.release(job)
    assert scheduler.free_nodes == 4
    assert job.state is JobState.COMPLETED


def test_queue_delay_charged(scheduler):
    clock = get_clock()
    start = clock.now()
    job = scheduler.submit(1)
    assert clock.now() - start >= 0.1
    scheduler.release(job)


def test_oversized_request_rejected(scheduler):
    with pytest.raises(SchedulerError):
        scheduler.submit(5)
    with pytest.raises(SchedulerError):
        scheduler.submit(0)


def test_invalid_scheduler():
    with pytest.raises(SchedulerError):
        BatchScheduler(Site("x"), total_nodes=0)


def test_blocks_until_nodes_free(scheduler):
    first = scheduler.submit(4)
    released = []

    def release_later():
        get_clock().sleep(1.0)
        scheduler.release(first)
        released.append(True)

    thread = threading.Thread(target=release_later, daemon=True)
    thread.start()
    second = scheduler.submit(2, timeout=60.0)
    assert released  # we actually waited for the release
    assert second.state is JobState.RUNNING
    scheduler.release(second)
    thread.join()


def test_submit_timeout(scheduler):
    first = scheduler.submit(4)
    with pytest.raises(SchedulerError):
        scheduler.submit(1, timeout=0.3)
    scheduler.release(first)


@pytest.mark.parametrize("waiter", ["submit", "resize"])
def test_timeout_holds_under_node_churn(site, waiter):
    """A notify that leaves too few nodes free must not restart the
    waiter's budget: with one node released and retaken every 0.3 nominal
    seconds, a 1 s wait for two nodes gives up after about 1 s, not once
    the churn stops."""
    clock = Clock(time_scale=0.02)
    scheduler = BatchScheduler(
        site, total_nodes=4, queue_delay=FixedLatency(0.0), clock=clock
    )
    churner = scheduler.submit(3)
    holder = scheduler.submit(1)
    stop = threading.Event()

    def churn():
        while not stop.is_set() and clock.now() < 10.0:
            clock.sleep(0.3)
            scheduler.resize(churner, -1)
            scheduler.resize(churner, 1)

    thread = threading.Thread(target=churn, daemon=True)
    thread.start()
    start = clock.now()
    try:
        with pytest.raises(SchedulerError, match="timed out"):
            if waiter == "submit":
                scheduler.submit(2, timeout=1.0)
            else:
                scheduler.resize(holder, 2, timeout=1.0)
        elapsed = clock.now() - start
    finally:
        stop.set()
        thread.join()
    assert 1.0 <= elapsed < 3.0


def test_double_release_is_noop(scheduler):
    job = scheduler.submit(1)
    scheduler.release(job)
    scheduler.release(job)
    assert scheduler.free_nodes == 4


def test_job_lookup(scheduler):
    job = scheduler.submit(1)
    assert scheduler.job(job.job_id) is job
    with pytest.raises(SchedulerError):
        scheduler.job("ghost")
    scheduler.release(job)


# -- worker pool ----------------------------------------------------------------------


def test_pool_executes_work(site):
    pool = WorkerPool(site, 2, name="p1").start()
    done = threading.Event()
    results = []
    try:
        for i in range(4):
            pool.submit(lambda i=i: results.append(i))
        pool.submit(done.set)
        assert done.wait(5)
        assert sorted(results) == [0, 1, 2, 3]
        assert pool.tasks_completed >= 4
    finally:
        pool.stop()


def test_pool_requires_positive_workers(site):
    with pytest.raises(ValueError):
        WorkerPool(site, 0)


def test_pool_rejects_submit_when_stopped(site):
    pool = WorkerPool(site, 1, name="p2")
    with pytest.raises(RuntimeError):
        pool.submit(lambda: None)


def test_pool_survives_closure_exceptions(site):
    pool = WorkerPool(site, 1, name="p3").start()
    done = threading.Event()
    try:
        pool.submit(lambda: 1 / 0)
        pool.submit(done.set)
        assert done.wait(5)  # the lane survived the exception
    finally:
        pool.stop()


def test_pool_records_idle_gaps(site):
    pool = WorkerPool(site, 1, name="p4").start()
    clock = get_clock()
    first = threading.Event()
    second = threading.Event()
    try:
        pool.submit(first.set)
        assert first.wait(5)
        clock.sleep(2.0)  # leave the worker idle
        pool.submit(second.set)
        assert second.wait(5)
    finally:
        pool.stop()
    assert pool.idle_gaps and max(pool.idle_gaps) >= 1.0


def test_pool_active_counts(site):
    pool = WorkerPool(site, 2, name="p5").start()
    release = threading.Event()
    started = threading.Event()

    def blocker():
        started.set()
        release.wait(5)

    try:
        pool.submit(blocker)
        assert started.wait(5)
        assert pool.active_count == 1
        assert pool.idle_count == 1
        release.set()
    finally:
        pool.stop()


def test_pool_with_scheduler_provisions_nodes(site):
    scheduler = BatchScheduler(site, total_nodes=4, queue_delay=FixedLatency(0.05))
    pool = WorkerPool(site, 3, name="p6", scheduler=scheduler)
    pool.start()
    try:
        assert scheduler.free_nodes == 1
    finally:
        pool.stop()
    assert scheduler.free_nodes == 4


def test_pool_context_manager(site):
    with WorkerPool(site, 1, name="p7") as pool:
        done = threading.Event()
        pool.submit(done.set)
        assert done.wait(5)


def test_pool_queue_depth(site):
    pool = WorkerPool(site, 1, name="p8").start()
    release = threading.Event()
    try:
        pool.submit(lambda: release.wait(5))
        get_clock().sleep(0.5)
        pool.submit(lambda: None)
        pool.submit(lambda: None)
        assert pool.queue_depth >= 1
        release.set()
    finally:
        pool.stop()
