"""ElasticWorkerPool: grow/drain lifecycle, node accounting, exactly-once."""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.plan import FaultInjector, FaultPlan, FaultSpec, set_injector
from repro.chaos.policy import RetryPolicy
from repro.elastic import ElasticWorkerPool
from repro.net.clock import get_clock
from repro.net.topology import FixedLatency, Site
from repro.observe import MetricsRegistry, set_metrics
from repro.resources import BatchScheduler


@pytest.fixture
def site():
    return Site("hpc", trust_group="hpc")


def _wait_until(predicate, timeout=10.0):
    deadline = get_clock().now() + timeout
    while not predicate():
        if get_clock().now() > deadline:
            return False
        get_clock().sleep(0.1)
    return True


def test_grow_and_drain_change_size(site):
    pool = ElasticWorkerPool(site, 0, name="ep-size").start()
    try:
        assert pool.size == 0
        pool.grow(3)
        assert pool.size == 3
        assert _wait_until(lambda: pool.online_count == 3)
        assert pool.drain(2) == 2
        assert _wait_until(lambda: pool.online_count == 1)
        assert pool.size == 1
    finally:
        pool.stop()
    assert pool.size == 0


def test_executes_work_and_counts_busy_seconds(site):
    pool = ElasticWorkerPool(site, 2, name="ep-work").start()
    done = threading.Event()
    results = []
    try:
        for i in range(4):
            pool.submit(lambda i=i: results.append(i))
        pool.submit(done.set)
        assert done.wait(5)
        assert sorted(results) == [0, 1, 2, 3]
    finally:
        pool.stop()
    assert pool.tasks_completed >= 4


def test_scheduler_nodes_follow_pool_size(site):
    scheduler = BatchScheduler(site, total_nodes=6, queue_delay=FixedLatency(0.05))
    pool = ElasticWorkerPool(site, 0, name="ep-nodes", scheduler=scheduler).start()
    try:
        pool.grow(4)
        assert _wait_until(lambda: scheduler.free_nodes == 2)
        pool.drain(4)
        # Scale-to-zero: the whole allocation is handed back.
        assert _wait_until(lambda: scheduler.free_nodes == 6)
        # Scale back up from zero re-provisions a fresh job.
        pool.grow(1)
        assert _wait_until(lambda: scheduler.free_nodes == 5)
    finally:
        pool.stop()
    assert scheduler.free_nodes == 6


def test_drained_worker_leaves_queued_tasks_for_survivors(site):
    pool = ElasticWorkerPool(site, 2, name="ep-requeue").start()
    release = threading.Event()
    ran = []
    try:
        # Occupy both workers, then queue more work behind them.
        for _ in range(2):
            pool.submit(lambda: release.wait(5))
        get_clock().sleep(1.0)
        for i in range(3):
            pool.submit(lambda i=i: ran.append(i))
        # Retire one busy worker: its queued tasks must not leave with it.
        assert pool.drain(1) == 1
        release.set()
        assert _wait_until(lambda: len(ran) == 3)
        assert sorted(ran) == [0, 1, 2]
    finally:
        pool.stop()


def test_stop_without_drain_returns_pending_closures(site):
    pool = ElasticWorkerPool(site, 1, name="ep-pending").start()
    release = threading.Event()
    pool.submit(lambda: release.wait(5))
    get_clock().sleep(1.0)
    for _ in range(3):
        pool.submit(lambda: None)
    release.set()
    pending = pool.stop(drain=False)
    # The blocker was in flight; some or all of the queued three come back.
    assert 0 <= len(pending) <= 3
    total_run = pool.tasks_completed + len(pending)
    assert total_run == 4


def test_stop_with_drain_runs_backlog_even_from_zero_workers(site):
    pool = ElasticWorkerPool(site, 0, name="ep-zero-drain").start()
    ran = []
    pool.submit(lambda: ran.append(1))
    pool.submit(lambda: ran.append(2))
    assert pool.stop() == []
    assert sorted(ran) == [1, 2]


def test_max_workers_caps_grow(site):
    pool = ElasticWorkerPool(site, 0, name="ep-cap", max_workers=2).start()
    try:
        pool.grow(5)
        assert pool.size == 2
    finally:
        pool.stop()


def test_grow_reclaims_pending_retirements(site):
    pool = ElasticWorkerPool(site, 3, name="ep-reclaim").start()
    try:
        assert _wait_until(lambda: pool.online_count == 3)
        pool.drain(2)
        # Before the retirements land, grow cancels them instead of spawning.
        pool.grow(2)
        assert pool.size == 3
    finally:
        pool.stop()


def test_racing_grows_and_drains_keep_size_and_run_everything(site):
    """Idle workers retire the moment they are drained; a retirement and
    its worker leave ``size`` together, so drain(1)+grow(1) pairs racing
    from several threads (and the workers they wake) end where they began,
    and every closure submitted meanwhile runs exactly once."""
    pool = ElasticWorkerPool(site, 4, name="ep-race").start()
    lock = threading.Lock()
    ran: list[int] = []

    def work(i):
        with lock:
            ran.append(i)

    def churn():
        for _ in range(50):
            pool.drain(1)
            pool.grow(1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=churn) for _ in range(4)]
        for thread in threads:
            thread.start()
        for i in range(200):
            pool.submit(lambda i=i: work(i))
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert pool.size == 4
    finally:
        sys.setswitchinterval(interval)
        pool.stop()
    assert sorted(ran) == list(range(200))


def test_mark_wake_records_time_to_first_task(site):
    registry = MetricsRegistry()
    set_metrics(registry)
    pool = ElasticWorkerPool(site, 0, name="ep-ttft").start()
    done = threading.Event()
    try:
        pool.submit(done.set)
        pool.mark_wake()
        pool.grow(1)
        assert done.wait(5)
        assert _wait_until(lambda: len(pool.wake_latencies) == 1)
        assert pool.wake_latencies[0] >= 0.0
    finally:
        pool.stop()
        set_metrics(None)


def test_node_seconds_accumulate(site):
    pool = ElasticWorkerPool(site, 2, name="ep-nodesec").start()
    try:
        assert _wait_until(lambda: pool.online_count == 2)
        get_clock().sleep(3.0)
        assert pool.node_seconds_total() >= 4.0  # 2 workers x >=2s each
    finally:
        pool.stop()
    assert pool.node_seconds >= 4.0


def test_grow_requires_running_pool(site):
    pool = ElasticWorkerPool(site, 0, name="ep-stopped")
    with pytest.raises(RuntimeError):
        pool.grow(1)


def test_provision_retries_through_injected_fault(site):
    # First attempt of every worker stalls then fails; the retry succeeds.
    registry = MetricsRegistry()
    set_metrics(registry)
    spec = FaultSpec(
        "scheduler.provision", "stall", rate=1.0, delay=0.2, match={"attempt": 0}
    )
    set_injector(FaultInjector(FaultPlan.build(0, (spec,))))
    scheduler = BatchScheduler(site, total_nodes=4, queue_delay=FixedLatency(0.05))
    pool = ElasticWorkerPool(
        site,
        0,
        name="ep-chaos",
        scheduler=scheduler,
        provision_retry=RetryPolicy(max_attempts=3, base_delay=0.1, max_delay=0.5),
    ).start()
    done = threading.Event()
    try:
        pool.submit(done.set)
        pool.grow(1)
        assert done.wait(10)  # capacity arrived despite the fault
        assert registry.counter_total("autoscale.provision_retries") == 1
        assert registry.counter_total("autoscale.provision_abandoned") == 0
    finally:
        pool.stop()
        set_injector(None)
        set_metrics(None)
    assert scheduler.free_nodes == 4


def test_provision_abandoned_after_retries_exhausted(site):
    registry = MetricsRegistry()
    set_metrics(registry)
    # Every attempt fails: the worker gives up and departs cleanly.
    spec = FaultSpec(
        "scheduler.provision", "dead", rate=1.0, occurrences=(0, 1, 2, 3)
    )
    set_injector(FaultInjector(FaultPlan.build(0, (spec,))))
    pool = ElasticWorkerPool(
        site,
        0,
        name="ep-abandon",
        scheduler=BatchScheduler(site, total_nodes=2, queue_delay=FixedLatency(0.01)),
        provision_retry=RetryPolicy(max_attempts=2, base_delay=0.05, max_delay=0.1),
    ).start()
    ran = []
    try:
        pool.submit(lambda: ran.append(1))
        pool.grow(1)
        assert _wait_until(lambda: pool.size == 0)
        assert registry.counter_total("autoscale.provision_abandoned") == 1
        assert not ran  # the task is still queued, not lost ...
    finally:
        set_injector(None)
        pool.stop()  # ... and the drain-on-stop runs it.
        set_metrics(None)
    assert ran == [1]


# -- property: grow/drain/submit interleavings are exactly-once ----------------

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("grow"), st.integers(1, 3)),
        st.tuples(st.just("drain"), st.integers(1, 3)),
        st.tuples(st.just("submit"), st.integers(1, 4)),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=20, deadline=None)
@given(ops=_ops)
def test_interleaved_ops_run_every_task_exactly_once(ops):
    site = Site("hpc-prop", trust_group="hpc")
    pool = ElasticWorkerPool(site, 1, name="ep-prop").start()
    lock = threading.Lock()
    ran: list[int] = []
    submitted = 0
    try:
        for op, n in ops:
            if op == "grow":
                pool.grow(n)
            elif op == "drain":
                pool.drain(n)
            else:
                for _ in range(n):
                    task_id = submitted
                    submitted += 1

                    def work(task_id=task_id):
                        with lock:
                            ran.append(task_id)

                    pool.submit(work)
    finally:
        pending = pool.stop()  # graceful drain finishes the backlog
    assert pending == []
    assert sorted(ran) == list(range(submitted))
