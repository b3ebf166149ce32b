"""Tests for crash recovery: re-queueing tasks stranded on a dead endpoint."""

import pytest
from conftest import Doorbells, ManualClock

from repro.exceptions import EndpointUnavailableError
from repro.faas import SCOPE_COMPUTE, AuthServer, FaasCloud
from repro.faas.cloud import TaskStatus
from repro.serialize import serialize


def _fn(x):
    return x


@pytest.fixture
def rig(testbed):
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, testbed.constants)
    endpoint_id = cloud.register_endpoint(token, "theta", testbed.theta_compute)
    func_id = cloud.register_function(token, serialize(_fn))
    return cloud, token, endpoint_id, func_id


def test_requeue_restores_fetched_tasks_in_order(rig):
    cloud, token, endpoint_id, func_id = rig
    ids = [
        cloud.submit(token, "c", func_id, endpoint_id, serialize(((i,), {})))
        for i in range(3)
    ]
    fetched = cloud.fetch_tasks(token, endpoint_id, 10)
    assert len(fetched) == 3
    # "Crash": nothing reported.  Requeue puts them back, oldest first.
    requeued = cloud.requeue_dispatched(token, endpoint_id)
    assert requeued == ids
    for task_id in ids:
        assert cloud.task(task_id).status is TaskStatus.WAITING
    refetched = cloud.fetch_tasks(token, endpoint_id, 10)
    assert [d.task_id for d in refetched] == ids


def test_requeue_skips_completed_tasks(rig):
    cloud, token, endpoint_id, func_id = rig
    task_id = cloud.submit(token, "c", func_id, endpoint_id, serialize(((1,), {})))
    cloud.fetch_tasks(token, endpoint_id, 1)
    cloud.report_result(
        token, endpoint_id, task_id, True, serialize({"success": True, "value": 1})
    )
    assert cloud.requeue_dispatched(token, endpoint_id) == []
    assert cloud.task(task_id).status is TaskStatus.SUCCESS


def test_requeue_with_nothing_dispatched_is_a_noop(rig):
    cloud, token, endpoint_id, func_id = rig
    assert cloud.requeue_dispatched(token, endpoint_id) == []
    # A queued-but-never-fetched task is untouched by a requeue.
    task_id = cloud.submit(token, "c", func_id, endpoint_id, serialize(((1,), {})))
    assert cloud.requeue_dispatched(token, endpoint_id) == []
    assert cloud.task(task_id).status is TaskStatus.WAITING


def test_requeue_racing_report_result_keeps_exactly_one_outcome(rig):
    """A report that lands after the task was requeued must win exactly once:
    the requeued queue copy is dropped so the work is not run a second time."""
    cloud, token, endpoint_id, func_id = rig
    task_id = cloud.submit(token, "c", func_id, endpoint_id, serialize(((1,), {})))
    cloud.fetch_tasks(token, endpoint_id, 1)
    # The reclaim races the in-flight result: requeue first, report second.
    assert cloud.requeue_dispatched(token, endpoint_id) == [task_id]
    cloud.report_result(
        token, endpoint_id, task_id, True, serialize({"success": True, "value": 1})
    )
    assert cloud.task(task_id).status is TaskStatus.SUCCESS
    # The stale queue copy is gone: nothing left to fetch.
    assert cloud.fetch_tasks(token, endpoint_id, 10) == []


def test_requeue_then_duplicate_execution_drops_second_result(rig):
    """If the race goes the other way — the requeued copy is re-fetched and
    re-executed before the first result arrives — the slower report is
    dropped rather than double-finalizing the task."""
    from repro.observe import MetricsRegistry, set_metrics

    metrics = MetricsRegistry()
    set_metrics(metrics)
    cloud, token, endpoint_id, func_id = rig
    task_id = cloud.submit(token, "c", func_id, endpoint_id, serialize(((1,), {})))
    cloud.fetch_tasks(token, endpoint_id, 1)
    cloud.requeue_dispatched(token, endpoint_id)
    cloud.fetch_tasks(token, endpoint_id, 1)  # second execution
    cloud.report_result(
        token, endpoint_id, task_id, True, serialize({"success": True, "value": 1})
    )
    cloud.report_result(  # the original, slower report arrives last
        token, endpoint_id, task_id, True, serialize({"success": True, "value": 1})
    )
    assert cloud.task(task_id).status is TaskStatus.SUCCESS
    assert metrics.counter_total("faas.duplicate_results") == 1


def test_requeue_unknown_endpoint(rig):
    cloud, token, *_ = rig
    with pytest.raises(EndpointUnavailableError):
        cloud.requeue_dispatched(token, "ep-ghost")


def test_requeue_preserves_queued_tasks_behind_reclaimed(rig):
    cloud, token, endpoint_id, func_id = rig
    first = cloud.submit(token, "c", func_id, endpoint_id, serialize(((1,), {})))
    cloud.fetch_tasks(token, endpoint_id, 1)
    later = cloud.submit(token, "c", func_id, endpoint_id, serialize(((2,), {})))
    cloud.requeue_dispatched(token, endpoint_id)
    order = [d.task_id for d in cloud.fetch_tasks(token, endpoint_id, 10)]
    assert order == [first, later]  # reclaimed work resumes ahead of new work


def test_endpoint_resume_with_reclaim_end_to_end(testbed):
    """Crash an endpoint mid-flight: resume(reclaim=True) re-runs the task."""
    from repro.faas import FaasClient, FaasEndpoint
    from repro.net.clock import get_clock
    from repro.net.context import at_site
    from repro.resources import WorkerPool

    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, testbed.constants)
    pool = WorkerPool(testbed.theta_compute, 1, name="reclaim-pool")
    endpoint = FaasEndpoint("t", cloud, token, testbed.theta_login, pool)
    client = FaasClient(cloud, token, site=testbed.theta_login)
    try:
        # Submit while offline so the task sits WAITING at the cloud.
        with at_site(testbed.theta_login):
            future = client.run(_fn, endpoint.endpoint_id, 7)
        # Simulate a crash *after fetch, before execution*: fetch directly,
        # discarding the dispatch (the worker never sees it).
        cloud.fetch_tasks(token, endpoint.endpoint_id, 10)
        assert not future.done()
        # Restart with reclamation: the endpoint re-fetches and executes.
        endpoint.start()
        endpoint.resume(reclaim=True)
        assert future.result(timeout=30) == 7
    finally:
        client.close()
        endpoint.stop()


def test_stale_report_racing_a_failover_leaves_the_rehomed_task_queued(testbed):
    """The old owner's report is mid-flight (result written, not yet
    finalized) when its lease lapses and the task fails over.  The report
    must be refused as a stale lease *without* pulling the task's queued
    copy out from under its new owner — that left the record WAITING in no
    queue, lost for good."""
    from repro.exceptions import LeaseExpiredError

    clock = ManualClock()
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
    cloud = FaasCloud(
        testbed.faas_cloud, testbed.network, auth, testbed.constants, clock
    )
    old, new = (
        cloud.register_endpoint(token, name, testbed.theta_compute, failover_group="pair")
        for name in ("old", "new")
    )
    func_id = cloud.register_function(token, serialize(_fn))
    cloud.heartbeat(token, old)
    task_id = cloud.submit(token, "c", func_id, old, serialize(((1,), {})))
    assert [d.task_id for d in cloud.fetch_tasks(token, old, 1)] == [task_id]

    write_round = cloud.store.write_round

    def write_then_lose_the_lease(members):
        writes = write_round(members)
        ((at, indexes, land),) = writes.landings

        def land_late():
            locators = land()
            clock.sleep(cloud.constants.endpoint_lease_ttl + 1.0)
            cloud.heartbeat(token, new)  # the survivor's beat reaps `old`
            return locators

        writes.landings = [(at, indexes, land_late)]
        return writes

    cloud.store.write_round = write_then_lose_the_lease
    with pytest.raises(LeaseExpiredError):
        cloud.report_result(
            token, old, task_id, True, serialize({"success": True, "value": 1})
        )
    cloud.store.write_round = write_round

    record = cloud.task(task_id)
    assert (record.status, record.endpoint_id) == (TaskStatus.WAITING, new)
    assert [d.task_id for d in cloud.fetch_tasks(token, new, 1)] == [task_id]


class _Usage:
    """A tenant registry that only counts what the cloud tells it."""

    def __init__(self):
        self.calls = []

    def weight(self, tenant):
        return 1

    def __getattr__(self, name):
        return lambda *args: self.calls.append(name)


@pytest.mark.parametrize("sweep", ["requeue_dispatched", "lease_lapse", "failover"])
def test_report_racing_requeue_sweep_stays_terminal(testbed, sweep):
    """A report is parked just before its apply while a requeue sweep runs
    to completion, then released.  On the parent the terminal transition
    and the requeue sat under two unrelated locks, so a report finishing
    inside the sweep had its SUCCESS overwritten to WAITING and the task
    finished twice; under the one ledger lock the two are ordered whatever
    the interleaving.  An in-place sweep leaves the owner's report valid:
    it wins and drops the requeued copy.  A failover to a peer makes it a
    stale lease: it is refused and the task waits, once, at the peer."""
    import threading

    from repro.exceptions import LeaseExpiredError

    clock = ManualClock()
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
    usage = _Usage()
    cloud = FaasCloud(
        testbed.faas_cloud, testbed.network, auth, testbed.constants, clock, usage=usage
    )
    doorbells = Doorbells(cloud.bus, "c")
    group = "pair" if sweep == "failover" else None
    old, new = (
        cloud.register_endpoint(token, name, testbed.theta_compute, failover_group=group)
        for name in ("old", "new")
    )
    func_id = cloud.register_function(token, serialize(_fn))
    cloud.heartbeat(token, old)
    task_id = cloud.submit(token, "c", func_id, old, serialize(((1,), {})))
    assert [d.task_id for d in cloud.fetch_tasks(token, old, 1)] == [task_id]

    parked, release = threading.Event(), threading.Event()
    apply = cloud._apply

    def parked_apply(record, **live):
        if record.kind == "result":  # the report: hold it outside the lock
            parked.set()
            assert release.wait(10.0)
        return apply(record, **live)

    cloud._apply = parked_apply
    outcome = []

    def report():
        outcome.extend(
            cloud.report_results(
                token, old, [(task_id, True, serialize({"success": True, "value": 1}))]
            )
        )

    reporter = threading.Thread(target=report)
    reporter.start()
    assert parked.wait(10.0)
    if sweep == "requeue_dispatched":
        assert cloud.requeue_dispatched(token, old) == [task_id]
    else:
        clock.sleep(cloud.constants.endpoint_lease_ttl + 1.0)
        cloud.heartbeat(token, new)  # the survivor's beat reaps `old`
    assert cloud.task(task_id).status is TaskStatus.WAITING
    release.set()
    reporter.join(10.0)
    assert not reporter.is_alive()

    record = cloud.task(task_id)
    if sweep == "failover":
        assert isinstance(outcome[0], LeaseExpiredError)
        assert (record.status, record.endpoint_id) == (TaskStatus.WAITING, new)
        assert (cloud.queue_depth(old), cloud.queue_depth(new)) == (0, 1)
        assert usage.calls.count("tasks_finished") == 0
        assert doorbells.take() == []
        # The peer runs it: exactly one terminal, one doorbell.
        cloud.fetch_tasks(token, new, 1)
        cloud.report_result(token, new, task_id, True, serialize({"value": 1}))
    else:
        assert outcome == [None]
    assert record.status is TaskStatus.SUCCESS
    assert (cloud.queue_depth(old), cloud.queue_depth(new)) == (0, 0)
    assert usage.calls.count("tasks_finished") == 1
    assert doorbells.take() == [task_id]
    assert cloud.fetch_tasks(token, record.endpoint_id, 10) == []
