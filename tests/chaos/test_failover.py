"""Heartbeats, lease expiry, failover, and exactly-once result reporting."""

from __future__ import annotations

import pytest
from conftest import ManualClock

from repro.exceptions import LeaseExpiredError, WorkflowError
from repro.faas import (
    SCOPE_COMPUTE,
    AuthServer,
    FaasClient,
    FaasCloud,
    FaasEndpoint,
)
from repro.faas.cloud import TaskStatus
from repro.net.clock import get_clock
from repro.net.context import at_site
from repro.net.defaults import PaperConstants, build_paper_testbed
from repro.observe import MetricsRegistry, set_metrics
from repro.resources import WorkerPool
from repro.serialize import serialize


def _add(a, b):
    return a + b


FAST = dict(endpoint_heartbeat_period=1.0, endpoint_lease_ttl=3.0)


def leased(cloud, endpoint_id):
    """Whether ``endpoint_id`` holds a live lease in the fleet's endpoint
    table."""
    expiry = cloud.fabric.endpoints.lease(endpoint_id)
    return expiry is not None and expiry > cloud.clock.now()


@pytest.fixture
def cloud_rig():
    """A bare cloud on a :class:`ManualClock`: a lease lapses when a test
    sleeps ``cloud.clock`` past the TTL, never because the host stalled."""
    constants = PaperConstants(**FAST)
    testbed = build_paper_testbed(seed=7, constants=constants)
    auth = AuthServer()
    identity = auth.register_identity("u", "anl")
    token = auth.issue_token(identity, {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, constants, ManualClock())
    return testbed, cloud, token


def test_heartbeat_renews_and_ttl_lapses(cloud_rig):
    testbed, cloud, token = cloud_rig
    ep = cloud.register_endpoint(token, "solo", testbed.theta_login)
    assert not leased(cloud, ep)  # never heartbeated
    cloud.heartbeat(token, ep)
    assert leased(cloud, ep)
    cloud.clock.sleep(2.0)
    cloud.heartbeat(token, ep)  # renewal pushes expiry out again
    cloud.clock.sleep(2.0)
    assert leased(cloud, ep)
    cloud.clock.sleep(2.0)  # 4s since last beat > ttl of 3
    assert not leased(cloud, ep)


def test_release_lease_is_a_graceful_goodbye(cloud_rig):
    testbed, cloud, token = cloud_rig
    metrics = MetricsRegistry()
    set_metrics(metrics)
    ep = cloud.register_endpoint(token, "solo", testbed.theta_login)
    cloud.heartbeat(token, ep)
    cloud.release_lease(token, ep)
    assert not leased(cloud, ep)
    # A released lease is gone, not expired: no reap, no counter.
    assert cloud.expire_leases() == []
    assert metrics.counter_total("faas.lease_expiries") == 0


def test_expire_leases_reaps_and_reports(cloud_rig):
    testbed, cloud, token = cloud_rig
    ep = cloud.register_endpoint(token, "solo", testbed.theta_login)
    cloud.heartbeat(token, ep)
    cloud.clock.sleep(4.0)
    assert cloud.expire_leases() == [ep]
    assert cloud.expire_leases() == []  # idempotent: already reaped


def test_lease_expiry_fails_queued_work_over_to_group_survivor(cloud_rig):
    testbed, cloud, token = cloud_rig
    metrics = MetricsRegistry()
    set_metrics(metrics)
    ep_a = cloud.register_endpoint(
        token, "a", testbed.theta_login, failover_group="pair"
    )
    ep_b = cloud.register_endpoint(
        token, "b", testbed.theta_login, failover_group="pair"
    )
    cloud.heartbeat(token, ep_a)
    cloud.heartbeat(token, ep_b)
    with at_site(testbed.theta_login):
        func_id = cloud.register_function(token, serialize(_add))
        task_id = cloud.submit(token, "client", func_id, ep_a, serialize(((1, 2), {})))
        # ep_a fetches the task, then goes silent; ep_b keeps heartbeating.
        dispatched = cloud.fetch_tasks(token, ep_a, 10)
    assert [d.task_id for d in dispatched] == [task_id]
    cloud.clock.sleep(2.0)
    cloud.heartbeat(token, ep_b)
    cloud.clock.sleep(2.0)
    # ep_b's heartbeat doubles as the liveness sweep (bus-mode endpoints
    # don't poll while idle), so ep_a is reaped by it, not by our call.
    cloud.heartbeat(token, ep_b)
    assert not leased(cloud, ep_a)
    assert cloud.expire_leases() == []
    record = cloud.task(task_id)
    assert record.status is TaskStatus.WAITING
    assert record.endpoint_id == ep_b
    assert record.previous_endpoints == [ep_a]
    assert record.requeues == 1
    assert metrics.counter_total("faas.failovers") == 1
    # The survivor now sees the task on its own queue.
    with at_site(testbed.theta_login):
        refetched = cloud.fetch_tasks(token, ep_b, 10)
    assert [d.task_id for d in refetched] == [task_id]


def test_lease_expiry_without_survivor_requeues_in_place(cloud_rig):
    testbed, cloud, token = cloud_rig
    ep = cloud.register_endpoint(token, "solo", testbed.theta_login)
    cloud.heartbeat(token, ep)
    with at_site(testbed.theta_login):
        func_id = cloud.register_function(token, serialize(_add))
        task_id = cloud.submit(token, "client", func_id, ep, serialize(((1, 2), {})))
        cloud.fetch_tasks(token, ep, 10)
    cloud.clock.sleep(4.0)
    assert cloud.expire_leases() == [ep]
    record = cloud.task(task_id)
    assert record.status is TaskStatus.WAITING
    assert record.endpoint_id == ep  # no group, nowhere else to go
    assert record.previous_endpoints == []


def test_a_fetch_after_a_lapse_gets_nothing_so_its_work_fails_over():
    """Both leases of a pair lapse on a stalled host; ``a``'s next fetch
    used to reap ``a`` inside the fetch and still hand it the task, and
    once ``a`` died the task stayed DISPATCHED to it for good: a reaped
    endpoint's later sweeps move only its queue.  Only a heartbeat renews a
    lease, and a reaped endpoint is handed nothing, so the task waits in
    ``a``'s queue until ``b``'s beat moves it."""
    constants = PaperConstants(**FAST)
    testbed = build_paper_testbed(seed=7, constants=constants)
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
    clock = ManualClock()
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, constants, clock)
    ep_a, ep_b = (
        cloud.register_endpoint(token, name, testbed.theta_compute, failover_group="pair")
        for name in "ab"
    )
    cloud.heartbeat(token, ep_a)
    cloud.heartbeat(token, ep_b)
    func_id = cloud.register_function(token, serialize(_add))
    task_id = cloud.submit(token, "client", func_id, ep_a, serialize(((1, 2), {})))
    clock.sleep(4.0)  # neither agent beat in time
    assert cloud.fetch_tasks(token, ep_a, 10) == []  # the fetch reaps both
    assert cloud.task(task_id).status is TaskStatus.WAITING
    for _ in range(10):  # a dies; b beats on
        clock.sleep(1.0)
        cloud.heartbeat(token, ep_b)
    record = cloud.task(task_id)
    assert record.status is TaskStatus.WAITING
    assert record.endpoint_id == ep_b
    assert record.previous_endpoints == [ep_a]


def test_report_result_is_idempotent(cloud_rig):
    testbed, cloud, token = cloud_rig
    metrics = MetricsRegistry()
    set_metrics(metrics)
    ep = cloud.register_endpoint(token, "solo", testbed.theta_login)
    cloud.heartbeat(token, ep)
    with at_site(testbed.theta_login):
        func_id = cloud.register_function(token, serialize(_add))
        task_id = cloud.submit(token, "client", func_id, ep, serialize(((1, 2), {})))
        cloud.fetch_tasks(token, ep, 10)
        cloud.report_result(token, ep, task_id, True, serialize({"value": 3}))
        # A second report (crash-requeued duplicate) is dropped, not an error.
        cloud.report_result(token, ep, task_id, True, serialize({"value": 3}))
    assert cloud.task(task_id).status is TaskStatus.SUCCESS
    assert metrics.counter_total("faas.duplicate_results") == 1


def test_stale_report_after_failover_raises_lease_expired(cloud_rig):
    testbed, cloud, token = cloud_rig
    ep_a = cloud.register_endpoint(
        token, "a", testbed.theta_login, failover_group="pair"
    )
    ep_b = cloud.register_endpoint(
        token, "b", testbed.theta_login, failover_group="pair"
    )
    cloud.heartbeat(token, ep_a)
    cloud.heartbeat(token, ep_b)
    with at_site(testbed.theta_login):
        func_id = cloud.register_function(token, serialize(_add))
        task_id = cloud.submit(token, "client", func_id, ep_a, serialize(((1, 2), {})))
        cloud.fetch_tasks(token, ep_a, 10)
    cloud.clock.sleep(2.0)
    cloud.heartbeat(token, ep_b)
    cloud.clock.sleep(2.0)
    cloud.heartbeat(token, ep_b)
    cloud.expire_leases()  # task now belongs to ep_b
    with at_site(testbed.theta_login):
        with pytest.raises(LeaseExpiredError):
            cloud.report_result(token, ep_a, task_id, True, serialize({"value": 3}))


def test_report_for_task_never_owned_is_a_protocol_violation(cloud_rig):
    testbed, cloud, token = cloud_rig
    ep_a = cloud.register_endpoint(token, "a", testbed.theta_login)
    ep_b = cloud.register_endpoint(token, "b", testbed.theta_login)
    cloud.heartbeat(token, ep_a)
    with at_site(testbed.theta_login):
        func_id = cloud.register_function(token, serialize(_add))
        task_id = cloud.submit(token, "client", func_id, ep_a, serialize(((1, 2), {})))
        cloud.fetch_tasks(token, ep_a, 10)
        with pytest.raises(WorkflowError):
            cloud.report_result(token, ep_b, task_id, True, serialize({"value": 3}))


def test_endpoint_crash_mid_lease_completes_on_survivor_without_client_help():
    """The acceptance scenario: kill one endpoint of a failover pair while it
    holds dispatched tasks; every task still completes, driven entirely by
    lease expiry plus the survivor's polling — the client has no retry
    policy, so any client-side recovery would surface as a failed future."""
    constants = PaperConstants(**FAST)
    testbed = build_paper_testbed(seed=7, constants=constants)
    metrics = MetricsRegistry()
    set_metrics(metrics)
    auth = AuthServer()
    identity = auth.register_identity("u", "anl")
    token = auth.issue_token(identity, {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, constants)
    pool_a = WorkerPool(testbed.theta_compute, 2, name="pool-a")
    pool_b = WorkerPool(testbed.theta_compute, 2, name="pool-b")
    ep_a = FaasEndpoint(
        "ep-a", cloud, token, testbed.theta_login, pool_a,
        failover_group="pair",
    ).start()
    ep_b = FaasEndpoint(
        "ep-b", cloud, token, testbed.theta_login, pool_b,
        failover_group="pair",
    ).start()
    client = FaasClient(cloud, token, site=testbed.theta_login)
    try:
        with at_site(testbed.theta_login):
            futures = [
                client.run(_add, ep_a.endpoint_id, i, b=1) for i in range(4)
            ]
        ep_a.simulate_crash()
        assert [f.result(timeout=120) for f in futures] == [1, 2, 3, 4]
    finally:
        client.close()
        ep_a.stop()
        ep_b.stop()
    assert metrics.counter_total("endpoint.crashes") == 1
    assert metrics.counter_total("faas.lease_expiries") >= 1
    assert metrics.counter_total("client.retries") == 0
    assert all(r.status.terminal for r in cloud.task_records())


def test_work_submitted_to_a_reaped_endpoint_completes_on_its_survivor():
    """``ep-a`` crashes idle and is reaped; only then is a task submitted to
    it.  No sweep has anything of ``a``'s to move, so admission itself must
    place the task on the live ``ep-b``."""
    constants = PaperConstants(**FAST)
    testbed = build_paper_testbed(seed=7, constants=constants)
    metrics = MetricsRegistry()
    set_metrics(metrics)
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, constants)
    ep_a, ep_b = (
        FaasEndpoint(
            name, cloud, token, testbed.theta_login,
            WorkerPool(testbed.theta_compute, 2, name=f"pool-{name}"),
            failover_group="pair",
        ).start()
        for name in ("ep-a", "ep-b")
    )
    client = FaasClient(cloud, token, site=testbed.theta_login)
    try:
        ep_a.simulate_crash()
        clock = get_clock()
        deadline = clock.now() + 60.0
        while leased(cloud, ep_a.endpoint_id):  # ep-b's beats reap it next
            assert clock.now() < deadline
            clock.sleep(0.5)
        with at_site(testbed.theta_login):
            future = client.run(_add, ep_a.endpoint_id, 1, b=2)
        assert future.result(timeout=120) == 3
    finally:
        client.close()
        ep_a.stop()
        ep_b.stop()
    (record,) = cloud.task_records()
    assert record.endpoint_id == ep_b.endpoint_id
    assert metrics.counter_total("faas.failovers") == 1


def _slow_add(a, b):
    get_clock().sleep(150.0)  # more than twice the lease TTL below
    return a + b


def test_a_graceful_stop_keeps_its_lease_until_it_has_drained():
    """Stopping an agent mid-task waits for the pool to run the task and
    the uplink to report it.  The heartbeat used to be cancelled before
    that drain, so the peer's sweep reaped the stopping agent a TTL later
    and failed its task over although nothing had died; now it beats until
    the release, and the task's result is accepted from the agent that
    ran it."""
    constants = PaperConstants(endpoint_heartbeat_period=2.0, endpoint_lease_ttl=60.0)
    testbed = build_paper_testbed(seed=7, constants=constants)
    metrics = MetricsRegistry()
    set_metrics(metrics)
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, constants)
    ep_a, ep_b = (
        FaasEndpoint(
            name, cloud, token, testbed.theta_login,
            WorkerPool(testbed.theta_compute, 1, name=f"pool-{name}"),
            failover_group="pair",
        ).start()
        for name in ("ep-a", "ep-b")
    )
    client = FaasClient(cloud, token, site=testbed.theta_login)
    try:
        with at_site(testbed.theta_login):
            future = client.run(_slow_add, ep_a.endpoint_id, 1, b=2)
        clock = get_clock()
        deadline = clock.now() + 60.0
        while not metrics.counter_total("endpoint.executions"):  # running on ep-a
            assert clock.now() < deadline
            clock.sleep(0.5)
        ep_a.stop()  # returns once the task has run and been reported
        assert future.result(timeout=60) == 3
    finally:
        client.close()
        ep_a.stop()
        ep_b.stop()
    (record,) = cloud.task_records()
    assert (record.status, record.endpoint_id) == (TaskStatus.SUCCESS, ep_a.endpoint_id)
    assert record.previous_endpoints == []
    assert metrics.counter_total("faas.lease_expiries") == 0
    assert metrics.counter_total("faas.failovers") == 0
    assert metrics.counter_total("endpoint.stale_results") == 0
