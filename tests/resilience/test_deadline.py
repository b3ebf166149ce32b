"""End-to-end deadline propagation: refuse at submit, expire in queue,
skip at the endpoint, and stop client retries that cannot finish."""

from __future__ import annotations

import threading
import time

import pytest

from repro.exceptions import DeadlineExceededError
from repro.faas import (
    SCOPE_COMPUTE,
    AuthServer,
    FaasClient,
    FaasCloud,
    FaasEndpoint,
)
from repro.chaos.policy import RetryPolicy
from repro.faas.cloud import TaskStatus
from repro.net.clock import get_clock
from repro.net.context import at_site
from repro.net.defaults import PaperConstants, build_paper_testbed
from repro.observe import MetricsRegistry, set_metrics
from repro.resources import WorkerPool
from repro.serialize import deserialize, serialize

FAST = dict(endpoint_heartbeat_period=1.0, endpoint_lease_ttl=30.0)


def _add(a, b):
    return a + b


def _fail():
    raise ValueError("remote boom")


#: Holds :func:`_held` on its worker until the test releases it.
_GATE = threading.Event()


def _held():
    _GATE.wait(60)
    return "released"


def _wait_until(condition, what: str) -> None:
    deadline = time.monotonic() + 30
    while not condition():
        assert time.monotonic() < deadline, what
        time.sleep(0.001)


@pytest.fixture
def cloud_rig():
    constants = PaperConstants(**FAST)
    testbed = build_paper_testbed(seed=5, constants=constants)
    auth = AuthServer()
    identity = auth.register_identity("u", "anl")
    token = auth.issue_token(identity, {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, constants)
    return testbed, cloud, token


def test_submit_refuses_an_already_expired_deadline(cloud_rig):
    testbed, cloud, token = cloud_rig
    ep = cloud.register_endpoint(token, "solo", testbed.theta_login)
    with at_site(testbed.theta_login):
        func_id = cloud.register_function(token, serialize(_add))
        with pytest.raises(DeadlineExceededError):
            cloud.submit(
                token,
                "client",
                func_id,
                ep,
                serialize(((1, 2), {})),
                deadline_at=get_clock().now() - 0.1,
            )


def test_queued_task_expires_at_fetch_instead_of_shipping(cloud_rig):
    testbed, cloud, token = cloud_rig
    metrics = MetricsRegistry()
    set_metrics(metrics)
    ep = cloud.register_endpoint(token, "solo", testbed.theta_login)
    cloud.heartbeat(token, ep)
    with at_site(testbed.theta_login):
        func_id = cloud.register_function(token, serialize(_add))
        task_id = cloud.submit(
            token,
            "client",
            func_id,
            ep,
            serialize(((1, 2), {})),
            deadline_at=get_clock().now() + 1.0,
        )
        get_clock().sleep(2.0)  # the endpoint shows up too late
        assert cloud.fetch_tasks(token, ep, 10) == []
        record = cloud.task(task_id)
        assert record.status is TaskStatus.FAILED
        status, payload = cloud.get_result_payload(token, task_id)
        body = deserialize(payload)
    assert body["error"].startswith("DeadlineExceededError")
    assert metrics.counter_total("resilience.deadline_expired") == 1


def test_endpoint_skips_work_whose_deadline_lapsed_in_the_pool(testbed):
    """A 1-worker pool: the head-of-line task outlives the second task's
    deadline, so the endpoint drops it pre-execution instead of burning
    compute on a result nobody can use.  The head-of-line task holds the
    worker until the second one is queued behind it and its deadline has
    passed, so the outcome does not hang on host timing."""
    metrics = MetricsRegistry()
    set_metrics(metrics)
    auth = AuthServer()
    identity = auth.register_identity("u", "anl")
    token = auth.issue_token(identity, {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, testbed.constants)
    pool = WorkerPool(testbed.theta_compute, 1, name="serial-pool")
    endpoint = FaasEndpoint(
        "serial", cloud, token, testbed.theta_login, pool
    ).start()
    client = FaasClient(cloud, token, site=testbed.theta_login)
    try:
        with at_site(testbed.theta_login):
            _GATE.clear()
            blocker = client.run(_held, endpoint.endpoint_id)
            _wait_until(lambda: pool.active_count == 1, "the blocker never started")
            doomed = client.run(_add, endpoint.endpoint_id, 1, b=2, _deadline=20.0)
            _wait_until(lambda: pool.queue_depth == 1, "the doomed task never queued")
        get_clock().sleep(20.0)  # past the doomed task's deadline
        _GATE.set()
        assert blocker.result(timeout=60) == "released"
        with pytest.raises(DeadlineExceededError):
            doomed.result(timeout=60)
        assert metrics.counter_total("endpoint.deadline_skips") == 1
        assert metrics.counter_total("client.deadline_failures") == 1
    finally:
        _GATE.set()
        client.close()
        endpoint.stop()


def test_client_stops_retrying_past_the_deadline(testbed):
    """The retry loop abandons once the deadline lapses: either it notices
    before resubmitting, or the cloud refuses the late resubmission — both
    are terminal, neither burns the remaining attempt budget."""
    metrics = MetricsRegistry()
    set_metrics(metrics)
    auth = AuthServer()
    identity = auth.register_identity("u", "anl")
    token = auth.issue_token(identity, {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, testbed.constants)
    pool = WorkerPool(testbed.theta_compute, 2, name="retry-pool")
    endpoint = FaasEndpoint(
        "flaky", cloud, token, testbed.theta_login, pool
    ).start()
    client = FaasClient(
        cloud,
        token,
        site=testbed.theta_login,
        retry_policy=RetryPolicy(
            max_attempts=8, base_delay=2.0, max_delay=2.0, jitter=0.0
        ),
    )
    try:
        with at_site(testbed.theta_login):
            future = client.run(_fail, endpoint.endpoint_id, _deadline=3.0)
        with pytest.raises(DeadlineExceededError):
            future.result(timeout=120)
        abandoned = (
            metrics.counter_total("client.deadline_abandoned")
            + metrics.counter_total("client.terminal_rejections")
        )
        assert abandoned == 1
        # Far fewer executions than the attempt cap: the deadline, not the
        # budget, ended the retry storm.
        assert len(cloud.task_records()) <= 3
    finally:
        client.close()
        endpoint.stop()
