"""Autoscaler: demand-driven grows, idle shrinks, scale-to-zero, doorbell wake."""

from __future__ import annotations

import pytest

from repro.elastic import (
    AutoscalePolicy,
    Autoscaler,
    ElasticWorkerPool,
    render_pool_table,
)
from repro.faas import SCOPE_COMPUTE, AuthServer, FaasClient, FaasCloud, FaasEndpoint
from repro.net.clock import get_clock
from repro.net.context import at_site
from repro.observe import MetricsRegistry, set_metrics
from repro.resources import WorkerPool

QUICK = AutoscalePolicy(
    min_workers=0,
    max_workers=4,
    target_tasks_per_worker=1.0,
    interval=0.5,
    cooldown=0.5,
    idle_grace=2.0,
    zero_grace=4.0,
)


def _sim(duration=2.0):
    get_clock().sleep(duration)
    return duration


def _noop(index):
    return index


@pytest.fixture
def rig(testbed):
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, testbed.constants)
    pool = ElasticWorkerPool(testbed.theta_compute, 0, name="auto-pool")
    endpoint = FaasEndpoint("auto", cloud, token, testbed.theta_login, pool).start()
    client = FaasClient(cloud, token, site=testbed.theta_login)
    scaler = Autoscaler(endpoint, policy=QUICK)
    yield testbed, endpoint, client, scaler
    scaler.stop()
    client.close()
    endpoint.stop()


def _wait_until(predicate, timeout=30.0):
    deadline = get_clock().now() + timeout
    while not predicate():
        if get_clock().now() > deadline:
            return False
        get_clock().sleep(0.1)
    return True


def test_requires_elastic_pool(testbed):
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("w", "anl"), {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, testbed.constants)
    pool = WorkerPool(testbed.theta_compute, 1, name="static-pool")
    endpoint = FaasEndpoint("static", cloud, token, testbed.theta_login, pool).start()
    try:
        with pytest.raises(TypeError, match="ElasticWorkerPool"):
            Autoscaler(endpoint)
    finally:
        endpoint.stop()


def test_burst_scales_up_and_completes(rig):
    testbed, endpoint, client, scaler = rig
    scaler.start()
    with at_site(testbed.theta_login):
        futures = [
            client.run(_sim, endpoint.endpoint_id, 2.0) for _ in range(8)
        ]
    assert all(f.result(timeout=120) == 2.0 for f in futures)
    grows = [d for d in scaler.decisions if d.action in ("grow", "wake")]
    assert grows, scaler.decisions
    assert max(d.workers for d in grows) > 1  # it actually scaled out


def test_idle_pool_shrinks_to_zero(rig):
    testbed, endpoint, client, scaler = rig
    scaler.start()
    with at_site(testbed.theta_login):
        future = client.run(_noop, endpoint.endpoint_id, 1)
    assert future.result(timeout=60) == 1
    # No demand: grace periods elapse and the pool releases everything.
    assert _wait_until(lambda: scaler.pool.size == 0, timeout=60.0)
    actions = [d.action for d in scaler.decisions]
    assert "to_zero" in actions


def test_doorbell_wakes_dormant_pool_and_records_ttft(rig):
    registry = MetricsRegistry()
    set_metrics(registry)
    testbed, endpoint, client, scaler = rig
    try:
        scaler.start()
        with at_site(testbed.theta_login):
            first = client.run(_noop, endpoint.endpoint_id, 1)
        assert first.result(timeout=60) == 1
        assert _wait_until(lambda: scaler.pool.size == 0, timeout=60.0)
        # Submission against the dormant endpoint rings the bus doorbell.
        with at_site(testbed.theta_login):
            second = client.run(_noop, endpoint.endpoint_id, 2)
        assert second.result(timeout=60) == 2
        assert "wake" in [d.action for d in scaler.decisions]
        assert _wait_until(lambda: len(scaler.wake_latencies) >= 1, timeout=30.0)
        assert all(lat >= 0.0 for lat in scaler.wake_latencies)
        assert registry.counter_total("autoscale.wakes") >= 1
    finally:
        set_metrics(None)


def test_decisions_counter_by_action(rig):
    registry = MetricsRegistry()
    set_metrics(registry)
    testbed, endpoint, client, scaler = rig
    try:
        scaler.start()
        with at_site(testbed.theta_login):
            futures = [client.run(_noop, endpoint.endpoint_id, i) for i in range(4)]
        assert all(f.result(timeout=60) is not None for f in futures)
        assert _wait_until(lambda: len(scaler.decisions) >= 1, timeout=30.0)
        assert registry.counter_total("autoscale.decisions") == len(scaler.decisions)
    finally:
        set_metrics(None)


def test_render_pool_table_lists_every_endpoint(rig):
    testbed, endpoint, client, scaler = rig
    table = render_pool_table([scaler])
    assert "endpoint" in table and "auto" in table
    assert "last decision" in table


def test_policy_validation():
    with pytest.raises(ValueError):
        AutoscalePolicy(min_workers=-1)
    with pytest.raises(ValueError):
        AutoscalePolicy(min_workers=5, max_workers=2)
    with pytest.raises(ValueError):
        AutoscalePolicy(target_tasks_per_worker=0.0)
    with pytest.raises(ValueError):
        AutoscalePolicy(interval=0.0)
