"""Breaker-aware dispatch: shedding, submit steering, and the admit gate.

Drives the cloud API directly (the ``tests/chaos/test_failover.py`` idiom)
on a :class:`ManualClock`, so each latency sample and breaker transition
happens at a known instant and a host stall cannot stretch a "healthy"
latency into a slow one.
"""

from __future__ import annotations

import pytest
from conftest import ManualClock

from repro.exceptions import LeaseExpiredError
from repro.faas import SCOPE_COMPUTE, AuthServer, FaasCloud
from repro.faas.cloud import TaskStatus
from repro.net.context import at_site
from repro.net.defaults import PaperConstants, build_paper_testbed
from repro.observe import MetricsRegistry, set_metrics
from repro.resilience import BREAKER_OPEN, EndpointHealthTracker, HealthPolicy
from repro.serialize import serialize

# Long lease TTL: these tests isolate the *gray* path, where the endpoint
# keeps heartbeating and only the breaker (never lease expiry) sheds work.
SLOW_LEASES = dict(endpoint_heartbeat_period=1.0, endpoint_lease_ttl=120.0)

#: One slow sample trips the breaker; the cool-down is long enough that it
#: stays open for the whole test unless stated otherwise.
POLICY = dict(
    latency_baseline=1.0,
    latency_threshold=2.0,
    min_samples=1,
    open_score=0.5,
    latency_alpha=1.0,
)


def _add(a, b):
    return a + b


def _rig(open_duration=600.0):
    constants = PaperConstants(**SLOW_LEASES)
    testbed = build_paper_testbed(seed=7, constants=constants)
    auth = AuthServer()
    identity = auth.register_identity("u", "anl")
    token = auth.issue_token(identity, {SCOPE_COMPUTE})
    health = EndpointHealthTracker(
        HealthPolicy(open_duration=open_duration, **POLICY)
    )
    cloud = FaasCloud(
        testbed.faas_cloud, testbed.network, auth, constants, ManualClock(), health=health
    )
    ep_a = cloud.register_endpoint(token, "a", testbed.theta_login, failover_group="pair")
    ep_b = cloud.register_endpoint(token, "b", testbed.theta_login, failover_group="pair")
    cloud.heartbeat(token, ep_a)
    cloud.heartbeat(token, ep_b)
    return testbed, cloud, token, ep_a, ep_b


def _gray_out(testbed, cloud, token, ep_a, extra_tasks=2):
    """Submit 1 + ``extra_tasks`` tasks to ep_a and return a slow result for
    the first, leaving the rest queued behind a now-gray endpoint."""
    with at_site(testbed.theta_login):
        func_id = cloud.register_function(token, serialize(_add))
        task_ids = [
            cloud.submit(token, "client", func_id, ep_a, serialize(((i, i), {})))
            for i in range(1 + extra_tasks)
        ]
        dispatched = cloud.fetch_tasks(token, ep_a, 1)
        assert [d.task_id for d in dispatched] == task_ids[:1]
        cloud.clock.sleep(10.0)  # the dispatch -> result latency sample
        cloud.report_result(
            token, ep_a, task_ids[0], True, serialize({"success": True, "value": 0})
        )
    return func_id, task_ids


def test_healthy_peer_fetch_sheds_a_gray_endpoints_backlog():
    testbed, cloud, token, ep_a, ep_b = _rig()
    metrics = MetricsRegistry()
    set_metrics(metrics)
    func_id, task_ids = _gray_out(testbed, cloud, token, ep_a)
    # ep_b's next fetch runs the shed sweep: it opens ep_a's breaker and
    # pulls the two queued tasks over in the same call.
    with at_site(testbed.theta_login):
        refetched = cloud.fetch_tasks(token, ep_b, 10)
    assert sorted(d.task_id for d in refetched) == sorted(task_ids[1:])
    assert metrics.counter_total("resilience.breaker_opens") == 1
    assert metrics.counter_total("resilience.sheds") == 2
    for task_id in task_ids[1:]:
        record = cloud.task(task_id)
        assert record.endpoint_id == ep_b
        assert record.previous_endpoints == [ep_a]
        assert record.requeues == 1


def test_heartbeat_sweep_sheds_for_bus_idle_fleets():
    """A standby that never polls must still trigger the shed: its
    heartbeat doubles as the sweep, exactly like lease-expiry failover."""
    testbed, cloud, token, ep_a, ep_b = _rig()
    metrics = MetricsRegistry()
    set_metrics(metrics)
    _, task_ids = _gray_out(testbed, cloud, token, ep_a)
    cloud.heartbeat(token, ep_b)  # no fetch anywhere
    assert metrics.counter_total("resilience.sheds") == 2
    assert cloud.task(task_ids[1]).endpoint_id == ep_b


def test_shed_moves_in_flight_work_and_stales_the_gray_report():
    testbed, cloud, token, ep_a, ep_b = _rig()
    with at_site(testbed.theta_login):
        func_id = cloud.register_function(token, serialize(_add))
        first = cloud.submit(token, "client", func_id, ep_a, serialize(((1, 1), {})))
        straggler = cloud.submit(
            token, "client", func_id, ep_a, serialize(((2, 2), {}))
        )
        cloud.fetch_tasks(token, ep_a, 2)  # both now DISPATCHED
        cloud.clock.sleep(10.0)
        cloud.heartbeat(token, ep_a)
        cloud.report_result(
            token, ep_a, first, True, serialize({"success": True, "value": 2})
        )
        cloud.heartbeat(token, ep_b)  # sweep: ep_a is gray now
        record = cloud.task(straggler)
        assert record.status is TaskStatus.WAITING
        assert record.endpoint_id == ep_b
        # The gray endpoint eventually finishes the straggler anyway; its
        # report must land as a stale lease, not a second execution.
        with pytest.raises(LeaseExpiredError):
            cloud.report_result(
                token, ep_a, straggler, True, serialize({"success": True, "value": 4})
            )


def test_submit_steers_away_from_an_open_breaker():
    testbed, cloud, token, ep_a, ep_b = _rig()
    metrics = MetricsRegistry()
    set_metrics(metrics)
    func_id, _ = _gray_out(testbed, cloud, token, ep_a, extra_tasks=0)
    cloud.heartbeat(token, ep_b)  # opens ep_a's breaker via the sweep
    with at_site(testbed.theta_login):
        steered = cloud.submit(
            token, "client", func_id, ep_a, serialize(((9, 9), {}))
        )
    assert cloud.task(steered).endpoint_id == ep_b
    assert metrics.counter_total("resilience.steered") == 1


def test_open_breaker_gates_fetch_without_breaking_cadence():
    testbed, cloud, token, ep_a, ep_b = _rig()
    func_id, _ = _gray_out(testbed, cloud, token, ep_a, extra_tasks=0)
    cloud.heartbeat(token, ep_b)
    with at_site(testbed.theta_login):
        queued = cloud.submit(token, "client", func_id, ep_b, serialize(((3, 3), {})))
        # ep_a is refused work while open, even with backlog elsewhere.
        assert cloud.fetch_tasks(token, ep_a, 10) == []
        assert cloud.health.evaluate(ep_a, cloud.clock.now()) == BREAKER_OPEN
        refetched = cloud.fetch_tasks(token, ep_b, 10)
    assert [d.task_id for d in refetched] == [queued]


def test_half_open_probe_closes_the_breaker_through_dispatch():
    testbed, cloud, token, ep_a, ep_b = _rig(open_duration=5.0)
    metrics = MetricsRegistry()
    set_metrics(metrics)
    func_id, _ = _gray_out(testbed, cloud, token, ep_a, extra_tasks=0)
    cloud.heartbeat(token, ep_b)  # trips the breaker
    cloud.clock.sleep(6.0)  # past the cool-down: next evaluate is half-open
    cloud.heartbeat(token, ep_a)
    cloud.heartbeat(token, ep_b)
    with at_site(testbed.theta_login):
        # Half-open no longer steers, so the probe task queues on ep_a...
        probe = cloud.submit(token, "client", func_id, ep_a, serialize(((5, 5), {})))
        assert cloud.task(probe).endpoint_id == ep_a
        # ...and the fetch admits exactly the probe budget.
        dispatched = cloud.fetch_tasks(token, ep_a, 10)
        assert [d.task_id for d in dispatched] == [probe]
        cloud.clock.sleep(0.5)  # a healthy latency this time
        cloud.report_result(
            token, ep_a, probe, True, serialize({"success": True, "value": 10})
        )
    assert cloud.health.state(ep_a) == "closed"
    assert metrics.counter_total("resilience.probes") == 1
    assert metrics.counter_total("resilience.breaker_closes") == 1
