"""Endpoint configuration validation and tracing across an outage."""

from __future__ import annotations

import time

import pytest

from repro.exceptions import WorkflowError
from repro.faas import (
    SCOPE_COMPUTE,
    AuthServer,
    FaasClient,
    FaasCloud,
    FaasEndpoint,
)
from repro.net.clock import get_clock
from repro.net.context import at_site
from repro.observe import Tracer, find_orphans, group_traces, set_tracer
from repro.resources import WorkerPool


def _fn(x):
    return x * 2


def _slow_fn(x):
    get_clock().sleep(5.0)
    return x


@pytest.fixture
def rig(testbed):
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, testbed.constants)
    pool = WorkerPool(testbed.theta_compute, 1, name="obs-pool")
    return testbed, cloud, token, pool


@pytest.mark.parametrize("bad", [0, -3])
def test_max_tasks_per_poll_must_be_positive(rig, bad):
    """The credit window (``credit_window``, the keyword once named
    ``max_tasks_per_poll``) must let at least one task be pushed."""
    testbed, cloud, token, pool = rig
    with pytest.raises(WorkflowError, match="credit_window must be a positive"):
        FaasEndpoint("t", cloud, token, testbed.theta_login, pool, credit_window=bad)


def test_spans_survive_outage_and_reconnect(rig):
    """Disconnect the endpoint mid-campaign: tasks store-and-forward at the
    cloud (and finished results hold in the endpoint outbox), and once the
    endpoint reconnects every trace completes with no orphan spans."""
    testbed, cloud, token, pool = rig
    tracer = Tracer()
    set_tracer(tracer)
    endpoint = FaasEndpoint("t", cloud, token, testbed.theta_login, pool).start()
    client = FaasClient(cloud, token, site=testbed.theta_login)
    try:
        with at_site(testbed.theta_login):
            # A task completed before the outage.
            before = client.run(_fn, endpoint.endpoint_id, 1)
            assert before.result(timeout=30) == 2
            # A slow task: likely fetched before the outage, its result held
            # in the endpoint outbox while paused.
            held = client.run(_slow_fn, endpoint.endpoint_id, 7)
            endpoint.pause()
            # A task submitted *during* the outage: waits at the cloud.
            stored = client.run(_fn, endpoint.endpoint_id, 3)
        time.sleep(0.1)  # ~50 nominal s at the test time scale
        assert not stored.done()  # nothing moves while disconnected
        assert not held.done()  # its result is held in the outbox
        endpoint.resume()
        assert held.result(timeout=30) == 7
        assert stored.result(timeout=30) == 6
    finally:
        client.close()
        endpoint.stop()

    spans = tracer.spans()
    traces = group_traces(spans)
    assert len(traces) == 3
    assert find_orphans(spans) == []
    # Every task's trace made it end to end: submitted to the cloud AND
    # uplinked from the endpoint, outage or not.
    for bucket in traces.values():
        names = {s.name for s in bucket}
        assert "cloud.submit" in names
        assert "worker.run" in names
        assert "result.uplink" in names
        assert all(s.end is not None for s in bucket)
