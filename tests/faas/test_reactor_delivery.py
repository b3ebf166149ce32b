"""Bus delivery is a reactor callback: no control-plane thread blocks on it.

Pushed tasks and result notifications are delivered on the process
reactor, which hands the endpoint its dispatches and plans the client's
download rounds; a lapsed subscription reaches its owner there too.  A running stack
therefore has one control-plane thread, and a delivery callback that fails
is counted and retried instead of silently ending a loop.
"""

from __future__ import annotations

import sys
import threading

from conftest import hardened_router

from repro.batch import BatchPolicy
from repro.batch.reactor import Reactor
from repro.faas import SCOPE_COMPUTE, AuthServer, FaasClient, FaasCloud, FaasEndpoint
from repro.faas.cloud import TaskStatus, result_topic, task_topic
from repro.net.clock import get_clock
from repro.net.context import at_site
from repro.observe import MetricsRegistry, set_metrics
from repro.resources import WorkerPool


def _add(a, b):
    return a + b


def _slow_add(a, b):
    get_clock().sleep(5.0)
    return a + b


def _stack(testbed):
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, testbed.constants)
    pool = WorkerPool(testbed.theta_compute, 2, name="delivery-pool")
    endpoint = FaasEndpoint("theta", cloud, token, testbed.theta_login, pool).start()
    client = FaasClient(cloud, token, site=testbed.theta_login)
    return cloud, endpoint, client


def _metrics():
    registry = MetricsRegistry()
    set_metrics(registry)
    return registry


def _raising_once(fn, error):
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise error
        return fn(*args, **kwargs)

    return wrapped


# -- a failing delivery callback is counted and retried ---------------------------
def test_a_raising_fetch_does_not_strand_the_endpoint(testbed):
    """One ``fetch_tasks`` that raises used to end the poll thread while
    the heartbeats went on: the lease stayed valid, nothing failed over,
    and the task was never fetched.  A push whose dequeue raises counts the
    error and leaves the task WAITING; the next push (the endpoint's next
    heartbeat) delivers it."""
    metrics = _metrics()
    cloud, endpoint, client = _stack(testbed)
    cloud.fetch_tasks = _raising_once(cloud.fetch_tasks, ConnectionError("reset"))
    try:
        with at_site(testbed.theta_login):
            future = client.run(_add, endpoint.endpoint_id, 2, b=3)
        client.flush_batches()  # the submit has landed and its push raised
        assert metrics.counter_total("faas.push_errors") == 1
        assert cloud.task(future.task_id).status is TaskStatus.WAITING
        assert future.result(timeout=30) == 5
    finally:
        client.close()
        endpoint.stop()
    assert metrics.counter_total("faas.push_errors") == 1
    assert metrics.counter_total("reactor.callback_errors") == 0


# -- the traffic the reactor carries ------------------------------------------------
def test_a_hardened_stack_runs_one_control_plane_thread(testbed):
    """A 2-shard journaled router with health and poison tracking, an
    endpoint and a batching client: while tasks are in flight the only
    live thread the stack added besides its workers is the reactor."""
    before = set(threading.enumerate())
    router, token, tenant, _funcs, _endpoints = hardened_router(
        get_clock(), n_functions=0, n_endpoints=0
    )
    pool = WorkerPool(testbed.theta_compute, 2, name="one-thread-pool")
    endpoint = FaasEndpoint("theta", router, token, testbed.theta_login, pool).start()
    client = FaasClient(
        router,
        token,
        site=testbed.theta_login,
        tenant=tenant,
        batch=BatchPolicy(max_batch=8, flush_deadline=0.05, min_hold=0.002),
    )
    try:
        with at_site(testbed.theta_login):
            futures = [client.run(_slow_add, endpoint.endpoint_id, i, b=1) for i in range(4)]
        client.flush_batches()
        get_clock().sleep(1.0)  # fetched and running: 5 s of work each
        assert not any(f.done() for f in futures)
        others = [
            thread.name
            for thread in threading.enumerate()
            if thread not in before and not thread.name.startswith(f"{pool.name}-worker-")
        ]
        assert others == ["repro-reactor"]
        assert [f.result(timeout=60) for f in futures] == [1, 2, 3, 4]
    finally:
        client.close()
        endpoint.stop()


def test_an_idle_stack_polls_nothing(testbed, monkeypatch):
    """Ten idle nominal seconds: no fetch, no result download, and the
    reactor fires nothing but the endpoint's heartbeats."""
    fired: list[str] = []
    fire = Reactor._fire

    def recording_fire(reactor, timer):
        fired.append(timer.fn.__qualname__)
        return fire(reactor, timer)

    monkeypatch.setattr(Reactor, "_fire", recording_fire)
    cloud, endpoint, client = _stack(testbed)
    calls = {"fetch_tasks": 0, "download_round": 0}
    for name in calls:
        original = getattr(cloud, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cloud, name, counted)
    try:
        get_clock().sleep(10.0)
    finally:
        client.close()
        endpoint.stop()
    assert calls == {"fetch_tasks": 0, "download_round": 0}
    assert fired, "no heartbeat in ten seconds"
    assert all(name.startswith("FaasEndpoint._heartbeat_tick") for name in fired), fired


def test_a_pause_past_the_lease_pushes_nothing_and_resume_delivers(testbed):
    """A paused endpoint's listener is detached and its credit withdrawn,
    so however long the pause nothing is published to it: its
    subscription never lapses, and on resume the push delivers every task
    that waited in the cloud's queue.  The client's listener, attached and
    idle all along, never lapses either."""
    metrics = _metrics()
    cloud, endpoint, client = _stack(testbed)
    topic = task_topic(endpoint.endpoint_id)
    try:
        endpoint.pause()
        get_clock().sleep(testbed.constants.bus_lease_ttl + 1.0)
        with at_site(testbed.theta_login):
            futures = [client.run(_add, endpoint.endpoint_id, i, b=1) for i in range(3)]
        client.flush_batches()
        assert cloud.queue_depth(endpoint.endpoint_id) == 3
        endpoint.resume()
        assert [f.result(timeout=60) for f in futures] == [1, 2, 3]
        assert cloud.bus.is_active(topic, endpoint.endpoint_id)
        assert cloud.bus.is_active(result_topic(client.client_id), client.client_id)
    finally:
        client.close()
        endpoint.stop()
    assert metrics.counter_total("bus.resubscribes") == 0


def test_results_from_many_workers_are_all_uplinked(testbed):
    """Workers ring the uplink from more threads than cores while the
    reactor drains it, switching every 10 us: no result is stranded in
    the outbox behind a ring that saw a drain about to finish."""
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, testbed.constants)
    pool = WorkerPool(testbed.theta_compute, 8, name="ring-pool")
    endpoint = FaasEndpoint("theta", cloud, token, testbed.theta_login, pool).start()
    client = FaasClient(cloud, token, site=testbed.theta_login)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with at_site(testbed.theta_login):
            futures = [client.run(_add, endpoint.endpoint_id, i, b=0) for i in range(200)]
        assert [f.result(timeout=60) for f in futures] == list(range(200))
    finally:
        sys.setswitchinterval(switch)
        client.close()
        endpoint.stop()
    assert endpoint._outbox.empty() and not endpoint._uplinking
