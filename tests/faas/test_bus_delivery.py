"""Bus-driven task/result delivery, the poll fallback, and client shutdown.

Covers the event-driven wiring of :mod:`repro.bus` into the FaaS fabric:
doorbell-driven fetches (no idle polling), pause/resume interaction with
subscriptions, and the
executor/client shutdown semantics for still-pending futures.
"""

from dataclasses import replace

import pytest

from repro.exceptions import WorkflowError
from repro.faas import (
    SCOPE_COMPUTE,
    AuthServer,
    FaasClient,
    FaasCloud,
    FaasEndpoint,
    FaasExecutor,
)
from repro.batch.reactor import get_reactor
from repro.faas.cloud import task_topic
from repro.net.clock import get_clock
from repro.net.context import at_site
from repro.observe import MetricsRegistry, set_metrics
from repro.resources import WorkerPool


def _add(a, b):
    return a + b


@pytest.fixture
def metrics():
    registry = MetricsRegistry()
    set_metrics(registry)
    return registry


def _rig(testbed):
    auth = AuthServer()
    identity = auth.register_identity("u", "anl")
    token = auth.issue_token(identity, {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, testbed.constants)
    pool = WorkerPool(testbed.theta_compute, 3, name="bus-pool")
    endpoint = FaasEndpoint("theta", cloud, token, testbed.theta_login, pool).start()
    client = FaasClient(cloud, token, site=testbed.theta_login)
    return cloud, endpoint, client


def test_bus_delivery_completes_tasks_without_idle_polls(testbed, metrics):
    cloud, endpoint, client = _rig(testbed)
    try:
        with at_site(testbed.theta_login):
            futures = [
                client.run(_add, endpoint.endpoint_id, i, b=1) for i in range(4)
            ]
        assert [f.result(timeout=60) for f in futures] == [1, 2, 3, 4]
    finally:
        client.close()
        endpoint.stop()
    # Every fetch was doorbell-driven and pulled what its doorbell
    # announced, so none came back empty; results arrived as bus
    # notifications, not poll hits.
    assert metrics.counter_total("endpoint.doorbell_fetches_empty") == 0
    assert metrics.counter_total("endpoint.polls") >= 1
    # Coalesced submits share a task doorbell and drained uplinks a result
    # doorbell: at least one of each, at most one per task.
    assert 2 <= metrics.counter_total("bus.delivered") <= 8
    assert metrics.counter_total("bus.fallback_engaged") == 0


def test_pause_resume_replays_unacked_doorbells(testbed, metrics):
    """Satellite: doorbells published while the endpoint is paused stay in
    its unacked window and are replayed on resume — no task event is lost."""
    cloud, endpoint, client = _rig(testbed)
    try:
        endpoint.pause()
        with at_site(testbed.theta_login):
            futures = []
            for i in range(3):
                futures.append(client.run(_add, endpoint.endpoint_id, i, b=1))
                client.flush_batches()  # one submit call, one doorbell, each
        get_clock().sleep(1.0)
        assert not any(f.done() for f in futures)
        # The doorbells are parked, unacked, in the endpoint's window.
        assert len(cloud.bus.unacked(task_topic(endpoint.endpoint_id), endpoint.endpoint_id)) == 3
        endpoint.resume()
        assert [f.result(timeout=60) for f in futures] == [1, 2, 3]
    finally:
        client.close()
        endpoint.stop()


def test_resume_with_reclaim_requeues_and_replays(testbed, metrics):
    """Satellite: ``resume(reclaim=True)`` republishes doorbells for
    requeued work and must not skip them as stale."""
    cloud, endpoint, client = _rig(testbed)
    try:
        with at_site(testbed.theta_login):
            warm = client.run(_add, endpoint.endpoint_id, 1, b=1)
        assert warm.result(timeout=60) == 2  # endpoint has fetched before
        endpoint.pause()
        with at_site(testbed.theta_login):
            futures = [
                client.run(_add, endpoint.endpoint_id, i, b=10) for i in range(3)
            ]
        get_clock().sleep(1.0)
        endpoint.resume(reclaim=True)
        assert [f.result(timeout=60) for f in futures] == [10, 11, 12]
    finally:
        client.close()
        endpoint.stop()
    # Nothing left pending at the bus for this endpoint once all work is done.
    assert cloud.bus.unacked(task_topic(endpoint.endpoint_id), endpoint.endpoint_id) == []


def test_trimmed_doorbell_backlog_is_drained_and_acks_recover(testbed, metrics):
    """A backlog deeper than the redelivery window trims doorbells for good.
    The poll fallback must drain the queue to empty before handing back to
    the bus (no task stranded without a wakeup), and the ack frontier must
    cross the trimmed gap instead of wedging into perpetual redelivery."""
    auth = AuthServer()
    identity = auth.register_identity("u", "anl")
    token = auth.issue_token(identity, {SCOPE_COMPUTE})
    constants = replace(testbed.constants, bus_redelivery_window=4)
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, constants)
    pool = WorkerPool(testbed.theta_compute, 3, name="trim-pool")
    endpoint = FaasEndpoint(
        "theta", cloud, token, testbed.theta_login, pool, max_tasks_per_poll=2
    ).start()
    client = FaasClient(cloud, token, site=testbed.theta_login)
    topic = task_topic(endpoint.endpoint_id)
    try:
        endpoint.pause()
        with at_site(testbed.theta_login):
            futures = []
            for i in range(8):
                futures.append(client.run(_add, endpoint.endpoint_id, i, b=1))
                client.flush_batches()  # one doorbell per task
        get_clock().sleep(1.0)
        # More doorbells than the window fit: the oldest were trimmed and
        # the subscription force-lapsed.
        assert metrics.counter_total("bus.window_trimmed") >= 4
        endpoint.resume()
        assert [f.result(timeout=120) for f in futures] == list(range(1, 9))
        # Replayed doorbells must all get acked (the frontier crossed the
        # trimmed gap) within a bounded nominal window — a wedged frontier
        # would redeliver the surviving envelopes forever.
        clock = get_clock()
        deadline = clock.now() + 30.0
        while cloud.bus.unacked(topic, endpoint.endpoint_id) and clock.now() < deadline:
            clock.sleep(0.5)
        assert cloud.bus.unacked(topic, endpoint.endpoint_id) == []
    finally:
        client.close()
        endpoint.stop()
    assert metrics.counter_total("bus.fallback_engaged") >= 1


def test_executor_shutdown_cancels_pending_futures(testbed, metrics):
    """Satellite: ``shutdown(cancel_futures=True)`` actually cancels pending
    futures and forgets them at the client."""
    cloud, endpoint, client = _rig(testbed)
    executor = FaasExecutor(client, endpoint.endpoint_id)
    try:
        endpoint.pause()  # tasks park at the cloud; futures stay pending
        with at_site(testbed.theta_login):
            futures = [executor.submit(_add, i, b=1) for i in range(3)]
        executor.shutdown(cancel_futures=True)
        assert all(f.cancelled() for f in futures)
        # The client forgot them: a second sweep finds nothing to cancel.
        assert client.cancel_pending(endpoint.endpoint_id) == 0
        assert metrics.counter_total("client.cancelled") == 3
    finally:
        client.close()
        endpoint.stop()


def test_client_close_fails_in_flight_futures(testbed, metrics):
    """Satellite: ``close()`` fails still-pending futures instead of
    abandoning them to hang forever."""
    cloud, endpoint, client = _rig(testbed)
    endpoint.pause()
    with at_site(testbed.theta_login):
        future = client.run(_add, endpoint.endpoint_id, 1, b=1)
    client.close()
    with pytest.raises(WorkflowError, match="client closed"):
        future.result(timeout=1)
    assert metrics.counter_total("client.abandoned") == 1
    endpoint.stop()


def test_a_replay_of_drained_work_is_acked_without_a_fetch(testbed, metrics):
    """A fallback drain pulls work whose doorbells are still unacked; they
    are replayed on the resubscribe, which may come after that work was
    run and reported.  Each replayed doorbell is stale and acked as such:
    no fetch comes back empty for work the drain already caught."""
    cloud, endpoint, client = _rig(testbed)
    topic = task_topic(endpoint.endpoint_id)
    resubscribes = []
    resubscribe = endpoint._consumer.resubscribe
    endpoint._consumer.resubscribe = lambda: resubscribes.append(resubscribe)
    clock = get_clock()
    try:
        endpoint.pause()
        clock.sleep(testbed.constants.bus_lease_ttl + 1.0)
        with at_site(testbed.theta_login):
            futures = []
            for i in range(3):
                futures.append(client.run(_add, endpoint.endpoint_id, i, b=1))
                client.flush_batches()  # one doorbell per task
        endpoint.resume()  # the subscription lapsed meanwhile: a drain
        assert [f.result(timeout=60) for f in futures] == [1, 2, 3]
        deadline = clock.now() + 30.0
        while not resubscribes and clock.now() < deadline:
            clock.sleep(0.1)
        assert resubscribes, "the drain never handed back to the bus"
        # Every drained task is reported by now; the replay comes after.
        get_reactor().call_later(0.0, resubscribes[0])
        deadline = clock.now() + 30.0
        while cloud.bus.unacked(topic, endpoint.endpoint_id) and clock.now() < deadline:
            clock.sleep(0.1)
        assert cloud.bus.unacked(topic, endpoint.endpoint_id) == []
    finally:
        client.close()
        endpoint.stop()
    assert metrics.counter_total("endpoint.fallback_polls") >= 1
    assert metrics.counter_total("endpoint.doorbells_stale") == 3
    assert metrics.counter_total("endpoint.doorbell_fetches_empty") == 0


def test_a_late_doorbell_for_work_pulled_ahead_is_acked_without_a_fetch(
    testbed, metrics
):
    """A fetch serving one doorbell can pull work whose own doorbell has
    not come yet; that doorbell may arrive after the work was run and
    reported.  It is stale and acked as such: no fetch comes back empty for
    work a fetch already caught."""
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
    # The subscription outlives the pause: doorbells only, no drain.
    constants = replace(testbed.constants, bus_lease_ttl=1e9)
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, constants)
    pool = WorkerPool(testbed.theta_compute, 3, name="ahead-pool")
    endpoint = FaasEndpoint("theta", cloud, token, testbed.theta_login, pool)
    held, deliver = [], endpoint._on_doorbells

    def holding_back_the_second(envelopes):
        held.extend(envelope for envelope in envelopes if envelope.seq == 2)
        if rest := [envelope for envelope in envelopes if envelope.seq != 2]:
            deliver(rest)

    endpoint._on_doorbells = holding_back_the_second
    endpoint.start()
    client = FaasClient(cloud, token, site=testbed.theta_login)
    topic = task_topic(endpoint.endpoint_id)
    clock = get_clock()
    try:
        endpoint.pause()
        with at_site(testbed.theta_login):
            futures = []
            for i in range(2):
                futures.append(client.run(_add, endpoint.endpoint_id, i, b=1))
                client.flush_batches()  # one doorbell per task
        endpoint.resume()  # the first doorbell's fetch pulls both tasks
        assert [f.result(timeout=60) for f in futures] == [1, 2]
        assert held, "the second doorbell was never delivered"
        get_reactor().call_later(0.0, lambda: deliver(held[:1]))  # after the report
        deadline = clock.now() + 30.0
        while cloud.bus.unacked(topic, endpoint.endpoint_id) and clock.now() < deadline:
            clock.sleep(0.1)
        assert cloud.bus.unacked(topic, endpoint.endpoint_id) == []
    finally:
        client.close()
        endpoint.stop()
    assert metrics.counter_total("endpoint.fallback_polls") == 0
    assert metrics.counter_total("endpoint.doorbells_stale") == 1
    assert metrics.counter_total("endpoint.doorbell_fetches_empty") == 0
