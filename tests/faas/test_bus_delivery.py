"""Bus-driven task/result delivery and client shutdown.

Covers the event-driven wiring of :mod:`repro.bus` into the FaaS fabric:
tasks pushed down the endpoint's subscription as credit allows (no idle
polling), pause/resume interaction with subscriptions, the client's
result topic as the one record of its uncollected completions (across a
lapse, and across a kill), and the executor/client shutdown semantics for
still-pending futures.
"""

from collections import Counter

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
from repro.chaos.plan import FaultInjector, FaultPlan, FaultSpec, set_injector
from repro.faas.cloud import result_topic, task_topic
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
    fetches = []
    fetch_tasks = cloud.fetch_tasks
    cloud.fetch_tasks = lambda *args: fetches.append(args) or fetch_tasks(*args)
    try:
        with at_site(testbed.theta_login):
            futures = [
                client.run(_add, endpoint.endpoint_id, i, b=1) for i in range(4)
            ]
        assert [f.result(timeout=60) for f in futures] == [1, 2, 3, 4]
    finally:
        client.close()
        endpoint.stop()
    # Tasks were pushed as they landed: every dequeue is one a push ran for
    # work waiting in the queue, at most one per task, and each carried
    # tasks; results arrived as bus notifications, not poll hits.
    assert 1 <= len(fetches) <= 4
    assert 1 <= metrics.counter("bus.published", role="endpoint").value <= len(fetches)
    assert metrics.counter_total("faas.push_errors") == 0
    # Coalesced submits share a push and drained uplinks a result doorbell:
    # at least one of each, at most one per task.
    assert 2 <= metrics.counter_total("bus.delivered") <= 8
    assert metrics.counter_total("bus.resubscribes") == 0


def test_a_paused_endpoint_is_pushed_nothing_until_it_resumes(testbed, metrics):
    """Tasks submitted while the endpoint is paused wait in the cloud's
    queue: a dropped connection withdraws the credit, so nothing is leased
    or published to it, and resume pushes them all — no task is lost."""
    cloud, endpoint, client = _rig(testbed)
    try:
        endpoint.pause()
        with at_site(testbed.theta_login):
            futures = []
            for i in range(3):
                futures.append(client.run(_add, endpoint.endpoint_id, i, b=1))
                client.flush_batches()  # one submit call each
        get_clock().sleep(1.0)
        assert not any(f.done() for f in futures)
        assert cloud.queue_depth(endpoint.endpoint_id) == 3
        assert cloud.bus.unacked(task_topic(endpoint.endpoint_id), endpoint.endpoint_id) == []
        endpoint.resume()
        assert [f.result(timeout=60) for f in futures] == [1, 2, 3]
    finally:
        client.close()
        endpoint.stop()


def test_resume_with_reclaim_requeues_and_replays(testbed, metrics):
    """``resume(reclaim=True)`` takes back what was pushed and pushes the
    requeued work again; every task completes."""
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


def test_a_backlog_deeper_than_the_bus_window_is_never_trimmed(testbed, metrics):
    """A backlog four times the credit window, queued while paused, waits in
    the cloud's queue and reaches the endpoint a credit window at a time:
    nothing lapses, and every push is acked."""
    auth = AuthServer()
    identity = auth.register_identity("u", "anl")
    token = auth.issue_token(identity, {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, testbed.constants)
    pool = WorkerPool(testbed.theta_compute, 3, name="trim-pool")
    endpoint = FaasEndpoint(
        "theta", cloud, token, testbed.theta_login, pool, credit_window=2
    ).start()
    client = FaasClient(cloud, token, site=testbed.theta_login)
    topic = task_topic(endpoint.endpoint_id)
    try:
        endpoint.pause()
        with at_site(testbed.theta_login):
            futures = []
            for i in range(8):
                futures.append(client.run(_add, endpoint.endpoint_id, i, b=1))
                client.flush_batches()  # one submit call per task
        get_clock().sleep(1.0)
        assert cloud.queue_depth(endpoint.endpoint_id) == 8
        endpoint.resume()
        assert [f.result(timeout=120) for f in futures] == list(range(1, 9))
        assert cloud.bus.unacked(topic, endpoint.endpoint_id) == []
    finally:
        client.close()
        endpoint.stop()
    assert metrics.counter_total("bus.subscription_drops") == 0
    assert metrics.counter_total("bus.resubscribes") == 0
    rounds = [
        size
        for name, _labels, hist in metrics.histograms()
        if name == "endpoint.push_size"
        for size in hist.values()
    ]
    assert sum(rounds) == 8 and max(rounds) <= 2  # never beyond the credit


def _wait_terminal(cloud, futures, timeout=120.0):
    """Sleep until the cloud holds a terminal record for every future."""
    clock = get_clock()
    deadline = clock.now() + timeout
    while not all(cloud.task(f.task_id).status.terminal for f in futures):
        assert clock.now() < deadline, "tasks never finished"
        clock.sleep(0.1)


def _counting_downloads(cloud):
    """Count each task id the cloud is asked to download."""
    downloads = Counter()
    download_round = cloud.download_round
    cloud.download_round = lambda token, ids: (
        downloads.update(ids) or download_round(token, ids)
    )
    return downloads


def test_each_completion_is_planned_once_after_a_lapse(testbed, metrics):
    """Completions wait on the result topic of a client whose listener is
    detached, and the first doorbell drops its subscription.  Reattached,
    the client learns of the lapse and resubscribes; the replayed
    doorbells are its one record of the completions, so every future
    resolves once, each id is downloaded once, and no id is parked as an
    early arrival."""
    set_injector(
        FaultInjector(
            FaultPlan.build(
                0,
                [
                    FaultSpec(
                        "bus.subscription.drop",
                        "subscription_drop",
                        match={"role": "client"},
                        max_fires=1,
                    ),
                ],
            )
        )
    )
    cloud, endpoint, client = _rig(testbed)
    downloads = _counting_downloads(cloud)
    topic = result_topic(client.client_id)
    resolved = []
    try:
        client._consumer.detach()
        with at_site(testbed.theta_login):
            futures = [client.run(_add, endpoint.endpoint_id, i, b=1) for i in range(8)]
        client.flush_batches()
        for future in futures:
            future.add_done_callback(resolved.append)
        _wait_terminal(cloud, futures)
        assert not cloud.bus.is_active(topic, client.client_id)
        client._consumer.attach(client._on_results, client._on_lapse)
        assert [f.result(timeout=60) for f in futures] == list(range(1, 9))
    finally:
        client.close()
        endpoint.stop()
    assert sorted(resolved, key=futures.index) == futures  # each once
    assert downloads == Counter(f.task_id for f in futures)
    assert client._early == {}
    assert metrics.counter_total("bus.resubscribes") == 1
    assert metrics.counter_total("client.notify_errors") == 0


def test_a_killed_client_catches_up_on_a_deep_backlog(testbed, metrics):
    """A client is killed with 300 tasks in flight, each of which rings its
    own doorbell (no uplink batching) while nobody listens: more than the
    256 envelopes a subscriber's window used to be trimmed to.  A
    successor with the same client id resolves every one exactly once, and
    no subscription is dropped for overflow."""
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, testbed.constants)
    pool = WorkerPool(testbed.theta_compute, 4, name="backlog-pool")
    endpoint = FaasEndpoint(
        "theta", cloud, token, testbed.theta_login, pool, uplink_batching=False
    ).start()
    client = FaasClient(cloud, token, site=testbed.theta_login)
    downloads = _counting_downloads(cloud)
    successor = None
    try:
        endpoint.pause()  # every completion lands after the kill
        with at_site(testbed.theta_login):
            orphans = [client.run(_add, endpoint.endpoint_id, i, b=1) for i in range(300)]
        client.flush_batches()
        client.kill()
        endpoint.resume()
        _wait_terminal(cloud, orphans)
        topic = result_topic(client.client_id)
        assert len(cloud.bus.unacked(topic, client.client_id)) == 300
        successor = FaasClient(
            cloud, token, site=testbed.theta_login, client_id=client.client_id
        )
        resolved = []
        futures = []
        for orphan in orphans:
            future = successor.attach(orphan.task_id, endpoint_id=endpoint.endpoint_id)
            future.add_done_callback(resolved.append)
            futures.append(future)
        assert [f.result(timeout=60) for f in futures] == list(range(1, 301))
    finally:
        if successor is not None:
            successor.close()
        endpoint.stop()
    assert sorted(resolved, key=futures.index) == futures  # each once
    assert downloads == Counter(f.task_id for f in futures)
    assert metrics.counter("bus.subscription_drops", role="client", reason="overflow").value == 0
    assert cloud.bus.unacked(topic, client.client_id) == []


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


def _counting_fetches(cloud):
    """Record each lease the cloud takes for a push."""
    fetches = []
    fetch_tasks = cloud.fetch_tasks
    cloud.fetch_tasks = lambda *args: fetches.append(args) or fetch_tasks(*args)
    return fetches


def test_a_replay_of_drained_work_is_acked_without_a_fetch(testbed, metrics):
    """The endpoint's subscription is dropped once while work is pushed,
    and once every task is run and reported it resubscribes again,
    replaying from its last ack.  Each replayed push is dropped by the
    sequence dedup and acked: the replay leases nothing, and each task
    runs once and is reported once."""
    set_injector(
        FaultInjector(
            FaultPlan.build(
                0,
                [
                    FaultSpec(
                        "bus.subscription.drop",
                        "subscription_drop",
                        match={"role": "endpoint"},
                        max_fires=1,
                    ),
                ],
            )
        )
    )
    cloud, endpoint, client = _rig(testbed)
    fetches = _counting_fetches(cloud)
    topic = task_topic(endpoint.endpoint_id)
    clock = get_clock()
    try:
        with at_site(testbed.theta_login):
            futures = []
            for i in range(3):
                futures.append(client.run(_add, endpoint.endpoint_id, i, b=1))
                client.flush_batches()  # one push per task
        assert [f.result(timeout=60) for f in futures] == [1, 2, 3]
        leased = len(fetches)
        get_reactor().call_later(0.0, endpoint._consumer.resubscribe)  # a replay
        deadline = clock.now() + 30.0
        while metrics.counter_total("bus.resubscribes") < 2 and clock.now() < deadline:
            clock.sleep(0.1)
        clock.sleep(1.0)
        assert cloud.bus.unacked(topic, endpoint.endpoint_id) == []
        assert len(fetches) == leased
    finally:
        client.close()
        endpoint.stop()
        set_injector(None)
    assert metrics.counter_total("bus.resubscribes") == 2
    assert metrics.counter_total("endpoint.executions") == 3
    assert metrics.counter_total("faas.duplicate_results") == 0


def test_a_late_doorbell_for_work_pulled_ahead_is_acked_without_a_fetch(
    testbed, metrics
):
    """Every first delivery of a push arrives twice, and one more copy of a
    push reaches the endpoint late: after the tasks it carried were run and
    reported.  The sequence dedup drops every copy, so the late one leases
    nothing, no task runs twice, and nothing is left unacked."""
    set_injector(
        FaultInjector(
            FaultPlan.build(
                0,
                [
                    FaultSpec(
                        "bus.duplicate",
                        "notification_duplicate",
                        rate=1.0,
                        match={"role": "endpoint", "attempt": 0},
                    ),
                ],
            )
        )
    )
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, testbed.constants)
    fetches = _counting_fetches(cloud)
    pool = WorkerPool(testbed.theta_compute, 3, name="late-pool")
    endpoint = FaasEndpoint("theta", cloud, token, testbed.theta_login, pool)
    # Keep a copy of what the bus delivers, and the consumer's delivery
    # path (dedup included) to hand a copy to again later.
    subscription, held, deliveries = endpoint._consumer._sub, [], []
    attach = subscription.attach

    def attach_keeping_copies(deliver, on_lapse, max_n):
        def keeping_copies(envelopes):
            held.extend(envelopes)
            deliver(envelopes)

        deliveries.append(deliver)
        attach(keeping_copies, on_lapse, max_n)

    subscription.attach = attach_keeping_copies
    endpoint.start()
    client = FaasClient(cloud, token, site=testbed.theta_login)
    topic = task_topic(endpoint.endpoint_id)
    clock = get_clock()
    try:
        with at_site(testbed.theta_login):
            futures = []
            for i in range(2):
                futures.append(client.run(_add, endpoint.endpoint_id, i, b=1))
                client.flush_batches()  # one push per task
        assert [f.result(timeout=60) for f in futures] == [1, 2]
        assert held, "no push was ever delivered"
        leased, dropped = len(fetches), metrics.counter_total("bus.duplicates_dropped")
        get_reactor().call_later(0.0, lambda: deliveries[-1](held[:1]))  # after the report
        deadline = clock.now() + 30.0
        while (
            metrics.counter_total("bus.duplicates_dropped") == dropped
            and clock.now() < deadline
        ):
            clock.sleep(0.1)
        clock.sleep(1.0)
        assert metrics.counter_total("bus.duplicates_dropped") == dropped + 1
        assert cloud.bus.unacked(topic, endpoint.endpoint_id) == []
        assert len(fetches) == leased
    finally:
        client.close()
        endpoint.stop()
        set_injector(None)
    assert dropped >= 2
    assert metrics.counter_total("endpoint.executions") == 2
    assert metrics.counter_total("faas.duplicate_results") == 0
