"""The shard_outage fault mode, and how an outage ends.

A shard restarting at admission is a *control-plane* fault: the submit is
rejected with a retryable throttle, the client backs off, and once the
outage window lapses every endpoint is pushed the backlog the dark shard
held.  The cell must
satisfy the standard campaign invariants — no lost tasks, counters
reconciling with the injected-fault ledger — and produce bit-identical
ledger digests across reruns of the same seed.

The window ends on a reactor timer armed at its deadline, so the backlog a
dark shard holds moves with no later submit, fetch or heartbeat.
"""

from dataclasses import replace

import pytest
from conftest import Inbox, ManualClock, ManualReactor

from repro.chaos.campaign import FAULT_MODES, run_cell
from repro.faas import SCOPE_COMPUTE, AuthServer, FaasClient, FaasEndpoint
from repro.faas.cloud import task_topic
from repro.net.context import at_site
from repro.observe import MetricsRegistry, set_metrics
from repro.resources import WorkerPool
from repro.serialize import serialize
from repro.tenancy import CloudRouter


def _add(a, b):
    return a + b


def test_shard_outage_is_in_the_fault_matrix():
    assert "shard_outage" in FAULT_MODES


def test_shard_outage_no_lost_tasks_and_deterministic_ledger():
    first = run_cell("shard_outage", "faas-file", seed=0)
    rerun = run_cell("shard_outage", "faas-file", seed=0)
    assert first.passed, first.failures
    assert rerun.passed, rerun.failures
    assert first.fires >= 1
    # Every outage surfaced as a throttle the client absorbed: the shard
    # restart never engages the task-retry machinery and no task is lost.
    assert first.counters["cloud.shard_outages"] == first.fires
    assert first.counters["client.throttled"] >= first.fires
    assert first.counters["client.retries"] == 0
    assert first.digest == rerun.digest


def test_shard_outage_digest_varies_with_seed():
    a = run_cell("shard_outage", "faas-file", seed=0)
    b = run_cell("shard_outage", "faas-file", seed=7)
    assert a.passed and b.passed
    # Different seeds schedule different drop points; the ledger reflects
    # the actual fault history, not a constant.
    assert a.digest != b.digest


def test_a_dark_shards_backlog_is_rerung_when_its_window_ends(testbed, monkeypatch):
    """The window's own timer clears it and pushes the dark shard's queued
    backlog at its deadline, with no call into the router after the push
    the dark shard sat out."""
    clock = ManualClock()
    reactor = ManualReactor(clock)
    monkeypatch.setattr("repro.tenancy.router.get_reactor", lambda: reactor)
    monkeypatch.setattr("repro.bus.broker.get_reactor", lambda: reactor)
    metrics = MetricsRegistry()
    set_metrics(metrics)
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
    router = CloudRouter(
        testbed.faas_cloud, testbed.network, auth, testbed.constants, clock, n_shards=2
    )
    endpoint_id = router.register_endpoint(token, "theta", testbed.theta_compute)
    func_id = router.register_function(token, serialize(_add))
    task_id = router.submit(token, "c", func_id, endpoint_id, serialize(((1, 1), {})))
    shard_id = router._shard_for_task(task_id).shard_id
    start = clock.now()
    window = router._begin_outage(shard_id)
    router.grant_credit(token, endpoint_id, 32)  # an agent attaches: a push
    topic = task_topic(endpoint_id)
    assert router.bus.unacked(topic, endpoint_id) == []  # the shard is dark

    reactor.run()

    assert clock.now() == pytest.approx(start + window)
    assert metrics.counter_total("cloud.shard_recoveries") == 1
    assert len(router.bus.unacked(topic, endpoint_id)) == 1
    inbox = Inbox.on(router.bus.subscribe(topic, endpoint_id))
    reactor.run(until=clock.now())
    (envelope,) = inbox.take()
    assert [d.task_id for d in envelope.payload.dispatches] == [task_id]


def test_an_extended_window_is_cleared_only_by_its_own_timer(testbed, monkeypatch):
    """A second drop moves the deadline: the first timer leaves the window
    alone, and the backlog is pushed once, when the extended one ends."""
    clock = ManualClock()
    reactor = ManualReactor(clock)
    monkeypatch.setattr("repro.tenancy.router.get_reactor", lambda: reactor)
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
    router = CloudRouter(
        testbed.faas_cloud, testbed.network, auth, testbed.constants, clock
    )
    endpoint_id = router.register_endpoint(token, "theta", testbed.theta_compute)
    pushed = []
    monkeypatch.setattr(router, "_push", lambda e: pushed.append((clock.now(), e)))
    window = router._begin_outage("s0")
    clock.sleep(window / 2)
    router._begin_outage("s0")
    reactor.run()
    assert pushed == [(pytest.approx(1.5 * window), endpoint_id)]
    assert router._outages == {}


def test_a_dark_shards_task_completes_with_no_further_submit(testbed):
    """Threaded: the push at the endpoint's resume finds the task's shard
    dark and publishes nothing; the window's end pushes the task and it
    runs with nothing else submitted."""
    metrics = MetricsRegistry()
    set_metrics(metrics)
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
    # A window long enough that the resumed endpoint's push falls in it.
    constants = replace(testbed.constants, shard_outage_window=100.0)
    router = CloudRouter(
        testbed.faas_cloud, testbed.network, auth, constants, n_shards=2
    )
    pool = WorkerPool(testbed.theta_compute, 2, name="outage-pool")
    endpoint = FaasEndpoint("theta", router, token, testbed.theta_login, pool).start()
    client = FaasClient(router, token, site=testbed.theta_login)
    try:
        endpoint.pause()
        with at_site(testbed.theta_login):
            future = client.run(_add, endpoint.endpoint_id, 1, b=1)
        client.flush_batches()
        router._begin_outage(router._shard_for_task(future.task_id).shard_id)
        endpoint.resume()
        assert future.result(timeout=30) == 2
    finally:
        client.close()
        endpoint.stop()
    assert metrics.counter("bus.published", role="endpoint").value == 1  # at the end
    assert metrics.counter_total("cloud.shard_recoveries") == 1
