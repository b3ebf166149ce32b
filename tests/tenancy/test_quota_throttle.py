"""Quota exhaustion: retryable throttles, client backoff, eventual success."""

import pytest

from repro.chaos.policy import RetryPolicy
from repro.exceptions import TenantQuotaExceededError, ThrottledError
from repro.batch import get_reactor
from repro.batch.reactor import reset_reactor
from repro.faas import SCOPE_COMPUTE, AuthServer, FaasClient, FaasEndpoint
from repro.faas.cloud import TaskSubmission
from repro.net.clock import get_clock, reset_clock
from repro.net.context import at_site
from repro.net.defaults import PaperConstants, build_paper_testbed
from repro.net.topology import FixedLatency
from repro.observe import MetricsRegistry, set_metrics
from repro.resources import WorkerPool
from repro.serialize import serialize
from repro.tenancy import CloudRouter, TenantQuota, tenant_scope


def _double(x):
    return 2 * x


@pytest.fixture
def metrics():
    registry = MetricsRegistry()
    set_metrics(registry)
    yield registry
    set_metrics(None)


def _make_router(testbed, auth, **tenant_kwargs):
    router = CloudRouter(
        testbed.faas_cloud, testbed.network, auth, testbed.constants, n_shards=2
    )
    router.create_tenant("alice", **tenant_kwargs)
    return router


def test_rate_limited_client_backs_off_and_every_task_succeeds(testbed, metrics):
    auth = AuthServer()
    identity = auth.register_identity("u", "anl")
    # Tight bucket: one token per 5 nominal seconds, far below the storm's
    # submit rate, so throttles are guaranteed; the client absorbs them.
    router = _make_router(testbed, auth, rate=0.2, burst=1.0)
    token = auth.issue_token(identity, {SCOPE_COMPUTE, tenant_scope("alice")})
    pool = WorkerPool(testbed.theta_compute, 4, name="throttle-pool")
    endpoint = FaasEndpoint(
        "theta", router, auth.issue_token(identity, {SCOPE_COMPUTE}),
        testbed.theta_login, pool,
    ).start()
    client = FaasClient(router, token, site=testbed.theta_login, tenant="alice")
    try:
        with at_site(testbed.theta_login):
            futures = []
            for i in range(10):
                futures.append(client.run(_double, endpoint.endpoint_id, i))
                # One submit call (one rate token) per task: left to
                # coalesce, the ten would go out on one or two tokens.
                client.flush_batches()
        assert [f.result(timeout=120) for f in futures] == [2 * i for i in range(10)]
    finally:
        client.close()
        endpoint.stop()
    usage = router.registry.get("alice").usage
    assert usage.throttled >= 1, "the storm never hit the rate limit"
    assert metrics.counter_total("client.throttled") >= 1
    assert metrics.counter_total("cloud.throttled") >= 1
    # Throttle recovery must not engage the task-retry machinery.
    assert metrics.counter_total("client.retries") == 0
    assert metrics.counter_total("client.submit_retries") == 0


def test_in_flight_quota_exhaustion_is_retryable(testbed, metrics):
    auth = AuthServer()
    identity = auth.register_identity("u", "anl")
    router = _make_router(testbed, auth, quota=TenantQuota(max_in_flight=2))
    token = auth.issue_token(identity, {SCOPE_COMPUTE, tenant_scope("alice")})
    pool = WorkerPool(testbed.theta_compute, 2, name="quota-pool")
    endpoint = FaasEndpoint(
        "theta", router, auth.issue_token(identity, {SCOPE_COMPUTE}),
        testbed.theta_login, pool,
    ).start()
    client = FaasClient(router, token, site=testbed.theta_login, tenant="alice")
    try:
        with at_site(testbed.theta_login):
            # 8 tasks through a 2-in-flight quota, coalesced into one batch
            # of 8: the quota admits it two at a time, the rest retry behind
            # completions, and all of them succeed.
            futures = [
                client.run(_double, endpoint.endpoint_id, i) for i in range(8)
            ]
            assert client.flush_batches() == 8
        assert [f.result(timeout=120) for f in futures] == [2 * i for i in range(8)]
    finally:
        client.close()
        endpoint.stop()
    assert router.registry.get("alice").usage.throttled >= 1
    assert router.registry.get("alice").usage.in_flight == 0


def test_batch_larger_than_the_quota_is_admitted_piecewise(testbed, metrics):
    """All-or-nothing admission could never admit a coalesced batch larger
    than ``max_in_flight``: it was re-sent whole until the throttle budget
    ran out.  The prefix that fits gets in; only the rest is throttled."""
    auth = AuthServer()
    identity = auth.register_identity("u", "anl")
    router = _make_router(testbed, auth, quota=TenantQuota(max_in_flight=2))
    token = auth.issue_token(identity, {SCOPE_COMPUTE, tenant_scope("alice")})
    ep_id = router.register_endpoint(token, "theta", testbed.theta_compute)
    func_id = router.register_function(token, serialize(_double), tenant="alice")
    items = [
        TaskSubmission(func_id, ep_id, serialize(((i,), {}))) for i in range(8)
    ]
    outcomes = router.submit_batch(token, "client-1", items, tenant="alice")
    assert [isinstance(o, str) for o in outcomes] == [True] * 2 + [False] * 6
    assert all(isinstance(o, ThrottledError) for o in outcomes[2:])
    usage = router.registry.get("alice").usage
    assert (usage.in_flight, usage.submits, usage.throttled) == (2, 2, 1)
    assert metrics.counter_total("cloud.throttled") == 1
    # The throttled members, re-sent alone, are refused without a shard call.
    again = router.submit_batch(token, "client-1", items[2:], tenant="alice")
    assert all(isinstance(o, ThrottledError) for o in again)
    assert len(router.task_records()) == 2


def test_throttle_backoff_does_not_stall_the_reactor(metrics):
    """A deadline flush runs on the process reactor, which also carries
    every endpoint's heartbeat.  A client throttled for 5 nominal seconds
    must back off with reactor timers, not by sleeping there."""
    # 20 ms of wall per nominal second: host jitter of a few milliseconds
    # stays well under the bound asserted below.
    reset_reactor()
    reset_clock(0.02)
    constants = PaperConstants(
        cloud_latency=FixedLatency(0.028), faas_api_latency=FixedLatency(0.012)
    )
    api_round_trip = 2 * 0.028 + 0.012
    testbed = build_paper_testbed(seed=42, constants=constants)
    auth = AuthServer()
    identity = auth.register_identity("u", "anl")
    router = CloudRouter(
        testbed.faas_cloud, testbed.network, auth, constants, n_shards=2
    )
    router.create_tenant("alice", rate=0.2, burst=1.0)  # one token per 5 s
    token = auth.issue_token(identity, {SCOPE_COMPUTE, tenant_scope("alice")})
    pool = WorkerPool(testbed.theta_compute, 2, name="reactor-pool")
    endpoint = FaasEndpoint(
        "theta", router, auth.issue_token(identity, {SCOPE_COMPUTE}),
        testbed.theta_login, pool,
    ).start()
    client = FaasClient(router, token, site=testbed.theta_login, tenant="alice")
    clock = get_clock()
    period = 0.25
    lateness: list[float] = []
    due = [clock.now() + period]

    def beat():  # stands in for another endpoint's heartbeat timer
        lateness.append(clock.now() - due[0])
        due[0] = clock.now() + period

    timer = get_reactor().call_every(period, beat)
    try:
        with at_site(testbed.theta_login):
            first = client.run(_double, endpoint.endpoint_id, 1)
            assert first.result(timeout=120) == 2  # spends the only token
            started = clock.now()
            second = client.run(_double, endpoint.endpoint_id, 2)
        assert second.result(timeout=120) == 4
        throttled_for = clock.now() - started
    finally:
        timer.cancel()
        client.close()
        endpoint.stop()
    assert metrics.counter_total("client.throttled") >= 1
    assert throttled_for > 3.0, "the second submit was never throttled"
    # Each throttled attempt's own API round trip does run on the reactor
    # and may delay a beat by that much; a slept backoff (0.1 s doubling,
    # or the 5 s ``retry_after``) would make one beat seconds late.
    assert len(lateness) >= 10
    assert max(lateness) < api_round_trip + 0.5, sorted(lateness)[-3:]


def test_throttle_budget_exhaustion_surfaces_the_throttle(testbed):
    auth = AuthServer()
    identity = auth.register_identity("u", "anl")
    router = _make_router(testbed, auth, quota=TenantQuota(max_in_flight=0))
    token = auth.issue_token(identity, {SCOPE_COMPUTE, tenant_scope("alice")})
    pool = WorkerPool(testbed.theta_compute, 1, name="zero-pool")
    endpoint = FaasEndpoint(
        "theta", router, auth.issue_token(identity, {SCOPE_COMPUTE}),
        testbed.theta_login, pool,
    ).start()
    # A zero quota never opens up: once the (small) throttle budget is
    # spent the ThrottledError reaches the caller, through the future.
    client = FaasClient(
        router,
        token,
        site=testbed.theta_login,
        tenant="alice",
        throttle_policy=RetryPolicy(max_attempts=2, base_delay=0.05, max_delay=0.1),
    )
    try:
        with at_site(testbed.theta_login):
            future = client.run(_double, endpoint.endpoint_id, 1)
        with pytest.raises(ThrottledError):
            future.result(timeout=60)
        assert future.task_id is None  # never admitted
    finally:
        client.close()
        endpoint.stop()


def test_function_quota_exhaustion_raises_immediately(testbed):
    auth = AuthServer()
    identity = auth.register_identity("u", "anl")
    router = _make_router(testbed, auth, quota=TenantQuota(max_functions=1))
    token = auth.issue_token(identity, {SCOPE_COMPUTE, tenant_scope("alice")})
    with at_site(testbed.theta_login):
        router.register_function(token, serialize(_double), tenant="alice")
        with pytest.raises(TenantQuotaExceededError):
            router.register_function(token, serialize(_double), tenant="alice")
