"""Store hops follow the round: the ElastiCache/S3 ops of one batched call
are pipelined, so the round waits once per tier while every member keeps its
own latency draw, counter and fault hook -- and lands on its own: a fetched
member reaches the pool when its own read lands, and a round in flight holds
no thread.  Plus the guards on the stack a user gets by default: a lone task
still pays the paper's redis tier, and back-to-back submits coalesce into
one call.

Charges are read off the recording clock (sleeps, and the reactor timers
charges became), so every comparison is between modelled numbers, not
elapsed time.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
import threading
from dataclasses import replace

import pytest
from conftest import ManualClock, ManualReactor, record_downloads

from repro.batch import BatchPolicy, get_reactor
from repro.batch.reactor import reset_reactor
from repro.chaos.plan import FaultInjector, FaultPlan, FaultSpec, set_injector
from repro.chaos.policy import RetryPolicy
from repro.exceptions import ShardUnavailableError, WorkflowError
from repro.faas import (
    SCOPE_COMPUTE,
    AuthServer,
    FaasClient,
    FaasCloud,
    FaasEndpoint,
)
from repro.faas.cloud import TaskSubmission
from repro.net.clock import get_clock, reset_clock
from repro.net.context import at_site
from repro.net.defaults import PaperConstants, build_paper_testbed
from repro.net.topology import FixedLatency, LatencyModel
from repro.observe import MetricsRegistry, set_metrics
from repro.resources import WorkerPool
from repro.serialize import Blob, deserialize_cost, serialize, serialize_cost
from repro.tenancy import CloudRouter, tenant_scope

WAN = 0.028
API = 0.012
REDIS = 0.25
S3 = 0.8
FIXED = PaperConstants(
    cloud_latency=FixedLatency(WAN),
    faas_api_latency=FixedLatency(API),
    faas_redis_latency=FixedLatency(REDIS),
    faas_s3_latency=FixedLatency(S3),
    intra_facility_latency=FixedLatency(0.0002),
    # Neither is under test, and a renewal would charge the reactor thread.
    endpoint_lease_ttl=600.0,
    endpoint_heartbeat_period=300.0,
)
TINY = serialize("tiny")  # under 4 kB: rides the message
SMALL = 10_000  # 4 kB..20 kB: the redis tier
LARGE = 1_000_000  # over 20 kB: the S3 tier


def _cloud(clock, constants=FIXED, seed=5):
    testbed = build_paper_testbed(seed=seed, constants=constants)
    return FaasCloud(testbed.faas_cloud, testbed.network, AuthServer(), constants, clock)


def _blob(nbytes, tag=""):
    return serialize(Blob(nbytes, tag=tag))


def _tier_count(metrics, name, tier):
    return sum(
        counter.value
        for counter_name, labels, counter in metrics.counters()
        if counter_name == name and labels.get("tier") == tier
    )


@pytest.fixture
def metrics():
    registry = MetricsRegistry()
    set_metrics(registry)
    return registry


# -- a round of one is the lone op -------------------------------------------------
def test_round_of_one_charges_what_a_lone_op_always_has(recording_clock, metrics):
    store = _cloud(recording_clock).store
    small, large = _blob(SMALL), _blob(LARGE)
    s3_op = S3 + large.nominal_size / FIXED.faas_s3_bandwidth
    for payload, tier, charge in (
        (TINY, "inline", []),
        (small, "redis", [REDIS]),
        (large, "s3", [s3_op]),
    ):
        del recording_clock.charges[:]
        locator = store.write(payload)
        assert locator.startswith(f"{tier}:")
        assert recording_clock.charged() == charge
        del recording_clock.charges[:]
        assert store.read(locator) is payload
        assert recording_clock.charged() == charge
        assert _tier_count(metrics, "faas.store_writes", tier) == 1
        assert _tier_count(metrics, "faas.store_reads", tier) == 1


# -- a round sleeps once per tier --------------------------------------------------
def _lone_and_round(clock, payloads):
    """The charges of ``payloads`` written one by one, and written as one
    round, on two clouds whose (sampled) latency streams are seeded alike."""
    lone = _cloud(clock, PaperConstants(), seed=11).store
    del clock.charges[:]
    for payload in payloads:
        lone.write(payload)
    one_by_one = clock.charged()
    together = _cloud(clock, PaperConstants(), seed=11).store
    writes = together.write_round([(payload, False) for payload in payloads])
    return one_by_one, writes.charges, together, writes.wait(clock)


def _landings(round_):
    """Per member ``(offset, outcome)`` of a settled round."""
    return list(zip(round_.offsets(), round_.answer))


def test_redis_round_sleeps_once_for_its_slowest_draw(recording_clock, metrics):
    payloads = [_blob(SMALL, tag=str(i)) for i in range(3)]
    draws, written, store, locators = _lone_and_round(recording_clock, payloads)
    assert len(set(draws)) == 3  # sampled, not fixed: each member drew its own
    assert written == [max(draws)]
    assert _tier_count(metrics, "faas.store_writes", "redis") == 6  # 3 lone + 3

    reads = store.read_round(locators)
    assert reads.wait(recording_clock) == payloads
    (read,) = reads.charges
    assert 0 < read <= PaperConstants().faas_redis_latency.cap
    assert _tier_count(metrics, "faas.store_reads", "redis") == 3


def test_s3_round_sleeps_once_plus_the_summed_bytes(recording_clock, metrics):
    payloads = [_blob(LARGE + 1000 * i, tag=str(i)) for i in range(3)]
    lone, written, _store, locators = _lone_and_round(recording_clock, payloads)
    bandwidth = PaperConstants().faas_s3_bandwidth
    sizes = [payload.nominal_size for payload in payloads]
    draws = [charge - size / bandwidth for charge, size in zip(lone, sizes)]
    assert written == [pytest.approx(max(draws) + sum(sizes) / bandwidth)]
    assert all(locator.startswith("s3:") for locator in locators)
    assert _tier_count(metrics, "faas.store_writes", "s3") == 6


def test_mixed_round_sleeps_once_per_tier(recording_clock):
    store = _cloud(recording_clock).store
    members = [_blob(SMALL, "a"), _blob(LARGE, "b"), TINY, _blob(SMALL, "c")]
    writes = store.write_round([(payload, False) for payload in members])
    locators = writes.wait(recording_clock)
    s3_op = S3 + members[1].nominal_size / FIXED.faas_s3_bandwidth
    assert writes.charges == [REDIS, s3_op]
    assert [loc.split(":")[0] for loc in locators] == ["redis", "s3", "inline", "redis"]


# -- failure stays per member --------------------------------------------------------
def test_store_fault_in_a_round_fires_once_and_fails_only_its_member(recording_clock):
    store = _cloud(recording_clock).store
    payloads = [_blob(SMALL, tag=str(i)) for i in range(3)]
    locators = store.write_round([(payload, False) for payload in payloads]).wait(
        recording_clock
    )
    injector = FaultInjector(
        FaultPlan.build(0, [FaultSpec("cloud.store.read", "store_corrupt", max_fires=1)])
    )
    set_injector(injector)
    del recording_clock.charges[:]
    outcomes = store.read_round(locators + ["redis:ghost"]).wait(recording_clock)

    assert injector.fire_count(hook="cloud.store.read") == 1
    failed = [i for i, outcome in enumerate(outcomes[:3]) if isinstance(outcome, Exception)]
    assert len(failed) == 1
    assert isinstance(outcomes[failed[0]], WorkflowError)
    assert [o for o in outcomes[:3] if not isinstance(o, Exception)] == [
        p for i, p in enumerate(payloads) if i != failed[0]
    ]
    # The unknown locator fails alone too, and is never charged for.
    assert isinstance(outcomes[3], WorkflowError)
    assert recording_clock.charged() == [REDIS]


# -- members land on their own ---------------------------------------------------------
def test_a_member_alone_lands_when_a_lone_op_does(recording_clock):
    store = _cloud(recording_clock).store
    small, large = _blob(SMALL), _blob(LARGE)
    s3_op = S3 + large.nominal_size / FIXED.faas_s3_bandwidth
    for payload, landing in ((TINY, 0.0), (small, REDIS), (large, s3_op)):
        locator = store.write(payload)
        recording_clock.clear()
        assert _landings(store.read_round([locator])) == [(landing, payload)]
        assert recording_clock.charged() == []  # nobody waited for it


def test_redis_round_members_land_at_their_own_draws(recording_clock):
    """Three sampled draws: read one by one, read as one barrier round, and
    read as landings, on three stores seeded alike.  Each member lands at
    exactly its lone draw; the slowest lands when the barrier round ends;
    and the latency stream goes on alike whichever way the ops were
    grouped."""
    payloads = [_blob(SMALL, tag=str(i)) for i in range(3)]
    locators = [f"redis:{i}" for i in range(3)]
    lone, barrier, landings = (
        _cloud(recording_clock, PaperConstants(), seed=11).store for _ in range(3)
    )
    for store in (lone, barrier, landings):
        for locator, payload in zip(locators, payloads):
            store.adopt(locator, payload)  # no draw: the streams stay aligned
    recording_clock.clear()
    for locator in locators:
        lone.read(locator)
    draws = recording_clock.charged()
    assert len(set(draws)) == 3

    reads = barrier.read_round(locators)
    assert reads.wait(recording_clock) == payloads
    assert reads.charges == [max(draws)]
    recording_clock.clear()
    assert _landings(landings.read_round(locators)) == list(zip(draws, payloads))
    assert recording_clock.charged() == []

    recording_clock.clear()
    for store in (lone, barrier, landings):
        store.read(locators[0])
    after_lone, after_barrier, after_landings = recording_clock.charged()
    assert after_lone == after_barrier == after_landings


def test_mixed_round_members_land_on_their_own(recording_clock):
    store = _cloud(recording_clock).store
    members = [_blob(SMALL, "a"), _blob(LARGE, "b"), TINY, _blob(SMALL, "c")]
    locators = store.write_round([(payload, False) for payload in members]).wait(
        recording_clock
    )
    s3_op = S3 + members[1].nominal_size / FIXED.faas_s3_bandwidth
    recording_clock.clear()
    landed = _landings(store.read_round(locators + ["redis:ghost"]))

    # Redis members at their draw, the inline one and the unknown locator at
    # once; the S3 member is the slowest, so it lands when the whole round --
    # the redis wait, then the S3 request -- ends, as its charges say.
    assert [at for at, _ in landed] == [REDIS, REDIS + s3_op, 0.0, REDIS, 0.0]
    assert [outcome for _, outcome in landed[:4]] == members
    assert isinstance(landed[4][1], WorkflowError)
    assert recording_clock.charged() == []
    assert store.read_round(locators).charges == [REDIS, s3_op]


def test_read_fault_hook_fires_once_per_member_in_member_order(
    recording_clock, monkeypatch
):
    store = _cloud(recording_clock).store
    payloads = [_blob(SMALL, "a"), _blob(LARGE, "b"), _blob(SMALL, "c")]
    locators = store.write_round([(payload, False) for payload in payloads]).wait(
        recording_clock
    )
    checked: list[tuple[str, str]] = []
    monkeypatch.setattr(
        "repro.faas.cloud.chaos_check",
        lambda hook, key, **labels: checked.append((hook, key)),
    )
    store.read_round(locators)
    assert checked == [
        ("cloud.store.read", hashlib.sha256(p.data).hexdigest()[:16]) for p in payloads
    ]


# -- a fetched member reaches the pool when its read lands -----------------------------
class _Draws(LatencyModel):
    """Hands out the given latencies in turn, so every member's draw is
    known."""

    def __init__(self, *values: float) -> None:
        self._values = itertools.cycle(values)

    def sample(self, rng) -> float:
        return next(self._values)

    @property
    def typical(self) -> float:
        return 0.0


class _LandingPool:
    """A pool that only notes when each task reached it."""

    def __init__(self, site, clock) -> None:
        self.site = site
        self._clock = clock
        self.landed: list[float] = []

    def submit(self, work) -> None:
        self.landed.append(self._clock.now())


def test_dispatch_returns_before_its_slowest_member_lands(monkeypatch):
    clock = ManualClock()
    reactor = ManualReactor(clock)
    monkeypatch.setattr("repro.batch.round.get_reactor", lambda: reactor)
    draws = (0.3, 0.1, 0.45)
    constants = replace(FIXED, faas_redis_latency=_Draws(*draws))
    testbed = build_paper_testbed(seed=5, constants=constants)
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, constants, clock)
    pool = _LandingPool(testbed.theta_compute, clock)
    endpoint = FaasEndpoint(
        "theta", cloud, token, testbed.theta_login, pool, clock=clock
    )  # not started: the test drives the round itself
    func_id = cloud.register_function(token, serialize(_index_of))
    endpoint._functions[func_id] = _index_of  # keep the function fetch out
    items = [
        TaskSubmission(func_id, endpoint.endpoint_id, serialize(((i, Blob(SMALL)), {})))
        for i in range(3)
    ]
    task_ids = cloud.submit_batch(token, "client", items)  # its writes draw 0.3, 0.1, 0.45
    dispatches = cloud.fetch_tasks(token, endpoint.endpoint_id, 32)
    started = clock.now()

    endpoint._dispatch(dispatches)
    assert clock.now() == started  # the poll thread waited for no read ...
    assert pool.landed == []  # ... and no task has reached the pool yet

    reactor.run()
    size = cloud.store.raw(cloud.task(task_ids[0]).args_locator).payload.nominal_size
    stream = WAN + size / constants.cloud_bandwidth
    # Each member lands at its own draw plus the streamed response; the last
    # one is the round's slowest draw -- when the whole round used to land.
    assert pool.landed == [
        pytest.approx(started + draw + stream) for draw in sorted(draws)
    ]


# -- a submitted member is queued when its own write lands -------------------------------
def test_each_submitted_member_is_queued_at_its_own_write_landing(monkeypatch):
    """A 3-member redis round on the reactor: each member is pushed to its
    endpoint at its own write landing, fastest first, alone in its
    envelope; the client's answer (every id) arrives when the slowest write
    lands."""
    clock = ManualClock()
    reactor = ManualReactor(clock)
    monkeypatch.setattr("repro.batch.round.get_reactor", lambda: reactor)
    draws = (0.3, 0.1, 0.45)
    constants = replace(FIXED, faas_redis_latency=_Draws(*draws))
    testbed = build_paper_testbed(seed=5, constants=constants)
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, constants, clock)
    ep = cloud.register_endpoint(token, "theta", testbed.theta_compute)
    func_id = cloud.register_function(token, serialize(_index_of))
    cloud.grant_credit(token, ep, 32)  # an attached agent: work is pushed
    rung: list[tuple[float, list[str]]] = []
    publish = cloud.bus.publish

    def recording(topic, payload, **kwargs):
        rung.append((clock.now(), [d.task_id for d in payload.dispatches]))
        return publish(topic, payload, **kwargs)

    cloud.bus.publish = recording
    answered: list[tuple[float, list]] = []
    items = [TaskSubmission(func_id, ep, _blob(SMALL, str(i))) for i in range(3)]
    cloud.submit_batch(
        token, "client", items, then=lambda ids: answered.append((clock.now(), ids))
    )
    assert rung == [] and answered == []

    reactor.run()
    ((at, ids),) = answered
    assert at == pytest.approx(max(draws))
    assert rung == [
        (pytest.approx(draw), [ids[i]]) for draw, i in sorted(zip(draws, range(3)))
    ]
    assert [cloud.task(task_id).submitted_at for task_id in ids] == [
        pytest.approx(draw) for draw in draws
    ]


def test_a_task_done_before_its_round_is_answered_resolves_once():
    """One member's write lands at once, its batch-mate's 100 s later: the
    first task runs and reports while the submit round is still in flight,
    so its completion arrives before its future has an id.  It is parked
    and delivered when the answer lands -- once."""
    metrics = MetricsRegistry()
    set_metrics(metrics)
    constants = replace(FIXED, faas_s3_latency=FixedLatency(100.0))
    testbed = build_paper_testbed(seed=5, constants=constants)
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, constants)
    pool = WorkerPool(testbed.theta_compute, 2, name="early-pool")
    endpoint = FaasEndpoint("theta", cloud, token, testbed.theta_login, pool).start()
    client = FaasClient(cloud, token, site=testbed.theta_login)
    try:
        with at_site(testbed.theta_login):
            func_id = client.register_function(_index_of)
            fast = client.submit(func_id, endpoint.endpoint_id, 0, Blob(SMALL))
            slow = client.submit(func_id, endpoint.endpoint_id, 1, Blob(LARGE))
            client.flush_batches()
        assert fast.result(timeout=60) == 0
        assert slow.result(timeout=60) == 1
    finally:
        client.close()
        endpoint.stop()
    assert metrics.counter_total("client.early_completions") == 1
    assert metrics.counter_total("client.notify_errors") == 0
    assert client._early == {}


# -- the shard's admission slot ----------------------------------------------------------
def test_overlapping_rounds_on_one_shard_are_still_a_service_time_apart():
    clock = ManualClock()
    service = 0.5
    constants = replace(FIXED, faas_shard_service_time=service)
    testbed = build_paper_testbed(seed=5, constants=constants)
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
    router = CloudRouter(
        testbed.faas_cloud, testbed.network, auth, constants, clock, n_shards=1
    )
    ep = router.register_endpoint(token, "theta", testbed.theta_compute)
    func_id = router.register_function(token, serialize(_index_of))

    def items(tag):
        return [TaskSubmission(func_id, ep, _blob(SMALL, tag))]

    first = router.submit_round(token, "c", items("a"))
    second = router.submit_round(token, "c", items("b"))
    # Both rounds are in flight at once; the second's admission slot starts
    # when the first's ends, and neither holds a thread meanwhile.
    assert first.charges == [service, REDIS]
    assert second.charges == [2 * service, REDIS]
    assert first.offsets() == [pytest.approx(service + REDIS)]
    assert second.offsets() == [pytest.approx(2 * service + REDIS)]

    # A synchronous caller queues behind the same horizon.
    clock.sleep(service)
    started = clock.now()
    (sync_id,) = router.submit_batch(token, "c", items("c"))
    assert clock.now() - started == pytest.approx(2 * service + REDIS)
    (_, _, land_first), (_, _, land_second) = first.landings + second.landings
    assert all(isinstance(task_id, str) for task_id in land_first() + land_second())
    assert len({task.task_id for task in router.task_records()}) == 3


def test_a_dark_shard_fails_only_its_group_of_a_round(monkeypatch):
    """A round spanning two shards while one restarts: that shard's group
    fails alone, when the round lands, and the other group is admitted."""
    clock = ManualClock()
    # The outage ends on a timer of the manual clock's reactor, not the
    # process reactor's (whose clock is already past the deadline).
    monkeypatch.setattr("repro.tenancy.router.get_reactor", lambda: ManualReactor(clock))
    testbed = build_paper_testbed(seed=5, constants=FIXED)
    auth = AuthServer()
    identity = auth.register_identity("u", "anl")
    router = CloudRouter(
        testbed.faas_cloud, testbed.network, auth, FIXED, clock, n_shards=2
    )
    router.create_tenant("alice")
    token = auth.issue_token(identity, {SCOPE_COMPUTE, tenant_scope("alice")})
    ep = router.register_endpoint(token, "theta", testbed.theta_compute)
    by_shard: dict[str, str] = {}
    while len(by_shard) < 2:
        func_id = router.register_function(token, serialize(_index_of), tenant="alice")
        by_shard.setdefault(router._shard_for_partition("alice", func_id), func_id)
    lit, dark = sorted(by_shard)
    router._begin_outage(dark)

    items = [TaskSubmission(by_shard[s], ep, _blob(SMALL, s)) for s in (lit, dark)]
    admitted, refused = router.submit_batch(token, "c", items, tenant="alice")
    assert isinstance(admitted, str)
    assert isinstance(refused, ShardUnavailableError)
    assert router.registry.get("alice").usage.in_flight == 1


# -- a flush round in flight does not hold the reactor ----------------------------------
def test_a_flush_round_in_flight_does_not_delay_a_reactor_timer():
    """The hold timer's flush round -- an API round trip, then a 0.4 s redis
    write -- used to be slept on the process reactor, so a 0.25 s beat timer
    (standing in for every heartbeat in the process) came due during it and
    fired at least 0.4 + 0.068 - 0.25 s late.  Now the round is a pair of
    timers and the beat keeps time."""
    # 100 ms of wall per nominal second: a few milliseconds of host jitter
    # stay well under the bound asserted below.
    reset_reactor()
    reset_clock(0.1)
    constants = replace(FIXED, faas_redis_latency=FixedLatency(0.4))
    testbed = build_paper_testbed(seed=5, constants=constants)
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, constants)
    pool = WorkerPool(testbed.theta_compute, 2, name="beat-pool")
    endpoint = FaasEndpoint("theta", cloud, token, testbed.theta_login, pool).start()
    client = FaasClient(cloud, token, site=testbed.theta_login)
    clock = get_clock()
    period = 0.25
    lateness: list[float] = []
    due = [clock.now() + period]

    def beat():
        lateness.append(clock.now() - due[0])
        due[0] = clock.now() + period

    timer = get_reactor().call_every(period, beat)
    try:
        with at_site(testbed.theta_login):
            func_id = client.register_function(_index_of)
            for i in range(4):  # each a lone task, flushed by its hold timer
                future = client.submit(func_id, endpoint.endpoint_id, i, Blob(SMALL))
                assert future.result(timeout=60) == i
    finally:
        timer.cancel()
        client.close()
        endpoint.stop()
    assert len(lateness) >= 10
    assert max(lateness) < 0.15, sorted(lateness)[-3:]


def test_a_rejected_member_backs_off_without_stalling_the_reactor():
    """A member the service rejects in a hold timer's flush round is retried
    after its 2 s backoff.  That backoff used to be slept on the process
    reactor, with the resubmission after it, so a 0.25 s beat timer came
    due during it and fired 2 s late.  Now the backoff is a timer that
    parks the member in the accumulator again."""
    reset_reactor()
    reset_clock(0.1)  # as above: host jitter stays well under the bound
    metrics = MetricsRegistry()
    set_metrics(metrics)
    testbed = build_paper_testbed(seed=5, constants=FIXED)
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, FIXED)
    pool = WorkerPool(testbed.theta_compute, 2, name="reject-pool")
    endpoint = FaasEndpoint("theta", cloud, token, testbed.theta_login, pool).start()
    client = FaasClient(
        cloud,
        token,
        site=testbed.theta_login,
        retry_policy=RetryPolicy(max_attempts=3, base_delay=2.0, max_delay=2.0, jitter=0.0),
    )
    with at_site(testbed.theta_login):
        func_id = client.register_function(_index_of)
    set_injector(
        FaultInjector(
            FaultPlan.build(
                0,
                [FaultSpec("cloud.submit", "payload_cap", match={"attempt": 0}, max_fires=1)],
            )
        )
    )
    clock = get_clock()
    period = 0.25
    lateness: list[float] = []
    due = [clock.now() + period]

    def beat():
        lateness.append(clock.now() - due[0])
        due[0] = clock.now() + period

    timer = get_reactor().call_every(period, beat)
    try:
        with at_site(testbed.theta_login):
            started = clock.now()
            future = client.submit(func_id, endpoint.endpoint_id, 7, Blob(SMALL))
        assert future.result(timeout=60) == 7
        waited = clock.now() - started
    finally:
        timer.cancel()
        client.close()
        endpoint.stop()
    assert metrics.counter_total("client.submit_retries") == 1
    assert waited > 2.0, "the member was never rejected"
    assert len(lateness) >= 8
    assert max(lateness) < 0.1, sorted(lateness)[-3:]


# -- through the router --------------------------------------------------------------
def test_round_through_the_routed_store_is_one_round_per_shard(recording_clock):
    testbed = build_paper_testbed(seed=5, constants=FIXED)
    router = CloudRouter(
        testbed.faas_cloud, testbed.network, AuthServer(), FIXED, recording_clock,
        n_shards=2,
    )
    payloads = [_blob(SMALL, tag=str(i)) for i in range(4)]
    locators = [
        router.shard(f"s{i % 2}").store.write(payload)
        for i, payload in enumerate(payloads)
    ]
    assert [loc.split("/")[0] for loc in locators] == ["s0", "s1", "s0", "s1"]
    del recording_clock.charges[:]
    outcomes = router.store.read_round(locators + ["redis:no-shard-prefix"]).wait(
        recording_clock
    )

    assert outcomes[:4] == payloads  # merged back in the caller's order
    assert isinstance(outcomes[4], WorkflowError)
    assert recording_clock.charged() == [REDIS, REDIS]  # one round per shard store


# -- the stack a user gets by default ------------------------------------------------
def _index_of(index, pad):
    return index


class _DefaultStack:
    """``FaasClient → FaasCloud → FaasEndpoint`` with no option passed that
    a user would not have to pass (the clock is the test's instrument)."""

    def __init__(self, clock):
        self.testbed = build_paper_testbed(seed=5, constants=FIXED)
        auth = AuthServer()
        token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
        self.cloud = FaasCloud(
            self.testbed.faas_cloud, self.testbed.network, auth, FIXED, clock
        )
        self.pool = WorkerPool(self.testbed.theta_compute, 4, name="default-pool")
        self.endpoint = FaasEndpoint(
            "theta", self.cloud, token, self.testbed.theta_login, self.pool, clock=clock
        ).start()
        self.client = FaasClient(
            self.cloud, token, site=self.testbed.theta_login, clock=clock
        )
        self.downloads = record_downloads(self.client)
        with at_site(self.testbed.theta_login):
            self.func_id = self.client.register_function(_index_of)

    def submit(self, index):
        with at_site(self.testbed.theta_login):
            return self.client.submit(
                self.func_id, self.endpoint.endpoint_id, index, Blob(SMALL)
            )

    def close(self):
        self.client.close()
        self.endpoint.stop()


@pytest.fixture
def stack(recording_clock):
    rig = _DefaultStack(recording_clock)
    yield rig
    rig.close()


def test_lone_default_task_still_pays_the_redis_tier(stack, recording_clock, metrics):
    stack.submit(0).result(timeout=60)  # warm-up: the endpoint caches the function
    before = {
        op: _tier_count(metrics, f"faas.store_{op}", "redis") for op in ("writes", "reads")
    }
    recording_clock.clear()
    del stack.downloads[:]
    future = stack.submit(1)
    assert future.result(timeout=60) == 1
    me = threading.current_thread().name

    # A lone task is held for min_hold, no longer ...
    assert recording_clock.armed(me) == [BatchPolicy().min_hold]
    # ... its 10 kB argument goes through ElastiCache, once each way ...
    assert _tier_count(metrics, "faas.store_writes", "redis") == before["writes"] + 1
    assert _tier_count(metrics, "faas.store_reads", "redis") == before["reads"] + 1
    # ... and every hop charges what the single path always has.
    record = stack.cloud.task(future.task_id)
    args = stack.cloud.store.raw(record.args_locator).payload.nominal_size
    result = stack.cloud.store.raw(record.result_locator).payload.nominal_size
    stream = lambda nbytes: WAN + nbytes / FIXED.cloud_bandwidth  # noqa: E731
    assert recording_clock.charged(me) == [serialize_cost(args)]
    # The flush round, the push and the argument download are reactor
    # timers; a lone task's are the numbers the sleeps always were, but for
    # its way to the agent: one WAN leg, the push, where a fetch's request
    # and response were two.  The credit coming back is off its path, and
    # so is each API call's response leg: the cloud acts on the request.
    assert recording_clock.charged("repro-reactor") == []
    # The uplink and the download are no thread's sleeps either: a timer
    # the outbox drain arms, and a landing, both on the reactor.
    (download,) = stack.downloads
    assert recording_clock.armed_calls("repro-reactor") == [
        ("FaasClient._submit_leg.<locals>.send.<locals>.<lambda>", WAN + API),
        ("Round._step", REDIS),
        ("FaasClient._submit_leg.<locals>.send.<locals>.answer.<locals>.<lambda>", WAN),
        ("FaasEndpoint._in_hand", WAN),  # the push
        ("FaasEndpoint._return_credit", WAN),
        ("Round._step", pytest.approx(REDIS + stream(args))),  # argument read
        ("FaasEndpoint._uplink_batch.<locals>.arrived", WAN + API),  # inline result
        ("FaasEndpoint._drain_outbox", WAN),
        ("Round._step", pytest.approx(sum(download.charges))),
    ]
    assert download.charges == [
        WAN,  # notification push
        stream(result),
        deserialize_cost(result),
    ]


def test_submitters_on_many_threads_resolve_every_future_once(metrics):
    """Submitters on more threads than cores, switching every 10 us, while
    rounds land on the reactor and downloads on the notifier's schedule:
    every future resolves with its own value, and nothing escapes the
    notifier (a second resolution of one future would)."""
    stack = _DefaultStack(get_clock())
    futures: dict[int, object] = {}

    def submit(first):
        for index in range(first, first + 25):
            futures[index] = stack.submit(index)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=submit, args=(25 * k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        values = {index: future.result(timeout=60) for index, future in futures.items()}
    finally:
        sys.setswitchinterval(previous)
        stack.close()
    assert values == {index: index for index in range(100)}
    assert metrics.counter_total("client.notify_errors") == 0


def test_back_to_back_default_submits_make_one_submit_call(
    stack, recording_clock, metrics, monkeypatch
):
    # The hold timer must not claim part of the burst: it fires into nothing.
    monkeypatch.setattr(stack.client, "_flush_due", lambda key, generation: None)
    calls: list[int] = []
    submit_batch = stack.cloud.submit_batch

    def counting(token, client_id, items, **kwargs):
        calls.append(len(items))
        return submit_batch(token, client_id, items, **kwargs)

    stack.cloud.submit_batch = counting
    recording_clock.clear()
    n = BatchPolicy().max_batch
    futures = [stack.submit(i) for i in range(n)]
    stack.client.flush_batches()  # waits out the size trigger's flush round
    assert calls == [n]  # the size trigger, one submit leg on the reactor
    assert all(f.task_id is not None for f in futures)
    assert [f.result(timeout=60) for f in futures] == list(range(n))
    me = threading.current_thread().name
    assert len(recording_clock.armed(me)) == 1  # armed by the first arrival only
    # By value: every member took the redis tier, in one pipelined round.
    assert _tier_count(metrics, "faas.store_writes", "redis") == n
