"""Store hops follow the round: the ElastiCache/S3 ops of one batched call
are pipelined, so the round waits once per tier while every member keeps its
own latency draw, counter and fault hook.  Plus the guards on the stack a
user gets by default: a lone task still pays the paper's redis tier, and
back-to-back submits coalesce into one call.

Charges are read off the recording clock, so every comparison is between
modelled numbers, not elapsed time.
"""

from __future__ import annotations

import threading

import pytest

from repro.batch import BatchPolicy
from repro.chaos.plan import FaultInjector, FaultPlan, FaultSpec, set_injector
from repro.exceptions import WorkflowError
from repro.faas import (
    SCOPE_COMPUTE,
    AuthServer,
    FaasClient,
    FaasCloud,
    FaasEndpoint,
)
from repro.net.context import at_site
from repro.net.defaults import PaperConstants, build_paper_testbed
from repro.net.topology import FixedLatency
from repro.observe import MetricsRegistry, set_metrics
from repro.resources import WorkerPool
from repro.serialize import Blob, deserialize_cost, serialize, serialize_cost
from repro.tenancy import CloudRouter

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
    del clock.charges[:]
    locators = together.write_round([(payload, False) for payload in payloads])
    return one_by_one, clock.charged(), together, locators


def test_redis_round_sleeps_once_for_its_slowest_draw(recording_clock, metrics):
    payloads = [_blob(SMALL, tag=str(i)) for i in range(3)]
    draws, written, store, locators = _lone_and_round(recording_clock, payloads)
    assert len(set(draws)) == 3  # sampled, not fixed: each member drew its own
    assert written == [max(draws)]
    assert _tier_count(metrics, "faas.store_writes", "redis") == 6  # 3 lone + 3

    del recording_clock.charges[:]
    assert store.read_round(locators) == payloads
    (read,) = recording_clock.charged()
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
    locators = store.write_round([(payload, False) for payload in members])
    s3_op = S3 + members[1].nominal_size / FIXED.faas_s3_bandwidth
    assert recording_clock.charged() == [REDIS, s3_op]
    assert [loc.split(":")[0] for loc in locators] == ["redis", "s3", "inline", "redis"]


# -- failure stays per member --------------------------------------------------------
def test_store_fault_in_a_round_fires_once_and_fails_only_its_member(recording_clock):
    store = _cloud(recording_clock).store
    payloads = [_blob(SMALL, tag=str(i)) for i in range(3)]
    locators = store.write_round([(payload, False) for payload in payloads])
    injector = FaultInjector(
        FaultPlan.build(0, [FaultSpec("cloud.store.read", "store_corrupt", max_fires=1)])
    )
    set_injector(injector)
    del recording_clock.charges[:]
    outcomes = store.read_round(locators + ["redis:ghost"])

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
    outcomes = router.store.read_round(locators + ["redis:no-shard-prefix"])

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


class _RecordingReactor:
    """Stands in for the process reactor: remembers the holds the client
    arms; given the real reactor it passes them on, otherwise none fires."""

    def __init__(self, reactor=None):
        self._reactor = reactor
        self.holds: list[float] = []

    def call_later(self, delay, callback):
        self.holds.append(delay)
        if self._reactor is not None:
            return self._reactor.call_later(delay, callback)


def test_lone_default_task_still_pays_the_redis_tier(
    stack, recording_clock, metrics, monkeypatch
):
    from repro.batch import get_reactor

    stack.submit(0).result(timeout=60)  # warm-up: the endpoint caches the function
    reactor = _RecordingReactor(get_reactor())
    monkeypatch.setattr("repro.faas.client.get_reactor", lambda: reactor)
    before = {
        op: _tier_count(metrics, f"faas.store_{op}", "redis") for op in ("writes", "reads")
    }
    del recording_clock.charges[:]
    future = stack.submit(1)
    assert future.result(timeout=60) == 1

    # A lone task is held for min_hold, no longer ...
    assert reactor.holds == [BatchPolicy().min_hold]
    # ... its 10 kB argument goes through ElastiCache, once each way ...
    assert _tier_count(metrics, "faas.store_writes", "redis") == before["writes"] + 1
    assert _tier_count(metrics, "faas.store_reads", "redis") == before["reads"] + 1
    # ... and every hop charges what the single path always has.
    record = stack.cloud.task(future.task_id)
    args = stack.cloud.store.raw(record.args_locator).payload.nominal_size
    result = stack.cloud.store.raw(record.result_locator).payload.nominal_size
    api_call = WAN + WAN + API
    stream = lambda nbytes: WAN + nbytes / FIXED.cloud_bandwidth  # noqa: E731
    assert recording_clock.charged(threading.current_thread().name) == [
        serialize_cost(args)
    ]
    assert recording_clock.charged("repro-reactor") == [api_call, REDIS]
    assert recording_clock.charged("faas-ep-theta-poll") == [
        WAN,  # fetch request
        WAN,  # fetch response
        REDIS,  # argument read
        stream(args),
    ]
    assert recording_clock.charged("faas-ep-theta-uplink") == [api_call]  # inline result
    assert recording_clock.charged("faas-client-notify") == [
        WAN,  # notification push
        stream(result),
        deserialize_cost(result),
    ]


def test_back_to_back_default_submits_make_one_submit_call(stack, metrics, monkeypatch):
    # The hold timer must not claim part of the burst: record it, never fire.
    reactor = _RecordingReactor()
    monkeypatch.setattr("repro.faas.client.get_reactor", lambda: reactor)
    calls: list[int] = []
    submit_batch = stack.cloud.submit_batch

    def counting(token, client_id, items, **kwargs):
        calls.append(len(items))
        return submit_batch(token, client_id, items, **kwargs)

    stack.cloud.submit_batch = counting
    n = BatchPolicy().max_batch
    futures = [stack.submit(i) for i in range(n)]
    assert calls == [n]  # the size trigger, inline on the submitting thread
    assert all(f.task_id is not None for f in futures)
    assert [f.result(timeout=60) for f in futures] == list(range(n))
    assert len(reactor.holds) == 1  # armed by the first arrival only
    # By value: every member took the redis tier, in one pipelined round.
    assert _tier_count(metrics, "faas.store_writes", "redis") == n
