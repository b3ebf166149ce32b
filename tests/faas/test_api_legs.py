"""Every reactor-driven API call pays a request leg before the cloud acts and
a response leg before the caller acts on the answer.

One client, one agent and one cloud run single-threaded on a
:class:`ManualClock`: every timer they arm goes to one
:class:`ManualReactor` the test runs, and a worker pool that runs work only
when told stands in for the agent's threads.  Latencies are fixed, so each
hop's time is an exact sum of legs.
"""

from __future__ import annotations

import pytest
from conftest import ManualClock, ManualReactor

from repro.faas import SCOPE_COMPUTE, AuthServer, FaasClient, FaasCloud, FaasEndpoint
from repro.faas.client import _PendingTask
from repro.net.defaults import PaperConstants, build_paper_testbed
from repro.net.topology import FixedLatency, LogNormalLatency

WAN = 0.028
API = 0.012
SLOT = 0.005  # the shard's serialized admission slot
FIXED = PaperConstants(
    cloud_latency=FixedLatency(WAN),
    faas_api_latency=FixedLatency(API),
    endpoint_heartbeat_period=300.0,
    endpoint_lease_ttl=600.0,
)
#: The modules whose timers the test's reactor fires.
REACTOR_USERS = (
    "repro.faas.client",
    "repro.faas.endpoint",
    "repro.bus.broker",
    "repro.batch.round",
)


def _add(a, b):
    return a + b


class StepPool:
    """A worker pool whose work runs only when the test says so."""

    def __init__(self, site):
        self.site = site
        self.work = []

    def start(self):
        return self

    def submit(self, work):
        self.work.append(work)

    def run_one(self):
        self.work.pop(0)()

    def stop(self, *, drain=True):
        return []


class Stack:
    def __init__(self, monkeypatch):
        self.clock = clock = ManualClock()
        self.reactor = ManualReactor(clock)
        for module in REACTOR_USERS:
            monkeypatch.setattr(f"{module}.get_reactor", lambda: self.reactor)
        testbed = build_paper_testbed(seed=5, constants=FIXED)
        auth = AuthServer()
        self.token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
        self.cloud = FaasCloud(
            testbed.faas_cloud, testbed.network, auth, FIXED, clock, service_time=SLOT
        )
        self.pool = StepPool(testbed.theta_compute)
        self.endpoint = FaasEndpoint(
            "theta", self.cloud, self.token, testbed.theta_login, self.pool, clock=clock
        ).start()
        self.client = FaasClient(self.cloud, self.token, site=testbed.theta_login, clock=clock)
        self.func_id = self.client.register_function(_add)
        self.times: dict[str, list[float]] = {}

    def record(self, owner, name):
        """Note the clock each time ``owner.name`` is called."""
        fn = getattr(owner, name)

        def recorded(*args, **kwargs):
            self.times.setdefault(name, []).append(self.clock.now())
            return fn(*args, **kwargs)

        setattr(owner, name, recorded)

    def run(self, seconds=10.0):
        self.reactor.run(until=self.clock.now() + seconds)

    def close(self):
        self.client.close()
        self.endpoint.stop()


@pytest.fixture
def stack(monkeypatch):
    stack = Stack(monkeypatch)
    yield stack
    stack.close()


def test_the_legs_are_drawn_as_an_rtt_then_the_processing():
    """The two legs draw what one round trip's cost always drew, in its
    order, so the seeded latency stream behind every later draw holds."""
    testbed = build_paper_testbed(seed=5)
    network, model = testbed.network, LogNormalLatency(0.012, 0.30, cap=0.20)
    a, b = testbed.theta_login, testbed.faas_cloud
    twin = build_paper_testbed(seed=5).network
    for _ in range(20):
        request, response = network.api_legs(a, b, model)
        out, back = twin.latency(a, b), twin.latency(b, a)
        assert (request, response) == (out + twin._sample(model), back)
    assert network._rng.random() == twin._rng.random()


def test_a_lone_submit_is_queued_on_its_request_and_answered_a_response_later(stack):
    stack.record(stack.client, "_flush_batch")
    stack.record(stack.client, "_register")
    future = stack.client.submit(stack.func_id, stack.endpoint.endpoint_id, 1, 2)
    stack.run()
    (flushed,) = stack.times["_flush_batch"]
    # The small argument rides inline, so the task is queued when the
    # request leg and the admission slot are paid ...
    queued = stack.cloud.task(future.task_id).submitted_at
    assert queued == pytest.approx(flushed + (WAN + API) + SLOT, abs=1e-12)
    # ... and its id reaches the client one response leg after that.
    (registered,) = stack.times["_register"]
    assert registered == pytest.approx(queued + WAN, abs=1e-12)


def test_a_report_lands_on_its_request_and_the_next_drain_a_response_later(stack):
    future = stack.client.submit(stack.func_id, stack.endpoint.endpoint_id, 1, 2)
    stack.run()
    stack.record(stack.endpoint, "_uplink_batch")
    stack.record(stack.endpoint, "_drain_outbox")
    stack.record(stack.cloud, "report_results")
    stack.pool.run_one()  # the result goes in the outbox and rings a drain
    stack.run()
    assert future.result(timeout=0) == 3
    (uplinked,) = stack.times["_uplink_batch"]
    (reported,) = stack.times["report_results"]
    assert reported == pytest.approx(uplinked + (WAN + API), abs=1e-12)
    # The uplink stays stop-and-wait: the drain that rang it, then the one
    # the round's answer frees (nothing left to ship).
    assert stack.times["_drain_outbox"] == [
        uplinked,
        pytest.approx(reported + WAN, abs=1e-12),
    ]


def test_a_beat_renews_the_lease_one_request_leg_after_its_tick(stack):
    stack.record(stack.cloud, "heartbeat")
    ticked = stack.clock.now()
    assert stack.endpoint._heartbeat_tick() is True  # as the reactor fires it
    stack.run(1.0)
    (beat,) = stack.times["heartbeat"]
    assert beat == pytest.approx(ticked + (WAN + API), abs=1e-12)
    lease = stack.cloud.fabric.endpoints.lease(stack.endpoint.endpoint_id)
    assert lease == pytest.approx(beat + FIXED.endpoint_lease_ttl, abs=1e-12)


def test_a_losing_legs_cancel_reaches_the_cloud_one_request_leg_after_it_is_armed(stack):
    stack.endpoint.pause()  # nothing is pushed: the leg stays queued
    future = stack.client.submit(stack.func_id, stack.endpoint.endpoint_id, 1, 2)
    stack.run()
    stack.record(stack.cloud, "cancel_task")
    leg = _PendingTask(
        future=future,
        trace_ctx=None,
        func_id=stack.func_id,
        endpoint_id=stack.endpoint.endpoint_id,
        args_payload=None,
        attempt=0,
        chaos_base="leg",
        leg=1,
    )
    armed = stack.clock.now()
    stack.client._cancel_leg(future.task_id, leg)
    stack.run()
    (cancelled,) = stack.times["cancel_task"]
    assert cancelled == pytest.approx(armed + (WAN + API), abs=1e-12)
    assert stack.cloud.task(future.task_id).status.terminal
