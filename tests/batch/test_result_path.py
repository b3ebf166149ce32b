"""The client's result path runs on the reactor.

A download round is a :class:`repro.batch.Round` armed on the process
reactor, which settles and acks it when it lands, and every hedge-race
change (the overdue scan, a leg's answer, a loser's cancel) is a reactor
callback.  So the notifier only receives and plans: a hedge leg backing off
a throttle holds back no other task's result, and a loser's cancel sleeps
nothing on the notifier.
"""

from __future__ import annotations

import time

import pytest
from conftest import record_downloads

from repro.batch.reactor import Reactor, reset_reactor
from repro.chaos.plan import FaultInjector, FaultPlan, FaultSpec, set_injector
from repro.exceptions import ThrottledError
from repro.faas import SCOPE_COMPUTE, AuthServer, FaasClient, FaasCloud, FaasEndpoint
from repro.faas.cloud import result_topic
from repro.net.clock import get_clock, reset_clock
from repro.net.context import at_site
from repro.net.defaults import PaperConstants, build_paper_testbed
from repro.net.topology import FixedLatency
from repro.observe import MetricsRegistry, set_metrics
from repro.resilience import HedgePolicy
from repro.resources import WorkerPool

WAN = 0.028
API = 0.012
#: Fixed WAN and API latencies, so an API call's cost is known exactly, and
#: no heartbeat or lease lapse while a test runs: hedging is under test.
QUIET = PaperConstants(
    cloud_latency=FixedLatency(WAN),
    faas_api_latency=FixedLatency(API),
    endpoint_heartbeat_period=1000.0,
    endpoint_lease_ttl=3000.0,
)


def _add(a, b):
    return a + b


def _gray(endpoint_name, delay):
    """The endpoint is alive but everything it runs crawls."""
    return FaultSpec(
        "endpoint.slow", "endpoint_slow", rate=1.0, match={"endpoint": endpoint_name}, delay=delay
    )


def _wait_for(predicate, wall_seconds=30.0):
    deadline = time.monotonic() + wall_seconds
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


class Rig:
    """Two endpoints, ``ep-a`` and ``ep-b``, and one client."""

    def __init__(self, specs=(), *, cloud_cls=FaasCloud, failover_group="pair", **client_kwargs):
        self.metrics = MetricsRegistry()
        set_metrics(self.metrics)
        set_injector(FaultInjector(FaultPlan.build(11, specs)))
        self.testbed = build_paper_testbed(seed=11, constants=QUIET)
        auth = AuthServer()
        self.token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
        self.cloud = cloud_cls(self.testbed.faas_cloud, self.testbed.network, auth, QUIET)
        self.endpoints = [
            FaasEndpoint(
                name,
                self.cloud,
                self.token,
                self.testbed.theta_login,
                WorkerPool(self.testbed.theta_compute, 2, name=f"{name}-pool"),
                failover_group=failover_group,
            ).start()
            for name in ("ep-a", "ep-b")
        ]
        self.ep_a, self.ep_b = (endpoint.endpoint_id for endpoint in self.endpoints)
        self.client = self.new_client(**client_kwargs)

    def new_client(self, **kwargs):
        return FaasClient(self.cloud, self.token, site=self.testbed.theta_login, **kwargs)

    def run(self, endpoint_id, a, b, **kwargs):
        with at_site(self.testbed.theta_login):
            return self.client.run(_add, endpoint_id, a, b, **kwargs)

    def count(self, name, **labels):
        return sum(
            counter.value
            for n, lab, counter in self.metrics.counters()
            if n == name and all(lab.get(k) == v for k, v in labels.items())
        )

    def close(self):
        self.client.close()
        for endpoint in self.endpoints:
            endpoint.stop()
        set_injector(None)


def test_a_throttled_hedge_leg_holds_back_no_other_result():
    """The hedge leg's first send is throttled for 5 s; task B, sent to the
    other endpoint just after, resolves before that leg is re-sent, and
    the scan sends no second leg while the first one is out."""
    # 20 ms of wall per nominal second: B's ~3 s of slack before the re-send
    # is 60 ms of wall, which host jitter does not eat.
    reset_reactor()
    reset_clock(0.02)
    clock = get_clock()
    rig = Rig(specs=[_gray("ep-a", 30.0)])
    sends: list[tuple[float, str]] = []
    submit_batch = rig.cloud.submit_batch

    def throttling_submit_batch(token, client_id, items, **kwargs):
        keys = [item.chaos_key for item in items]
        sends.extend((clock.now(), key) for key in keys)
        if sum("#h" in key for _, key in sends) == 1 and "#h" in keys[0]:
            kwargs["then"]([ThrottledError("slow down", retry_after=5.0)])
            return None
        return submit_batch(token, client_id, items, **kwargs)

    rig.cloud.submit_batch = throttling_submit_batch
    b_resolved: list[float] = []
    try:
        policy = HedgePolicy(endpoints=(rig.ep_b,), delay=1.0, max_hedges=1)
        a = rig.run(rig.ep_a, 1, 2, _hedge=policy)
        _wait_for(lambda: any("#h" in key for _, key in sends))
        b = rig.run(rig.ep_b, 3, 4)
        b.add_done_callback(lambda _: b_resolved.append(clock.now()))
        assert b.result(timeout=60) == 7
        assert a.result(timeout=60) == 3
    finally:
        rig.close()
    hedges = [(at, key.split("#", 1)[1]) for at, key in sends if "#h" in key]
    assert [leg for _, leg in hedges] == ["h1#a0", "h1#a0"]  # sent, then re-sent
    resent_at = hedges[1][0]
    assert b_resolved[0] < resent_at
    assert rig.count("client.hedges_launched") == 1


def test_a_losing_leg_is_cancelled_on_the_reactor(recording_clock):
    """The primary wins while its hedge leg is still queued: the loser's
    cancel is a reactor timer behind its API call, not a sleep on the
    notifier, and ``close`` waits it out before the counters are read."""
    rig = Rig(specs=[_gray("ep-a", 4.0)], failover_group=None, clock=recording_clock)
    rig.endpoints[1].pause()  # the hedge target parks the duplicate
    try:
        future = rig.run(rig.ep_a, 1, 1, _hedge=HedgePolicy(endpoints=(rig.ep_b,), delay=1.0))
        assert future.result(timeout=60) == 2
        assert rig.count("client.hedges_launched") == 1
    finally:
        rig.close()
    assert recording_clock.charged("faas-client-notify") == []
    # One API round trip each: the primary's flush, the hedge leg, the cancel
    # -- and ep-a's result uplink, whose outbox drain runs on the reactor.
    api = 2 * WAN + API
    assert recording_clock.armed("repro-reactor").count(pytest.approx(api)) == 4
    assert rig.count("resilience.cancels") == 1
    assert rig.count("client.hedges", outcome="lost") == 1


def test_the_overdue_scan_is_armed_only_while_a_hedged_task_is_pending(monkeypatch):
    scans = []
    call_every = Reactor.call_every

    def recording_call_every(reactor, period, fn):
        timer = call_every(reactor, period, fn)
        if getattr(fn, "__name__", "") == "_scan_hedges":
            scans.append(timer)
        return timer

    monkeypatch.setattr(Reactor, "call_every", recording_call_every)
    rig = Rig()
    try:
        assert rig.run(rig.ep_a, 1, 1).result(timeout=60) == 2
        assert scans == []  # a client that never hedges arms nothing
        policy = HedgePolicy(endpoints=(rig.ep_b,), delay=600.0)
        assert rig.run(rig.ep_a, 2, 2, _hedge=policy).result(timeout=60) == 4
        assert len(scans) == 1
        # Nothing hedge-armed is pending any more: the scan disarms itself.
        _wait_for(lambda: not rig.client._hedge_scan)
    finally:
        rig.close()


class _SlowDownloads(FaasCloud):
    """Every download round takes ``stall`` nominal seconds longer."""

    stall = 0.0

    def download_round(self, token, task_ids):
        round_ = super().download_round(token, task_ids)
        round_.charges.append(self.stall)
        return round_


def test_a_round_in_flight_at_kill_settles_and_acks_nothing():
    rig = Rig(cloud_cls=_SlowDownloads, client_id="campaign")
    rig.cloud.stall = 50.0
    downloads = record_downloads(rig.client)
    future = rig.run(rig.ep_a, 2, 3)
    _wait_for(lambda: downloads)
    rig.client.kill()
    rig.cloud.stall = 0.0
    get_clock().sleep(60.0)  # the round lands on the reactor meanwhile
    assert not future.done()
    topic = result_topic("campaign")
    assert rig.cloud.bus.unacked(topic, "campaign") != []

    successor = rig.new_client(client_id="campaign")
    try:
        adopted = successor.attach(future.task_id, endpoint_id=rig.ep_a)
        assert adopted.result(timeout=60) == 5
    finally:
        successor.close()
        for endpoint in rig.endpoints:
            endpoint.stop()
        set_injector(None)
    assert not future.done()
    assert rig.cloud.bus.unacked(topic, "campaign") == []
    # Delivered once: a second settlement of the future would be an error.
    assert rig.count("client.notify_errors") == 0
