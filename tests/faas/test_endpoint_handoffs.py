"""The endpoint's argument downloads are reactor timers ("handoffs"), and
a paused endpoint charges and arms nothing.

A fetched round's members reach the pool as their own argument reads land,
so at any moment an endpoint may hold armed handoffs that no thread is
sleeping through.  A graceful stop must let every one of them reach the
pool before the pool drains; a crash must drop them the way a dead
process drops a download in flight, and the lease lapse re-dispatches the
tasks.  Either way no task is lost and the tenant's usage comes back to
nothing.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace

import pytest

from repro.faas import SCOPE_COMPUTE, AuthServer, FaasClient, FaasCloud, FaasEndpoint
from repro.net.context import at_site
from repro.net.defaults import PaperConstants, build_paper_testbed
from repro.net.topology import FixedLatency
from repro.observe import MetricsRegistry, set_metrics
from repro.resources import WorkerPool
from repro.serialize import Blob
from repro.tenancy import CloudRouter, tenant_scope

#: Store ops slow enough (20 nominal s = 40 ms of wall in tests) that a
#: fetched round's handoffs are certainly still armed when the test acts.
SLOW_STORE = replace(
    PaperConstants(),
    cloud_latency=FixedLatency(0.028),
    faas_api_latency=FixedLatency(0.012),
    faas_redis_latency=FixedLatency(20.0),
    endpoint_lease_ttl=3.0,
    endpoint_heartbeat_period=1.0,
)
PAD = 10_000  # the redis tier


def _echo(index, pad):
    return index


def _wait_for(predicate, wall_seconds=30.0):
    deadline = time.monotonic() + wall_seconds
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def _executions(metrics, endpoint_name):
    return sum(
        counter.value
        for name, labels, counter in metrics.counters()
        if name == "endpoint.executions" and labels.get("endpoint") == endpoint_name
    )


class _Rig:
    """A one-shard router with tenant ``alice``, endpoint ``ep-a`` (plus a
    failover peer ``ep-b`` on request) and alice's client."""

    def __init__(self, *, peer=False):
        self.metrics = MetricsRegistry()
        set_metrics(self.metrics)
        self.testbed = build_paper_testbed(seed=5, constants=SLOW_STORE)
        auth = AuthServer()
        identity = auth.register_identity("u", "anl")
        endpoint_token = auth.issue_token(identity, {SCOPE_COMPUTE})
        self.router = CloudRouter(
            self.testbed.faas_cloud, self.testbed.network, auth, SLOW_STORE, n_shards=1
        )
        self.router.create_tenant("alice")
        self.endpoints = [
            FaasEndpoint(
                name,
                self.router,
                endpoint_token,
                self.testbed.theta_login,
                WorkerPool(self.testbed.theta_compute, 4, name=f"{name}-pool"),
                failover_group="pair",
            ).start()
            for name in (("ep-a", "ep-b") if peer else ("ep-a",))
        ]
        self.client = FaasClient(
            self.router,
            auth.issue_token(identity, {SCOPE_COMPUTE, tenant_scope("alice")}),
            site=self.testbed.theta_login,
            tenant="alice",
        )
        with at_site(self.testbed.theta_login):
            self.func_id = self.client.register_function(_echo)

    def submit_round(self, n):
        """``n`` tasks to ``ep-a`` in one flush; returns once ``ep-a`` holds
        all of them as armed handoffs."""
        endpoint = self.endpoints[0]
        with at_site(self.testbed.theta_login):
            futures = [
                self.client.submit(self.func_id, endpoint.endpoint_id, i, Blob(PAD))
                for i in range(n)
            ]
            self.client.flush_batches()
        _wait_for(lambda: endpoint._handoffs == n)
        return futures

    def usage(self):
        usage = self.router.registry.get("alice").usage
        return usage.in_flight, usage.queued_bytes

    def close(self):
        self.client.close()
        for endpoint in self.endpoints:
            endpoint.stop()


@pytest.fixture
def make_rig():
    rigs = []

    def make(**kwargs):
        rigs.append(_Rig(**kwargs))
        return rigs[-1]

    yield make
    for rig in rigs:
        rig.close()


def test_graceful_stop_lets_every_armed_handoff_reach_the_pool(make_rig):
    rig = make_rig()
    endpoint = rig.endpoints[0]
    futures = rig.submit_round(3)
    assert _executions(rig.metrics, "ep-a") == 0  # nothing has landed yet

    endpoint.stop()  # waits out the handoffs, then drains the pool

    assert endpoint._handoffs == 0
    assert _executions(rig.metrics, "ep-a") == 3
    assert [f.result(timeout=60) for f in futures] == [0, 1, 2]
    assert rig.metrics.counter_total("endpoint.handoffs_dropped") == 0
    _wait_for(lambda: rig.usage() == (0, 0))


def test_crashed_endpoint_drops_its_armed_handoffs_and_the_lease_lapse_redispatches(
    make_rig,
):
    rig = make_rig(peer=True)
    crashed, survivor = rig.endpoints
    futures = rig.submit_round(3)

    crashed.simulate_crash()
    _wait_for(lambda: crashed._handoffs == 0)
    # A dead process takes its downloads in flight with it ...
    assert rig.metrics.counter_total("endpoint.handoffs_dropped") == 3
    assert _executions(rig.metrics, "ep-a") == 0
    # ... and the lapsed lease hands every task to the surviving peer.
    assert [f.result(timeout=60) for f in futures] == [0, 1, 2]
    assert _executions(rig.metrics, "ep-b") == 3
    assert {rig.router.task(f.task_id).endpoint_id for f in futures} == {
        survivor.endpoint_id
    }
    _wait_for(lambda: rig.usage() == (0, 0))


# -- a paused endpoint is quiet -------------------------------------------------------
def _paused_rig(recording_clock):
    testbed = build_paper_testbed(seed=5)
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
    cloud = FaasCloud(
        testbed.faas_cloud, testbed.network, auth, testbed.constants, recording_clock
    )
    pool = WorkerPool(testbed.theta_compute, 2, name="paused-pool")
    endpoint = FaasEndpoint(
        "theta", cloud, token, testbed.theta_login, pool, clock=recording_clock
    ).start()
    return testbed, cloud, token, endpoint


def test_paused_endpoint_charges_nothing_until_it_resumes(recording_clock):
    testbed, cloud, token, endpoint = _paused_rig(recording_clock)
    client = FaasClient(cloud, token, site=testbed.theta_login)
    try:
        endpoint.pause()
        recording_clock.clear()
        time.sleep(0.05)  # 25 nominal s: five heartbeat periods
        assert recording_clock.charged() == []
        assert recording_clock.armed() == []
        with at_site(testbed.theta_login):
            future = client.run(_echo, endpoint.endpoint_id, 7, None)
        endpoint.resume()
        assert future.result(timeout=60) == 7
    finally:
        client.close()
        endpoint.stop()


@pytest.mark.parametrize("how", ["crash", "stop"])
def test_a_paused_endpoint_wakes_for_a_crash_or_a_stop(recording_clock, how):
    _testbed, _cloud, _token, endpoint = _paused_rig(recording_clock)
    endpoint.pause()
    if how == "crash":
        endpoint.simulate_crash()
    stopper = threading.Thread(target=endpoint.stop)
    stopper.start()
    stopper.join(timeout=10)
    assert not stopper.is_alive()
