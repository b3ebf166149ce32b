"""The client's one submit leg: flushes, throttle re-sends, retries and hedge
legs all run on the process reactor.

``submit`` pays serialization and nothing else on the caller, a retry's
backoff is a reactor timer rather than a sleep on the notifier, and a cloud
call that fails outright fails its members instead of stranding them.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.batch import BatchPolicy
from repro.batch.reactor import reset_reactor
from repro.chaos.policy import RetryPolicy
from repro.faas import SCOPE_COMPUTE, AuthServer, FaasClient, FaasCloud, FaasEndpoint
from repro.net.clock import get_clock, reset_clock
from repro.net.context import at_site
from repro.net.defaults import PaperConstants, build_paper_testbed
from repro.net.topology import FixedLatency
from repro.observe import Tracer, find_orphans, set_tracer
from repro.resources import WorkerPool
from repro.serialize import serialize, serialize_cost

WAN = 0.028
API = 0.012
FIXED = PaperConstants(cloud_latency=FixedLatency(WAN), faas_api_latency=FixedLatency(API))


def _add(a, b):
    return a + b


def _fail_first(marker):
    path = Path(marker)
    if not path.exists():
        path.touch()
        raise ValueError("first attempt fails")
    return "retried"


def _slow(x):
    get_clock().sleep(2.0)
    return x


def _rig(testbed, clock=None):
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, testbed.constants, clock)
    pool = WorkerPool(testbed.theta_compute, 2, name="leg-pool")
    endpoint = FaasEndpoint(
        "theta", cloud, token, testbed.theta_login, pool, clock=clock
    ).start()
    return cloud, token, endpoint


def test_a_cloud_error_fails_the_member_and_no_flush_stays_in_flight(testbed, monkeypatch):
    """A non-``ReproError`` out of the cloud fails the flushed member through
    the retry path; it does not strand the future or leave a flush counted
    in flight for every later ``flush_batches`` and ``close`` to wait out."""
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, testbed.constants)

    def broken_round(*args, **kwargs):
        raise RuntimeError("the service fell over")

    monkeypatch.setattr(cloud, "submit_round", broken_round)
    client = FaasClient(cloud, token, site=testbed.theta_login, close_timeout=2.0)
    with at_site(testbed.theta_login):
        future = client.submit("func-x", "endpoint-x", 1)
        client.flush_batches()
    assert isinstance(future.exception(timeout=10), RuntimeError)
    for call in (client.flush_batches, client.close):
        started = time.monotonic()
        call()
        assert time.monotonic() - started < 1.0, call.__name__


def test_a_retry_backs_off_on_the_reactor_not_the_notifier(recording_clock, tmp_path):
    """Task A fails once and backs off 5 s; task B completes during that
    backoff.  B resolves before A's retry is sent, the reactor sleeps
    nothing, and the retried attempt still records its own submit span."""
    # 20 ms of wall per nominal second: B's 3 s of slack before A's retry
    # is 60 ms of wall, which host jitter does not eat.
    reset_reactor()
    reset_clock(0.02)
    testbed = build_paper_testbed(seed=42)
    cloud, token, endpoint = _rig(testbed)
    tracer = Tracer()
    set_tracer(tracer)
    sent: list[tuple[float, list[str]]] = []
    submit_batch = cloud.submit_batch

    def recording_submit_batch(token, client_id, items, **kwargs):
        sent.append((recording_clock.now(), [item.chaos_key for item in items]))
        return submit_batch(token, client_id, items, **kwargs)

    cloud.submit_batch = recording_submit_batch
    client = FaasClient(
        cloud,
        token,
        site=testbed.theta_login,
        clock=recording_clock,
        retry_policy=RetryPolicy(max_attempts=3, base_delay=5.0, max_delay=5.0, jitter=0.0),
    )
    b_resolved: list[float] = []
    try:
        with at_site(testbed.theta_login):
            a = client.run(_fail_first, endpoint.endpoint_id, str(tmp_path / "a"))
            b = client.run(_slow, endpoint.endpoint_id, 7)
            b.add_done_callback(lambda _: b_resolved.append(recording_clock.now()))
        assert b.result(timeout=60) == 7
        assert a.result(timeout=60) == "retried"
        assert recording_clock.charged("repro-reactor") == []
    finally:
        client.close()
        endpoint.stop()
    (retry_sent,) = [at for at, keys in sent if any(k.endswith("#a1") for k in keys)]
    assert b_resolved[0] < retry_sent
    spans = tracer.spans()
    submits = Counter(s.trace_id for s in spans if s.name == "cloud.submit")
    assert sorted(submits.values()) == [1, 2]  # B's one, A's first and retry
    assert find_orphans(spans) == []


def test_a_size_triggered_flush_does_not_block_submit(recording_clock):
    """The submit that fills a batch pays its serialization on the caller;
    the flush's API round trip is a timer on the reactor."""
    testbed = build_paper_testbed(seed=5, constants=FIXED)
    cloud, token, endpoint = _rig(testbed, recording_clock)
    client = FaasClient(
        cloud,
        token,
        site=testbed.theta_login,
        clock=recording_clock,
        batch=BatchPolicy(max_batch=2, flush_deadline=600.0, min_hold=600.0),
    )
    me = threading.current_thread().name
    try:
        with at_site(testbed.theta_login):
            func_id = client.register_function(_add)
            first = client.submit(func_id, endpoint.endpoint_id, 1, 1)
            recording_clock.clear()
            second = client.submit(func_id, endpoint.endpoint_id, 2, 2)
            assert recording_clock.charged(me) == [
                serialize_cost(serialize(((2, 2), {})).nominal_size)
            ]
            client.flush_batches()
        assert [first.result(timeout=60), second.result(timeout=60)] == [2, 4]
    finally:
        client.close()
        endpoint.stop()
    # The members ride the submit message (zero-copy), so their bytes are
    # part of the request.
    inline = sum(serialize(((i, i), {})).nominal_size for i in (1, 2))
    request = 2 * WAN + API + testbed.network.transfer_time(
        testbed.theta_login, testbed.faas_cloud, inline
    )
    assert recording_clock.armed("repro-reactor")[0] == pytest.approx(request)
    assert recording_clock.charged("repro-reactor") == []
