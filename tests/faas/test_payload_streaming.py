"""Payloads follow the batch: one WAN latency and one store round per
fetched round and per downloaded round, everything else per task.

The hops under test are the endpoint's argument download
(``FaasEndpoint._dispatch``) and the client's result download
(``FaasClient._handle_completions``).  Latencies are fixed, so every
modelled charge is an exact number and the tests compare charge lists, not
elapsed time.
"""

from __future__ import annotations

import threading
import time

import pytest
from conftest import Doorbells, ManualClock, ManualReactor, record_downloads

from repro.chaos.plan import FaultInjector, FaultPlan, FaultSpec, set_injector
from repro.chaos.policy import RetryPolicy
from repro.durable import FileJournalBackend, Journal
from repro.exceptions import WorkflowError
from repro.faas import (
    SCOPE_COMPUTE,
    AuthServer,
    FaasClient,
    FaasCloud,
    FaasEndpoint,
)
from repro.faas.cloud import result_topic
from repro.net.context import at_site
from repro.net.defaults import PaperConstants, build_paper_testbed
from repro.net.fs import FileSystem
from repro.net.topology import FixedLatency
from repro.observe import (
    MetricsRegistry,
    Tracer,
    find_orphans,
    set_metrics,
    set_tracer,
)
from repro.resources import WorkerPool
from repro.serialize import Blob, borrow, deserialize_cost, serialize, serialize_cost

WAN = 0.028
REDIS = 0.25
API = 0.012
FIXED = PaperConstants(
    cloud_latency=FixedLatency(WAN),
    faas_api_latency=FixedLatency(API),
    faas_redis_latency=FixedLatency(REDIS),
    intra_facility_latency=FixedLatency(0.0002),
    # Generous: lease expiry is not under test and 15 s is 30 ms of wall;
    # renewals would charge the reactor thread a deadline flush is read off.
    endpoint_lease_ttl=600.0,
    endpoint_heartbeat_period=300.0,
)
#: Lands every argument and result payload in the redis tier (4 kB..20 kB).
PAD = 10_000
#: The timer that carries a submit's answer back to the client.
SUBMIT_RESPONSE = (
    "FaasClient._submit_leg.<locals>.send.<locals>.answer.<locals>.<lambda>"
)


def _echo(index, pad):
    return index, pad


class Rig:
    """A cloud plus one endpoint and one client, all charging through the
    recording clock.  ``run_endpoint=False`` leaves the agent unstarted so a
    test can drive the cloud's endpoint-side API by hand."""

    def __init__(self, clock, *, run_endpoint=True, cloud_cls=FaasCloud, **client_kwargs):
        self.clock = clock
        self.metrics = MetricsRegistry()
        set_metrics(self.metrics)
        self.testbed = build_paper_testbed(seed=5, constants=FIXED)
        auth = AuthServer()
        self.token = auth.issue_token(
            auth.register_identity("u", "anl"), {SCOPE_COMPUTE}
        )
        self.cloud = cloud_cls(
            self.testbed.faas_cloud, self.testbed.network, auth, FIXED, clock
        )
        self.pool = WorkerPool(self.testbed.theta_compute, 4, name="stream-pool")
        self.endpoint = FaasEndpoint(
            "theta",
            self.cloud,
            self.token,
            self.testbed.theta_login,
            self.pool,
            clock=clock,
        )
        if run_endpoint:
            self.endpoint.start()
        else:
            self.pool.start()
        self.ep_id = self.endpoint.endpoint_id
        self.client_kwargs = client_kwargs
        self.client = self.new_client()
        with at_site(self.testbed.theta_login):
            self.func_id = self.client.register_function(_echo)

    def new_client(self, **kwargs):
        client = FaasClient(
            self.cloud,
            self.token,
            site=self.testbed.theta_login,
            clock=self.clock,
            **{**self.client_kwargs, **kwargs},
        )
        self.downloads = record_downloads(client)
        return client

    def clear(self):
        """Forget every charge, timer and download round recorded so far."""
        self.clock.clear()
        del self.downloads[:]

    def submit(self, index):
        with at_site(self.testbed.theta_login):
            return self.client.submit(self.func_id, self.ep_id, index, Blob(PAD))

    def submit_now(self, *indexes):
        """Submit and flush as ONE batch: on return the tasks are queued at
        the cloud and every ``future.task_id`` is set."""
        futures = [self.submit(index) for index in indexes]
        self.client.flush_batches()
        return futures

    def transfer(self, nbytes):
        """One streamed response over the cloud link: a latency plus bytes."""
        return WAN + nbytes / FIXED.cloud_bandwidth

    def args_size(self, task_id):
        record = self.cloud.task(task_id)
        return self.cloud.store.raw(record.args_locator).payload.nominal_size

    def result_size(self, task_id):
        record = self.cloud.task(task_id)
        return self.cloud.store.raw(record.result_locator).payload.nominal_size

    # -- the endpoint side of the cloud API, by hand -------------------------
    def fetch(self):
        return self.cloud.fetch_tasks(self.token, self.ep_id, 32)

    def report(self, *task_ids, value="done", coalesced=True):
        """Report results as the endpoint would: in ONE batched uplink (one
        coalesced doorbell; sub-20 kB results ride it inline), or one call
        and one doorbell per task (results land in the redis tier)."""
        results = [
            (task_id, True, serialize({"success": True, "value": (value, Blob(PAD))}))
            for task_id in task_ids
        ]
        if coalesced:
            self.cloud.report_results(
                self.token, self.ep_id, [(t, ok, borrow(p)) for t, ok, p in results]
            )
        else:
            for result in results:
                self.cloud.report_result(self.token, self.ep_id, *result)

    def histogram(self, name):
        return [
            value
            for hist_name, _labels, hist in self.metrics.histograms()
            if hist_name == name
            for value in hist.values()
        ]

    def close(self):
        if self.client._running:  # neither closed nor killed by the test
            self.client.close()
        self.endpoint.stop()
        self.pool.stop()
        set_injector(None)


@pytest.fixture
def make_rig(recording_clock):
    rigs = []

    def make(**kwargs):
        rigs.append(Rig(recording_clock, **kwargs))
        return rigs[-1]

    yield make
    for rig in rigs:
        rig.close()


def _wait_for(predicate, wall_seconds=30.0):
    deadline = time.monotonic() + wall_seconds
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


class _Gate:
    """Re-attaches a client's result listener on ``set()``."""

    def __init__(self, client):
        self._client = client

    def set(self):
        self._client._consumer.attach(self._client._on_results, self._client._on_lapse)


def _hold_notifier(rig):
    """Detach the client's result listener once it has planned the next
    round; returns the gate that re-attaches it.  Whatever completes
    meanwhile is announced by doorbells the broker hands the listener
    together, in one round.  (Parking inside the listener instead would
    park the reactor, and every landing with it.)"""
    parked = threading.Event()
    plan = rig.client._plan_round

    def park(*args):
        plan(*args)
        if not parked.is_set():
            rig.client._consumer.detach()
            parked.set()

    rig.client._plan_round = park
    rig.submit_now(-1)
    if not rig.endpoint._running:
        (dispatch,) = rig.fetch()
        rig.report(dispatch.task_id)
    assert parked.wait(30)
    return _Gate(rig.client)


def _all_terminal(rig, futures):
    return all(rig.cloud.task(f.task_id).status.terminal for f in futures)


# -- a round of one is the single path ---------------------------------------------
def test_lone_task_charges_what_the_single_path_always_has(make_rig):
    """k=1 on both hops, in the real delivery path: the task's way to the
    worker and the download's charges, number for number.  The task is
    pushed when its submit lands, so its way to the agent is one WAN leg
    (the push), where a fetch paid two (a request and a response); then
    the same redis read plus one streamed response, all timers the reactor
    arms, not sleeps on an agent thread.  The push goes out when the
    submit lands at the cloud, while the submit's response leg is still on
    its way back to the client.  The agent's credit comes back one
    more WAN leg after the push lands, which no task waits on.  The result
    download is a landing on the reactor, not a sleep: the same push, read,
    response and deserialization."""
    rig = make_rig()
    rig.submit(0).result(timeout=60)  # warm-up: the endpoint caches the function
    rig.clear()
    future = rig.submit(1)
    assert future.result(timeout=60)[0] == 1
    task_id = future.task_id

    size = rig.result_size(task_id)
    downloaded = [
        WAN,  # notification push
        REDIS,  # result read
        rig.transfer(size),
        deserialize_cost(size),
    ]
    assert rig.clock.charged("repro-reactor") == []
    assert rig.clock.armed_calls("repro-reactor")[2:6] == [
        (SUBMIT_RESPONSE, WAN),  # the submit's answer, off the task's path
        ("FaasEndpoint._in_hand", WAN),  # the push
        ("FaasEndpoint._return_credit", WAN),  # off the task's path
        (
            "Round._step",
            pytest.approx(REDIS + rig.transfer(rig.args_size(task_id))),
        ),  # argument read
    ]
    assert rig.clock.armed("repro-reactor")[-1] == pytest.approx(sum(downloaded))
    (download,) = rig.downloads
    assert download.charges == downloaded


def test_lone_task_charges_on_the_submit_and_uplink_hops(make_rig):
    """k=1 on the other two hops: a lone submit and a lone uplink each pay
    one API round trip and one redis write — the numbers the singular path
    per hop always charged — but the cloud acts when the request arrives:
    the request leg (one WAN plus the API's processing) comes before the
    store write, the response leg (one WAN) after it.  The submit's are no
    longer the caller's: it paid for serialization and was handed its
    future; the hold timer's flush pays the WAN and the store, as timers it
    arms on the reactor.  The uplink's are no thread's sleeps either: the
    outbox drain arms the request on the reactor, the landed request the
    result write, and the next drain waits out the response."""
    rig = make_rig()
    rig.submit(0).result(timeout=60)  # warm-up
    rig.clear()
    future = rig.submit(1)
    assert future.result(timeout=60)[0] == 1

    me = threading.current_thread().name
    assert rig.clock.charged(me) == [serialize_cost(rig.args_size(future.task_id))]
    assert rig.clock.charged("repro-reactor") == []
    armed = rig.clock.armed_calls("repro-reactor")
    assert armed[:3] == [
        ("FaasClient._submit_leg.<locals>.send.<locals>.<lambda>", WAN + API),
        ("Round._step", REDIS),  # argument write: 10 kB is not borrowed
        (SUBMIT_RESPONSE, WAN),
    ]
    # (between them the push, the credit return and the argument read)
    assert armed[6:9] == [
        ("FaasEndpoint._uplink_batch.<locals>.arrived", WAN + API),
        ("Round._step", REDIS),  # result write: a lone result is not borrowed
        ("FaasEndpoint._drain_outbox", WAN),
    ]


def test_cloud_singular_calls_charge_one_write_and_one_fsync_each(recording_clock):
    """``FaasCloud.submit`` and ``report_result`` with a journal attached:
    a redis write and one WAL append each, the append charged for exactly
    the bytes it added (passes unchanged on the commit before the collapse,
    whose flat records are a few bytes shorter)."""
    testbed = build_paper_testbed(seed=5, constants=FIXED)
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
    wal = FileSystem("wal", clock=recording_clock)
    journal = Journal(FileJournalBackend(wal, "cloud"))
    cloud = FaasCloud(
        testbed.faas_cloud, testbed.network, auth, FIXED, recording_clock, journal=journal
    )
    ep_id = cloud.register_endpoint(token, "theta", testbed.theta_compute)
    func_id = cloud.register_function(token, serialize(_echo))
    doorbells = Doorbells(cloud.bus, "client-1")

    def fsync(grew_by):
        return wal.op_latency + grew_by / wal.write_bandwidth

    del recording_clock.charges[:]
    before = journal.log_bytes()
    task_id = cloud.submit(token, "client-1", func_id, ep_id, serialize(((1, Blob(PAD)), {})))
    submitted = journal.log_bytes()
    assert recording_clock.charged() == [REDIS, fsync(submitted - before)]
    assert cloud.task(task_id).args_locator.startswith("redis:")

    (dispatch,) = cloud.fetch_tasks(token, ep_id, 32)  # journals the lease
    del recording_clock.charges[:]
    before = journal.log_bytes()
    result = serialize({"success": True, "value": (1, Blob(PAD))})
    cloud.report_result(token, ep_id, dispatch.task_id, True, result)
    assert recording_clock.charged() == [REDIS, fsync(journal.log_bytes() - before)]
    assert cloud.task(task_id).result_locator.startswith("redis:")
    assert doorbells.take() == [task_id]


# -- no loop sleeps through a round trip ---------------------------------------------
@pytest.mark.parametrize("k", [1, 3])
def test_the_uplink_thread_sleeps_through_no_round(make_rig, k):
    """The outbox drain — here the one ``start()`` rings — arms its
    round's request leg on the reactor, the landed request the result
    write and the next drain one response leg later.  Together the timers
    are what an uplink thread used to sleep: an API call, plus a redis
    write for a lone (unborrowed) result."""
    rig = make_rig(run_endpoint=False)
    futures = rig.submit_now(*range(k))
    result = serialize({"success": True, "value": ("done", Blob(PAD))})
    for dispatch in rig.fetch():  # already done: the uplink takes all k at once
        rig.endpoint._outbox.put((dispatch.task_id, True, result, dispatch.trace_ctx))
    rig.clear()
    rig.endpoint.start()
    assert [f.result(timeout=60)[0] for f in futures] == ["done"] * k

    armed = rig.clock.armed_calls("repro-reactor")
    assert rig.clock.charged("repro-reactor") == []
    assert armed.count(("FaasEndpoint._uplink_batch.<locals>.arrived", WAN + API)) == 1
    assert armed.count(("FaasEndpoint._drain_outbox", WAN)) == 1
    assert [s for _fn, s in armed].count(REDIS) == (1 if k == 1 else 0)


def test_the_notifier_sleeps_through_no_download(make_rig):
    """A download round is a landing on the notifier's schedule: nothing is
    slept, and the task's ``result.download`` span ends exactly at the push,
    the read, the response and the deserialization."""
    tracer = Tracer()
    set_tracer(tracer)
    rig = make_rig(run_endpoint=False)
    (future,) = rig.submit_now(0)
    (dispatch,) = rig.fetch()
    rig.clear()
    rig.report(dispatch.task_id, coalesced=False)  # one redis-tier result
    assert future.result(timeout=60)[0] == "done"

    assert rig.clock.charged("faas-client-notify") == []
    size = rig.result_size(future.task_id)
    (span,) = [s for s in tracer.spans() if s.name == "result.download"]
    assert span.end - span.start == pytest.approx(
        WAN + REDIS + rig.transfer(size) + deserialize_cost(size), rel=1e-12, abs=0
    )


def test_a_heartbeat_tick_sleeps_nothing_on_the_reactor(make_rig):
    """The tick arms the heartbeat call behind its request leg instead of
    sleeping the round trip on the thread every timer in the process
    shares: the lease renews when the beat reaches the cloud."""
    rig = make_rig()
    expiry = rig.cloud.fabric.endpoints.lease(rig.ep_id)
    rig.clear()
    assert rig.endpoint._heartbeat_tick() is True  # as the reactor fires it
    me = threading.current_thread().name
    assert rig.clock.charged(me) == []
    assert rig.clock.armed(me) == [WAN + API]
    _wait_for(lambda: rig.cloud.fabric.endpoints.lease(rig.ep_id) > expiry)


class _RefusesTheFirstReport(FaasCloud):
    """Answers the first result it is sent with a foreign-report error, as
    if another endpoint owned the task (the report itself still lands)."""

    refused = None

    def report_results(self, token, endpoint_id, results, *, then=None):
        if self.refused is None:
            self.refused = results[0][0]

        def answer(outcomes):
            return [
                WorkflowError(f"endpoint {endpoint_id} reported a foreign task")
                if task_id == self.refused
                else outcome
                for (task_id, _ok, _payload), outcome in zip(results, outcomes)
            ]

        if then is None:
            return answer(super().report_results(token, endpoint_id, results))
        return super().report_results(
            token, endpoint_id, results, then=lambda outcomes: then(answer(outcomes))
        )


def test_a_refused_report_does_not_end_the_uplink(make_rig):
    """A protocol violation used to kill the uplink thread silently: every
    later result sat in the outbox while the lease was still renewed, and
    ``stop()`` returned normally.  Now it is counted, the uplink goes on,
    and ``stop()`` raises it."""
    rig = make_rig(cloud_cls=_RefusesTheFirstReport)
    rig.submit(0).result(timeout=60)
    assert rig.submit(1).result(timeout=10)[0] == 1  # a later result
    assert rig.metrics.counter_total("endpoint.uplink_errors") == 1
    with pytest.raises(WorkflowError, match="foreign task"):
        rig.endpoint.stop()


def test_doorbell_without_a_result_behind_it_is_not_a_failed_attempt(make_rig):
    """A shard instance discarded by a crash can still ring a doorbell for a
    result its replacement never saw (found as 1 in 50 ``shard_crash`` chaos
    cells burning a client retry).  The task is in flight, not failed: the
    client keeps waiting and the real completion settles the future."""
    rig = make_rig(run_endpoint=False)
    (future,) = rig.submit_now(7)
    rig.cloud.bus.publish(result_topic(rig.client.client_id), future.task_id)
    _wait_for(lambda: rig.metrics.counter_total("client.spurious_doorbells") == 1)
    assert not future.done()

    (dispatch,) = rig.fetch()
    rig.report(dispatch.task_id)
    assert future.result(timeout=60)[0] == "done"
    assert rig.metrics.counter_total("client.retries") == 0


def test_a_completion_announced_while_a_spurious_download_lands_is_delivered(
    make_rig, monkeypatch
):
    """The ``shard_crash`` chaos cell's lost task (about 1 in 12 cells beside
    two busy loops): a crash-discarded shard's doorbell sent the client to
    download a task still in flight, and the real completion's doorbell came
    while that download was landing.  Finding no pending entry, it was
    parked as an early arrival; the spurious download then re-registered the
    task without looking at what was parked, so the future waited forever."""
    rig = make_rig(run_endpoint=False)
    (future,) = rig.submit_now(7)
    (dispatch,) = rig.fetch()
    reactor = ManualReactor(ManualClock())
    monkeypatch.setattr("repro.batch.round.get_reactor", lambda: reactor)
    rig.client._handle_completions([future.task_id])  # the discarded shard's
    rig.report(dispatch.task_id)  # the real completion, while that one lands
    _wait_for(lambda: future.task_id in rig.client._early)

    reactor.run()  # ResultNotReadyError, then the parked completion

    assert future.done() and future.result()[0] == "done"
    assert rig.metrics.counter_total("client.spurious_doorbells") == 1
    assert rig.client._early == {}


def test_malformed_doorbell_does_not_kill_the_notifier(make_rig):
    """An exception escaping the result listener would reach the reactor
    (and, when the listener was a thread, ended it and stranded every
    future of the client behind it).  A doorbell that is not an id list is
    counted, acked and skipped; its neighbours are delivered."""
    rig = make_rig(run_endpoint=False)
    topic = result_topic(rig.client.client_id)
    first, second = rig.submit_now(0, 1)
    one, two = rig.fetch()
    rig.report(one.task_id)
    rig.cloud.bus.publish(topic, None)  # not a string: nothing to split
    rig.report(two.task_id)
    assert first.result(timeout=60)[0] == "done"
    assert second.result(timeout=60)[0] == "done"
    _wait_for(lambda: rig.metrics.counter_total("client.notify_errors") == 1)
    assert rig.metrics.counter_total("reactor.callback_errors") == 0
    rig.client.close()
    assert rig.cloud.bus.unacked(topic, rig.client.client_id) == []


# -- the fetched round -------------------------------------------------------------
def test_fetched_round_pays_one_latency_for_all_arguments(make_rig):
    rig = make_rig(run_endpoint=False)
    futures = rig.submit_now(0, 1, 2)
    dispatches = rig.fetch()
    assert len(dispatches) == 3
    rig.endpoint._functions[rig.func_id] = _echo  # keep the function fetch out
    rig.clock.clear()
    rig.endpoint._dispatch(dispatches)

    sizes = [rig.args_size(f.task_id) for f in futures]
    me = threading.current_thread().name
    # ONE pipelined store round and ONE WAN latency, and the dispatching
    # thread waits for neither: each member lands after the round's redis
    # wait, the latency and its own bytes -- here all three at once, so the
    # round is one reactor timer.
    assert rig.clock.charged(me) == []
    assert len(set(sizes)) == 1
    assert rig.clock.armed(me) == [pytest.approx(REDIS + rig.transfer(sizes[0]))]
    assert rig.histogram("endpoint.push_size") == [3]


def test_store_fault_on_a_fetched_member_fails_only_that_member(make_rig):
    rig = make_rig(retry_policy=RetryPolicy(max_attempts=3, base_delay=0.05))
    rig.submit(-1).result(timeout=60)  # warm-up
    rig.endpoint.pause()
    futures = [rig.submit(i) for i in range(3)]
    injector = FaultInjector(
        FaultPlan.build(0, [FaultSpec("cloud.store.read", "store_corrupt", max_fires=1)])
    )
    set_injector(injector)
    rig.endpoint.resume()
    assert [f.result(timeout=60)[0] for f in futures] == [0, 1, 2]

    assert 3 in rig.histogram("endpoint.push_size")
    assert injector.fire_count(hook="cloud.store.read") == 1
    # One member's download failed: one dispatch error, one burned attempt,
    # and nobody else in the round was touched or re-executed.
    assert rig.metrics.counter_total("endpoint.dispatch_errors") == 1
    assert rig.metrics.counter_total("client.retries") == 1
    assert rig.metrics.counter_total("endpoint.executions") == 4  # warm-up + 3


# -- the downloaded round ----------------------------------------------------------
def test_downloaded_round_pays_one_latency_for_all_results(make_rig):
    """Three doorbells of one id each, picked up in one round: one push
    latency, one store round and one streamed response, three
    deserializations."""
    rig = make_rig(run_endpoint=False)
    gate = _hold_notifier(rig)
    futures = rig.submit_now(0, 1, 2)
    task_ids = [d.task_id for d in rig.fetch()]
    rig.report(*task_ids, coalesced=False)
    rig.clear()
    gate.set()
    assert [f.result(timeout=60)[0] for f in futures] == ["done"] * 3

    sizes = [rig.result_size(task_id) for task_id in task_ids]
    assert rig.clock.charged("faas-client-notify") == []
    (download,) = rig.downloads
    assert download.charges == [
        WAN,  # ONE notification push
        REDIS,  # ONE pipelined store round for the three reads
        rig.transfer(sum(sizes)),  # ONE streamed response
        *[deserialize_cost(size) for size in sizes],
    ]
    assert rig.histogram("client.download_batch_size") == [1, 3]
    # Every envelope was acked once its ids had been settled.
    topic = result_topic(rig.client.client_id)
    rig.client.close()
    assert rig.cloud.bus.unacked(topic, rig.client.client_id) == []


def test_coalesced_doorbell_is_one_round(make_rig):
    rig = make_rig(run_endpoint=False)
    futures = rig.submit_now(0, 1, 2)
    task_ids = [d.task_id for d in rig.fetch()]
    rig.clear()
    rig.report(*task_ids)
    assert [f.result(timeout=60)[0] for f in futures] == ["done"] * 3

    sizes = [rig.result_size(task_id) for task_id in task_ids]
    # The batched uplink carried the results inline: no store-tier charge.
    assert rig.clock.charged("faas-client-notify") == []
    (download,) = rig.downloads
    assert download.charges == [
        WAN,
        rig.transfer(sum(sizes)),
        *[deserialize_cost(size) for size in sizes],
    ]
    assert rig.histogram("client.download_batch_size") == [3]


def test_store_fault_on_a_downloaded_member_fails_only_that_member(make_rig):
    rig = make_rig(retry_policy=RetryPolicy(max_attempts=3, base_delay=0.05))
    gate = _hold_notifier(rig)
    futures = rig.submit_now(0, 1, 2)
    _wait_for(lambda: _all_terminal(rig, futures))
    executed = rig.metrics.counter_total("endpoint.executions")
    injector = FaultInjector(
        FaultPlan.build(0, [FaultSpec("cloud.store.read", "store_corrupt", max_fires=1)])
    )
    set_injector(injector)
    gate.set()
    assert [f.result(timeout=60)[0] for f in futures] == [0, 1, 2]

    assert 3 in rig.histogram("client.download_batch_size")
    assert injector.fire_count(hook="cloud.store.read") == 1
    assert rig.metrics.counter_total("client.retries") == 1
    # The two healthy members settled from the one download: only the
    # corrupt one ran again.
    assert rig.metrics.counter_total("endpoint.executions") == executed + 1


# -- delivery guarantees across the merged round ------------------------------------
class _DiesAfterDownload(FaasCloud):
    """The client process dies with a round downloading: ``victim`` is
    killed once its round is planned, so nothing is settled or acked."""

    victim = None

    def download_round(self, token, task_ids):
        round_ = super().download_round(token, task_ids)
        if self.victim is not None:
            self.victim.kill()
        return round_


def test_kill_between_download_and_ack_redelivers_every_unsettled_id(make_rig):
    rig = make_rig(run_endpoint=False, cloud_cls=_DiesAfterDownload, client_id="campaign")
    doomed = rig.submit_now(0, 1, 2)
    task_ids = [d.task_id for d in rig.fetch()]
    rig.cloud.victim = rig.client
    rig.report(*task_ids)
    _wait_for(lambda: rig.client._killed)
    rig.cloud.victim = None
    assert not any(f.done() for f in doomed)
    # The round's envelope was never acked: the broker still owes it.
    topic = result_topic("campaign")
    assert rig.cloud.bus.unacked(topic, "campaign") != []

    successor = rig.new_client()
    try:
        adopted = [successor.attach(task_id, endpoint_id=rig.ep_id) for task_id in task_ids]
        assert [f.result(timeout=60)[0] for f in adopted] == ["done"] * 3
    finally:
        successor.close()
    assert rig.cloud.bus.unacked(topic, "campaign") == []


def test_hedge_winner_and_loser_in_one_round_resolve_the_future_once(make_rig):
    from repro.resilience import HedgePolicy

    rig = make_rig(run_endpoint=False)
    other = rig.cloud.register_endpoint(rig.token, "spare", rig.testbed.theta_compute)
    with at_site(rig.testbed.theta_login):
        future = rig.client.submit(
            rig.func_id,
            rig.ep_id,
            7,
            Blob(PAD),
            _hedge=HedgePolicy(endpoints=(other,), delay=0.5),
        )
        rig.client.flush_batches()
    _wait_for(lambda: rig.metrics.counter_total("client.hedges_launched") == 1)
    (primary,) = rig.fetch()
    (hedge,) = rig.cloud.fetch_tasks(rig.token, other, 32)
    gate = _hold_notifier(rig)
    # Both legs finish while the notifier is away; the hedge reports first.
    rig.cloud.report_result(
        rig.token, other, hedge.task_id, True, serialize({"success": True, "value": "hedge"})
    )
    rig.report(primary.task_id, value="primary")
    gate.set()

    assert future.result(timeout=60) == "hedge"
    assert 2 in rig.histogram("client.download_batch_size")
    assert rig.metrics.counter_total("client.hedges") == 1  # won, once
    # The notifier survived settling both legs (a second set_result would
    # have killed it) and still delivers.
    (follow_up,) = rig.submit_now(8)
    (dispatch,) = rig.fetch()
    rig.report(dispatch.task_id)
    assert follow_up.result(timeout=60)[0] == "done"


# -- observability -------------------------------------------------------------------
def test_every_task_keeps_its_own_fetch_and_download_span(make_rig):
    tracer = Tracer()
    set_tracer(tracer)
    rig = make_rig()
    gate = _hold_notifier(rig)
    rig.endpoint.pause()
    futures = rig.submit_now(0, 1, 2)
    rig.endpoint.resume()  # one fetched round of three ...
    _wait_for(lambda: _all_terminal(rig, futures))
    gate.set()  # ... and one downloaded round of three
    assert [f.result(timeout=60)[0] for f in futures] == [0, 1, 2]

    spans = tracer.spans()
    assert find_orphans(spans) == []
    for future in futures:
        trace_id = rig.cloud.task(future.task_id).trace_ctx[0]
        mine = [s for s in spans if s.trace_id == trace_id]
        for name in ("endpoint.fetch", "result.download"):
            (span,) = [s for s in mine if s.name == name]
            assert span.tags["batch_size"] == 3
            assert span.parent_id is not None and span.end >= span.start
