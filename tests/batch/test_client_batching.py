"""Client-side adaptive batching: amortization, bounded latency, splits."""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import BatchPolicy
from repro.chaos.plan import FaultInjector, FaultPlan, FaultSpec, set_injector
from repro.chaos.policy import RetryPolicy
from repro.exceptions import PayloadTooLargeError
from repro.faas import (
    SCOPE_COMPUTE,
    AuthServer,
    FaasClient,
    FaasCloud,
    FaasEndpoint,
)
from repro.net.context import at_site
from repro.observe import MetricsRegistry, set_metrics
from repro.resilience.hedge import HedgePolicy
from repro.resources import WorkerPool


def _add(a, b):
    return a + b


@pytest.fixture
def rig(testbed):
    auth = AuthServer()
    identity = auth.register_identity("u", "anl")
    token = auth.issue_token(identity, {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, testbed.constants)
    pool = WorkerPool(testbed.theta_compute, 4, name="batch-pool")
    endpoint = FaasEndpoint(
        "theta", cloud, token, testbed.theta_login, pool, uplink_batching=True
    ).start()
    yield testbed, cloud, token, endpoint
    endpoint.stop()


def _batched_client(testbed, cloud, token, **kwargs):
    policy = kwargs.pop(
        "policy", BatchPolicy(max_batch=8, flush_deadline=0.05, min_hold=0.002)
    )
    return FaasClient(
        cloud, token, site=testbed.theta_login, batch=policy, **kwargs
    )


def test_batched_storm_amortizes_round_trips(rig):
    testbed, cloud, token, endpoint = rig
    metrics = MetricsRegistry()
    set_metrics(metrics)
    client = _batched_client(testbed, cloud, token)
    try:
        with at_site(testbed.theta_login):
            futures = [
                client.run(_add, endpoint.endpoint_id, i, b=1) for i in range(24)
            ]
        assert [f.result(timeout=60) for f in futures] == list(range(1, 25))
    finally:
        client.close()
    # 24 tasks, max_batch=8: the submit hot path paid ~3 API round trips,
    # not 24 — the counter counts per *call*, not per task.
    assert metrics.counter_total("faas.api_calls") <= 6
    assert metrics.counter_total("cloud.batch_submits") >= 3
    assert metrics.counter_total("cloud.submits") == 24


def test_lone_task_latency_stays_bounded(rig, recording_clock):
    """Regression for the adaptive hold: a single task under an idle
    batcher must not be parked for the full flush deadline — it is held for
    ``min_hold`` only, by the default policy and by an explicit one alike,
    and what the task is charged under the explicit policy stays within
    ``flush_deadline`` + epsilon of the default client's.

    The comparison is between *modelled* seconds (the sleeps charged plus
    the timers armed, the hold among them), not elapsed nominal time: at
    the test time scale a few milliseconds of host noise read as seconds of
    latency."""
    testbed, cloud, token, endpoint = rig
    policy = BatchPolicy(max_batch=64, flush_deadline=0.05, min_hold=0.002)
    me = threading.current_thread().name

    def lone_task_charge(**client_kwargs):
        recording_clock.clear()
        client = FaasClient(
            cloud, token, site=testbed.theta_login, clock=recording_clock, **client_kwargs
        )
        try:
            with at_site(testbed.theta_login):
                assert client.run(_add, endpoint.endpoint_id, 2, b=2).result(timeout=60) == 4
        finally:
            client.close()
        total = sum(recording_clock.charged()) + sum(recording_clock.armed())
        return total, recording_clock.armed(me)

    baseline, holds = lone_task_charge()
    assert holds == [BatchPolicy().min_hold]
    lone, holds = lone_task_charge(batch=policy)
    # The idle batcher's hold collapsed to min_hold ...
    assert holds == [policy.min_hold]
    # ... and batching charged the lone task nothing beyond it; epsilon
    # absorbs the sampled network latencies of two separate runs.
    assert lone <= baseline + policy.flush_deadline + 0.25


def test_rejected_members_split_back_into_singles(rig):
    """A submit-time fault rejects every batch member once; each re-enters
    the retry path as a single and completes under its original future."""
    testbed, cloud, token, endpoint = rig
    metrics = MetricsRegistry()
    set_metrics(metrics)
    injector = FaultInjector(
        FaultPlan.build(
            0,
            (
                FaultSpec(
                    "cloud.submit", "payload_cap", rate=1.0, match={"attempt": 0}
                ),
            ),
        )
    )
    set_injector(injector)
    client = _batched_client(
        testbed,
        cloud,
        token,
        retry_policy=RetryPolicy(max_attempts=4, base_delay=0.05, max_delay=0.5),
    )
    try:
        with at_site(testbed.theta_login):
            futures = [
                client.run(
                    _add, endpoint.endpoint_id, i, b=10, _deadline=120.0
                )
                for i in range(6)
            ]
            client.flush_batches()
        assert [f.result(timeout=60) for f in futures] == [
            i + 10 for i in range(6)
        ]
    finally:
        client.close()
        set_injector(None)
    assert metrics.counter_total("client.batch_splits") == 6
    # Admission rejects: nothing ran, so these are submit retries.
    assert metrics.counter_total("client.submit_retries") == 6
    assert metrics.counter_total("client.retries") == 0
    # Satellite regression: a resubmission reuses the serialized payload —
    # the skip counter moves in lockstep with the retries.
    assert metrics.counter_total("client.serialize_skipped") == 6
    # Per-task metadata survived the split: the (retried) records carry
    # the original tenant and absolute deadline.
    terminal = [r for r in cloud.task_records() if r.status.terminal]
    assert len(terminal) == 6
    assert all(r.tenant == "default" for r in terminal)
    assert all(r.deadline_at is not None for r in terminal)


@settings(max_examples=15, deadline=None)
@given(mask=st.lists(st.booleans(), min_size=1, max_size=12))
def test_split_property_no_member_lost(rig, mask):
    """Property: whatever subset of a batch the cloud rejects, every member
    is either registered in flight (accepted) or handed to the single-task
    resubmit path (rejected) — none vanish, and each keeps its own
    deadline, prefetch hints, and hedge policy."""
    testbed, cloud, token, endpoint = rig
    client = _batched_client(
        testbed,
        cloud,
        token,
        retry_policy=RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.05),
        # Only the explicit flush below may send the batch: a 10 s hold is
        # 20 ms of wall, which one garbage-collector pause can outlast.
        policy=BatchPolicy(max_batch=64, flush_deadline=600.0, min_hold=600.0),
    )
    rejected = len(mask) - sum(mask)
    resubmitted = []
    all_resubmitted = threading.Event()
    hedge = HedgePolicy(endpoints=(endpoint.endpoint_id,))

    calls = []

    def fake_submit_batch(token, client_id, batch, *, tenant, then):
        # The first call is the flushed batch; every later one is a
        # rejected member's resubmission, sent alone and accepted.
        if calls:
            resubmitted.extend(batch)
            outcomes = [f"task-retry{len(calls):06d}"]
        else:
            outcomes = [
                f"task-fake{i:08d}" if accept else PayloadTooLargeError("rejected")
                for i, accept in enumerate(mask)
            ]
        calls.append(batch)
        then(outcomes)
        if len(resubmitted) == rejected:
            all_resubmitted.set()

    cloud.submit_batch = fake_submit_batch
    try:
        with at_site(testbed.theta_login):
            futures = [
                client.submit(
                    "func-x",
                    endpoint.endpoint_id,
                    i,
                    _deadline=500.0,
                    _prefetch_hints=(f"hint-{i}",),
                    _hedge=hedge,
                )
                for i in range(len(mask))
            ]
            client.flush_batches()
        assert all_resubmitted.wait(timeout=10)
        with client._futures_lock:
            in_flight = dict(client._pending)
        accepted = [p for p in in_flight.values() if p.attempt == 0]
        retried = [p for p in in_flight.values() if p.attempt == 1]
        assert len(accepted) == sum(mask)
        assert len(resubmitted) == len(retried) == rejected
        survivors = accepted + retried
        assert len(survivors) == len(futures)
        for pending in survivors:
            index = int(pending.prefetch[0].split("-")[1])
            assert pending.deadline_at is not None
            assert pending.hedge_policy is hedge
            assert futures[index] is pending.future
        # The resubmissions carried the rejected members' own metadata.
        for submission in resubmitted:
            index = int(submission.prefetch[0].split("-")[1])
            assert not mask[index]
            assert submission.chaos_key.endswith("#a1")
            assert submission.deadline_at is not None
        # Every member got its lazily-assigned task id.
        for task_id, pending in in_flight.items():
            assert pending.future.task_id == task_id
    finally:
        del cloud.submit_batch
        with client._futures_lock:
            client._pending.clear()
        client.close()
