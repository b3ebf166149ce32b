"""Tests for the FaaS cloud service semantics."""

import pytest
from conftest import Doorbells, ManualClock

from repro.exceptions import (
    AuthenticationError,
    EndpointUnavailableError,
    PayloadTooLargeError,
    ResultNotReadyError,
    WorkflowError,
)
from repro.faas.auth import SCOPE_COMPUTE, AuthServer
from repro.faas.cloud import FaasCloud, TaskStatus
from repro.serialize import Blob, serialize


def _square(x):
    return x * x


@pytest.fixture
def rig(testbed):
    auth = AuthServer()
    identity = auth.register_identity("u", "anl")
    token = auth.issue_token(identity, {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, testbed.constants)
    endpoint_id = cloud.register_endpoint(token, "theta", testbed.theta_compute)
    return cloud, token, endpoint_id


def test_register_and_fetch_function(rig):
    cloud, token, _ = rig
    func_id = cloud.register_function(token, serialize(_square))
    from repro.serialize import deserialize

    fn = deserialize(cloud.get_function(token, func_id))
    assert fn(3) == 9


def test_unknown_function_rejected(rig):
    cloud, token, _ = rig
    with pytest.raises(WorkflowError):
        cloud.get_function(token, "fn-ghost")
    with pytest.raises(WorkflowError):
        cloud.submit(token, "c", "fn-ghost", rig[2], serialize(((), {})))


def test_submit_requires_auth(rig, testbed):
    cloud, token, endpoint_id = rig
    with pytest.raises(AuthenticationError):
        cloud.submit(None, "c", "fn", endpoint_id, serialize(((), {})))


def test_unknown_endpoint_rejected(rig):
    cloud, token, _ = rig
    func_id = cloud.register_function(token, serialize(_square))
    with pytest.raises(EndpointUnavailableError):
        cloud.submit(token, "c", func_id, "ep-ghost", serialize(((), {})))


def test_payload_cap_enforced(rig):
    cloud, token, endpoint_id = rig
    func_id = cloud.register_function(token, serialize(_square))
    big = serialize(((Blob(50_000_000),), {}))
    with pytest.raises(PayloadTooLargeError):
        cloud.submit(token, "c", func_id, endpoint_id, big)


def test_small_payload_within_cap_accepted(rig):
    cloud, token, endpoint_id = rig
    func_id = cloud.register_function(token, serialize(_square))
    task_id = cloud.submit(token, "c", func_id, endpoint_id, serialize(((2,), {})))
    assert cloud.task(task_id).status is TaskStatus.WAITING


def test_task_lifecycle(rig):
    cloud, token, endpoint_id = rig
    func_id = cloud.register_function(token, serialize(_square))
    task_id = cloud.submit(token, "client-1", func_id, endpoint_id, serialize(((2,), {})))
    doorbells = Doorbells(cloud.bus, "client-1")

    dispatches = cloud.fetch_tasks(token, endpoint_id, 10)
    assert [d.task_id for d in dispatches] == [task_id]
    assert cloud.task(task_id).status is TaskStatus.DISPATCHED

    args = cloud.store.read(dispatches[0].args_locator)
    from repro.serialize import deserialize

    (value,), _ = deserialize(args)
    assert value == 2

    cloud.report_result(token, endpoint_id, task_id, True, serialize({"success": True, "value": 4}))
    record = cloud.task(task_id)
    assert record.status is TaskStatus.SUCCESS
    assert doorbells.take() == [task_id]
    status, payload = cloud.get_result_payload(token, task_id)
    assert status is TaskStatus.SUCCESS
    assert deserialize(payload)["value"] == 4


def test_batched_result_read_fails_per_member(rig):
    """One call, outcomes aligned with the ids: a finished task yields its
    payload; an unfinished or unknown one yields its own error and does not
    fail its batch-mates."""
    cloud, token, endpoint_id = rig
    func_id = cloud.register_function(token, serialize(_square))
    done, waiting = (
        cloud.submit(token, "c", func_id, endpoint_id, serialize(((n,), {})))
        for n in (2, 3)
    )
    cloud.fetch_tasks(token, endpoint_id, 1)
    cloud.report_result(token, endpoint_id, done, True, serialize({"value": 4}))

    outcomes = cloud.get_result_payloads(token, [waiting, done, "task-ghost", done])
    assert [type(o) for o in outcomes] == [
        ResultNotReadyError,  # a WorkflowError the client does not count as a failure
        tuple,
        WorkflowError,
        tuple,
    ]
    assert outcomes[1][0] is TaskStatus.SUCCESS
    assert outcomes[1] == cloud.get_result_payload(token, done)
    with pytest.raises(AuthenticationError):
        cloud.get_result_payloads(None, [done])  # auth covers the whole call


def test_result_before_completion_rejected(rig):
    cloud, token, endpoint_id = rig
    func_id = cloud.register_function(token, serialize(_square))
    task_id = cloud.submit(token, "c", func_id, endpoint_id, serialize(((1,), {})))
    with pytest.raises(WorkflowError):
        cloud.get_result_payload(token, task_id)


def test_wrong_endpoint_cannot_report(rig, testbed):
    cloud, token, endpoint_id = rig
    other = cloud.register_endpoint(token, "venti", testbed.venti)
    func_id = cloud.register_function(token, serialize(_square))
    task_id = cloud.submit(token, "c", func_id, endpoint_id, serialize(((1,), {})))
    cloud.fetch_tasks(token, endpoint_id, 1)
    with pytest.raises(WorkflowError):
        cloud.report_result(token, other, task_id, True, serialize({}))


def test_store_and_forward_while_endpoint_offline(rig):
    cloud, token, endpoint_id = rig
    func_id = cloud.register_function(token, serialize(_square))
    # Endpoint has never polled: tasks queue at the cloud.
    ids = [
        cloud.submit(token, "c", func_id, endpoint_id, serialize(((i,), {})))
        for i in range(3)
    ]
    dispatches = cloud.fetch_tasks(token, endpoint_id, 10)
    assert [d.task_id for d in dispatches] == ids


def test_fetch_respects_max_tasks(rig):
    cloud, token, endpoint_id = rig
    func_id = cloud.register_function(token, serialize(_square))
    for i in range(5):
        cloud.submit(token, "c", func_id, endpoint_id, serialize(((i,), {})))
    first = cloud.fetch_tasks(token, endpoint_id, 2)
    assert len(first) == 2
    rest = cloud.fetch_tasks(token, endpoint_id, 10)
    assert len(rest) == 3


def test_an_empty_fetch_and_feed_answer_at_once(testbed):
    """Nothing waits, so the fetch returns empty and no doorbell rings,
    without moving a clock that only moves when told: the cloud never
    parks its caller."""
    clock = ManualClock()
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
    cloud = FaasCloud(
        testbed.faas_cloud, testbed.network, auth, testbed.constants, clock
    )
    endpoint_id = cloud.register_endpoint(token, "theta", testbed.theta_compute)
    doorbells = Doorbells(cloud.bus, "nobody")
    assert cloud.fetch_tasks(token, endpoint_id, 10) == []
    assert doorbells.take() == []
    assert clock.now() == 0.0


def test_an_empty_completed_feed_answers_none_at_once(rig):
    """A client with nothing completed has no doorbell on its result topic,
    and asking again changes nothing: the bus holds no waiter."""
    cloud, *_ = rig
    doorbells = Doorbells(cloud.bus, "nobody")
    assert doorbells.take() == []
    assert doorbells.take() == []


def test_payload_store_tiers(rig):
    cloud, token, endpoint_id = rig
    tiny = cloud.store.write(serialize("tiny"))
    mid = cloud.store.write(serialize(Blob(10_000)))
    large = cloud.store.write(serialize(Blob(1_000_000)))
    assert tiny.startswith("inline:")
    assert mid.startswith("redis:")
    assert large.startswith("s3:")


def test_unknown_locator(rig):
    cloud, *_ = rig
    with pytest.raises(WorkflowError):
        cloud.store.read("s3:ghost")
