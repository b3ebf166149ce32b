"""Client-side durability: named timeout constants, kill(), and attach().

A campaign-process crash abandons the client without the orderly ack-drain
of ``close()``: ``kill()`` models that, leaving the broker subscription's
unacked frontier intact so a successor client constructed with the *same*
``client_id`` resumes deliveries where the dead one stopped.  ``attach``
re-binds a future to a task the dead client submitted — including tasks
that completed while nobody was listening.
"""

import pytest

from repro.exceptions import TaskError
from repro.faas import (
    SCOPE_COMPUTE,
    AuthServer,
    FaasClient,
    FaasCloud,
    FaasEndpoint,
)
from repro.net.context import at_site
from repro.net.defaults import CLIENT_CLOSE_TIMEOUT
from repro.resources import WorkerPool


def _add(a, b):
    return a + b


def _fail():
    raise ValueError("remote boom")


@pytest.fixture
def rig(testbed):
    auth = AuthServer()
    identity = auth.register_identity("u", "anl")
    token = auth.issue_token(identity, {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, testbed.constants)
    pool = WorkerPool(testbed.theta_compute, 3, name="test-pool")
    endpoint = FaasEndpoint("theta", cloud, token, testbed.theta_login, pool).start()
    client = FaasClient(cloud, token, site=testbed.theta_login)
    yield testbed, cloud, endpoint, client, token
    client.close()
    endpoint.stop()


def test_timeout_constants_are_named_defaults_and_overridable(rig):
    testbed, cloud, _endpoint, client, token = rig
    assert client._close_timeout == CLIENT_CLOSE_TIMEOUT
    tuned = FaasClient(cloud, token, site=testbed.theta_login, close_timeout=2.0)
    try:
        assert tuned._close_timeout == 2.0
    finally:
        tuned.close()


def test_client_id_is_generated_or_settable(rig):
    testbed, cloud, _endpoint, client, token = rig
    assert client.client_id.startswith("client-")
    named = FaasClient(cloud, token, site=testbed.theta_login, client_id="campaign-7")
    try:
        assert named.client_id == "campaign-7"
    finally:
        named.close()


def test_kill_then_attach_delivers_the_result_exactly_once(rig):
    testbed, cloud, endpoint, client, token = rig
    with at_site(testbed.theta_login):
        orphan = client.run(_add, endpoint.endpoint_id, 20, 22)
        client.flush_batches()  # the id exists once the submit has gone out
    task_id = orphan.task_id
    client.kill()  # process death: no ack drain, pending table dropped
    assert not orphan.done()

    successor = FaasClient(
        cloud, token, site=testbed.theta_login, client_id=client.client_id
    )
    try:
        future = successor.attach(task_id, endpoint_id=endpoint.endpoint_id)
        assert future.result(timeout=60) == 42
        assert future.task_id == task_id
    finally:
        successor.close()


def test_attach_to_an_already_terminal_task_completes_inline(rig):
    testbed, cloud, endpoint, client, token = rig
    with at_site(testbed.theta_login):
        done = client.run(_add, endpoint.endpoint_id, 1, 2)
    assert done.result(timeout=60) == 3
    client.kill()

    successor = FaasClient(
        cloud, token, site=testbed.theta_login, client_id=client.client_id
    )
    try:
        # The task finished before the successor existed: attach must not
        # wait for a notification that already came and went.
        future = successor.attach(done.task_id, endpoint_id=endpoint.endpoint_id)
        assert future.result(timeout=60) == 3
    finally:
        successor.close()


def test_attach_surfaces_remote_failures_without_resubmitting(rig):
    testbed, cloud, endpoint, client, token = rig
    with at_site(testbed.theta_login):
        doomed = client.run(_fail, endpoint.endpoint_id)
    with pytest.raises(TaskError):
        doomed.result(timeout=60)
    client.kill()

    successor = FaasClient(
        cloud, token, site=testbed.theta_login, client_id=client.client_id
    )
    try:
        # Without the original args payload there is nothing to resubmit:
        # the terminal error must surface directly on the attached future.
        future = successor.attach(doomed.task_id, endpoint_id=endpoint.endpoint_id)
        with pytest.raises(TaskError) as excinfo:
            future.result(timeout=60)
        assert "remote boom" in str(excinfo.value)
    finally:
        successor.close()


def test_kill_is_reentrant_and_drops_pending(rig):
    testbed, cloud, endpoint, client, token = rig
    with at_site(testbed.theta_login):
        client.run(_add, endpoint.endpoint_id, 1, 1)
    client.kill()
    client.kill()  # idempotent: a crash cleanup path may run twice
    assert not client._pending
