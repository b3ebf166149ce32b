"""Campaign cell and router semantics for the shard_crash fault mode.

A shard *crash* is harsher than an outage: the shard's entire in-memory
state — task ledger, queues, payload store — is discarded, and a
replacement is rebuilt from the write-ahead journal.  The cell must keep
the standard invariants (no lost tasks, counters reconciling with the
fault ledger, bit-identical digests across reruns), and a result written
before the crash must still be fetchable afterwards.
"""

import pytest

from repro.chaos.campaign import FAULT_MODES, run_cell
from repro.durable import FileJournalBackend, Journal
from repro.exceptions import WorkflowError
from repro.faas import SCOPE_COMPUTE, AuthServer, FaasClient, FaasEndpoint
from repro.net.context import at_site
from repro.net.fs import FileSystem
from repro.resources import WorkerPool
from repro.serialize import deserialize
from repro.tenancy import CloudRouter, tenant_scope


def _add(a, b):
    return a + b


def test_shard_crash_is_in_the_fault_matrix():
    assert "shard_crash" in FAULT_MODES


def test_shard_crash_no_lost_tasks_and_deterministic_ledger():
    first = run_cell("shard_crash", "faas-file", seed=0)
    rerun = run_cell("shard_crash", "faas-file", seed=0)
    assert first.passed, first.failures
    assert rerun.passed, rerun.failures
    assert first.fires >= 1
    # Every crash destroyed a shard's state and a journal replay rebuilt it.
    assert first.counters["cloud.shard_crashes"] == first.fires
    assert first.counters["durable.recoveries"] == first.fires
    # The crash surfaces as a throttle the client absorbs; the task-retry
    # machinery never engages, so no task runs twice.
    assert first.counters["client.retries"] == 0
    assert first.digest == rerun.digest


@pytest.fixture
def rig(testbed):
    auth = AuthServer()
    identity = auth.register_identity("u", "anl")
    wal = FileSystem("shard-wal", op_latency=1e-3)
    router = CloudRouter(
        testbed.faas_cloud,
        testbed.network,
        auth,
        testbed.constants,
        n_shards=2,
        journal_factory=lambda shard_id: Journal(
            FileJournalBackend(wal, shard_id), name=shard_id
        ),
    )
    router.create_tenant("alice")
    endpoint_token = auth.issue_token(identity, {SCOPE_COMPUTE})
    token = auth.issue_token(identity, {SCOPE_COMPUTE, tenant_scope("alice")})
    pool = WorkerPool(testbed.theta_compute, 2, name="crash-pool")
    endpoint = FaasEndpoint(
        "theta", router, endpoint_token, testbed.theta_login, pool
    ).start()
    client = FaasClient(router, token, site=testbed.theta_login, tenant="alice")
    yield testbed, router, endpoint, client, token
    client.close()
    endpoint.stop()


def test_results_survive_a_state_destroying_shard_crash(rig):
    """Regression: a result uplinked before the crash stays fetchable after
    the shard's in-memory state (payload store included) is destroyed."""
    testbed, router, endpoint, client, token = rig
    with at_site(testbed.theta_login):
        futures = [client.run(_add, endpoint.endpoint_id, i, 10) for i in range(6)]
    assert [f.result(timeout=60) for f in futures] == [i + 10 for i in range(6)]

    owners = {record.task_id.split("-")[1] for record in router.task_records()}
    for shard_id in router.shard_ids:
        report = router.crash_shard(shard_id)
        # A shard's log holds its functions and tasks; endpoints are in the
        # fabric's table, so a shard that owns neither has nothing to replay.
        assert (report.replayed > 0) == (shard_id in owners)
        assert report.released == 0  # nothing was in flight

    records = router.task_records()
    assert len(records) == 6  # zero lost tasks
    assert all(record.status.terminal for record in records)
    for record in records:
        _status, payload = router.get_result_payload(token, record.task_id)
        assert deserialize(payload)["success"]

    # The rebuilt shards keep admitting and completing new work.
    with at_site(testbed.theta_login):
        future = client.run(_add, endpoint.endpoint_id, 40, 2)
    assert future.result(timeout=60) == 42


def test_crash_without_a_journal_is_unrecoverable(testbed):
    auth = AuthServer()
    router = CloudRouter(
        testbed.faas_cloud, testbed.network, auth, testbed.constants, n_shards=2
    )
    with pytest.raises(WorkflowError):
        router.crash_shard(next(iter(router.shard_ids)))
