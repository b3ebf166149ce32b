"""Batched WAL records stay per-task-replayable across a crash."""

from __future__ import annotations

import pytest

from repro.durable import FileJournalBackend, Journal, recover_cloud
from repro.faas.auth import SCOPE_COMPUTE, AuthServer
from repro.faas.cloud import FaasCloud, TaskStatus, TaskSubmission
from repro.net.fs import FileSystem
from repro.serialize import deserialize, serialize


def _square(x):
    return x * x


class Rig:
    def __init__(self, testbed):
        self.testbed = testbed
        self.auth = AuthServer()
        identity = self.auth.register_identity("u", "anl")
        self.token = self.auth.issue_token(identity, {SCOPE_COMPUTE})
        self.journal = Journal(FileJournalBackend(FileSystem("wal", op_latency=1e-4), "cloud"))
        self.cloud = FaasCloud(
            testbed.faas_cloud,
            testbed.network,
            self.auth,
            testbed.constants,
            journal=self.journal,
        )
        self.endpoint_id = self.cloud.register_endpoint(
            self.token, "theta", testbed.theta_compute
        )
        self.func_id = self.cloud.register_function(self.token, serialize(_square))

    def submit_batch(self, values, client="client-1"):
        return self.cloud.submit_batch(
            self.token,
            client,
            [
                TaskSubmission(
                    func_id=self.func_id,
                    endpoint_id=self.endpoint_id,
                    args_payload=serialize(((value,), {})),
                )
                for value in values
            ],
        )

    def crash(self) -> FaasCloud:
        fresh = FaasCloud(
            self.testbed.faas_cloud,
            self.testbed.network,
            self.auth,
            self.testbed.constants,
            fabric=self.cloud.fabric,
            journal=self.journal,
        )
        self.cloud = fresh
        return fresh


@pytest.fixture
def rig(testbed):
    return Rig(testbed)


def test_submit_batch_record_replays_every_member(rig):
    """One WAL append covered the whole batch; a crash before any dispatch
    fans it back out into every member task, queued and WAITING."""
    task_ids = rig.submit_batch([2, 3, 4])
    fresh = rig.crash()
    report = recover_cloud(fresh)
    assert report.replayed >= 2  # the function, then the batch's submit
    assert report.deduped == 0
    for task_id in task_ids:
        record = fresh.task(task_id)
        assert record.status is TaskStatus.WAITING
        args = fresh.store.read(record.args_locator)
        # The borrowed argument bytes were journaled and adopted verbatim.
        assert deserialize(args)[0][0] in (2, 3, 4)
    assert fresh.queue_depth(rig.endpoint_id) == 3


def test_mid_batch_dispatch_crash_releases_exactly_once(rig):
    """A batch partially dispatched at the crash: the leased members are
    re-leased (front of queue), the rest stay WAITING — nothing double."""
    task_ids = rig.submit_batch([5, 6, 7])
    dispatched = rig.cloud.fetch_tasks(rig.token, rig.endpoint_id, 2)
    assert [d.task_id for d in dispatched] == task_ids[:2]
    fresh = rig.crash()
    report = recover_cloud(fresh)
    assert report.released == 2
    redelivered = fresh.fetch_tasks(rig.token, rig.endpoint_id, 10)
    assert sorted(d.task_id for d in redelivered) == sorted(task_ids)


def test_result_batch_record_replays_and_dedupes(rig):
    """A batched uplink's single WAL record replays each result once; the
    tasks come back terminal with readable payloads and one notification
    each."""
    task_ids = rig.submit_batch([3, 4])
    rig.cloud.fetch_tasks(rig.token, rig.endpoint_id, 2)
    outcomes = rig.cloud.report_results(
        rig.token,
        rig.endpoint_id,
        [
            (task_ids[0], True, serialize({"success": True, "value": 9})),
            (task_ids[1], True, serialize({"success": True, "value": 16})),
        ],
    )
    assert outcomes == [None, None]
    fresh = rig.crash()
    report = recover_cloud(fresh)
    assert report.renotified == 2
    assert report.deduped == 0
    for task_id, expected in zip(task_ids, (9, 16)):
        record = fresh.task(task_id)
        assert record.status is TaskStatus.SUCCESS
        _, payload = fresh.get_result_payload(rig.token, task_id)
        assert deserialize(payload)["value"] == expected
    # A duplicate batched report after recovery is dropped per member by
    # the ledger re-check, exactly like its singular form.
    dup = fresh.report_results(
        fresh_token := rig.token,
        rig.endpoint_id,
        [(task_ids[0], True, serialize({"success": True, "value": 999}))],
    )
    assert dup == [None]
    _, payload = fresh.get_result_payload(fresh_token, task_ids[0])
    assert deserialize(payload)["value"] == 9
