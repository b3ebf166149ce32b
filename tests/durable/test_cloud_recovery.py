"""Crash recovery: rebuild a journaled FaasCloud from snapshot + replay.

The fresh instance shares the crashed one's delivery fabric (bus, completed
feed, network) — those outlive the process — while every in-memory ledger
(tasks, queues, payload store, registries) is rebuilt from the journal.
Covers the three crash-point edge cases: a crash between the result fsync
and the bus notification, a crash mid-admission (journaled but never
queued), and a double-replayed journal segment.
"""

from __future__ import annotations

import pytest

from repro.durable import (
    FileJournalBackend,
    Journal,
    encode_payload,
    recover_cloud,
)
from repro.exceptions import WorkflowError
from repro.faas.auth import SCOPE_COMPUTE, AuthServer
from repro.faas.cloud import FaasCloud, TaskStatus
from repro.net.fs import FileSystem
from repro.serialize import deserialize, serialize


def _square(x):
    return x * x


class Rig:
    def __init__(self, testbed, compact_every=None):
        self.testbed = testbed
        self.auth = AuthServer()
        identity = self.auth.register_identity("u", "anl")
        self.token = self.auth.issue_token(identity, {SCOPE_COMPUTE})
        self.wal = FileSystem("wal", op_latency=1e-4)
        self.journal = Journal(
            FileJournalBackend(self.wal, "cloud"), compact_every=compact_every
        )
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

    def crash(self) -> FaasCloud:
        """Discard the in-memory instance; rebuild an empty one sharing the
        surviving fabric (bus, completed feed) and the durable journal."""
        fresh = FaasCloud(
            self.testbed.faas_cloud,
            self.testbed.network,
            self.auth,
            self.testbed.constants,
            bus=self.cloud.bus,
            completed=self.cloud._completed,
            journal=self.journal,
        )
        self.cloud = fresh
        return fresh


@pytest.fixture
def rig(testbed):
    return Rig(testbed)


def _submit(rig, value, client="client-1"):
    return rig.cloud.submit(
        rig.token, client, rig.func_id, rig.endpoint_id, serialize(((value,), {}))
    )


def test_recovery_requires_a_journal(testbed):
    auth = AuthServer()
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, testbed.constants)
    with pytest.raises(WorkflowError):
        recover_cloud(cloud)


def test_recovery_rebuilds_every_task_state(rig):
    """Zero lost tasks: WAITING requeued, DISPATCHED re-leased, terminal kept."""
    done = _submit(rig, 2)
    inflight = _submit(rig, 3)
    waiting = _submit(rig, 4)
    dispatched = rig.cloud.fetch_tasks(rig.token, rig.endpoint_id, 2, timeout=1.0)
    assert [d.task_id for d in dispatched] == [done, inflight]
    rig.cloud.report_result(
        rig.token, rig.endpoint_id, done, True, serialize({"value": 4})
    )
    assert rig.cloud.next_completed("client-1", timeout=1.0) == done

    fresh = rig.crash()
    report = recover_cloud(fresh)

    assert report.replayed > 0
    assert report.released == 1  # `inflight` was DISPATCHED at the crash
    assert report.renotified == 1  # `done` was terminal
    assert set(fresh._tasks) == {done, inflight, waiting}
    assert fresh.task(done).status is TaskStatus.SUCCESS
    assert fresh.task(inflight).status is TaskStatus.WAITING
    assert fresh.task(inflight).requeues == 1
    assert fresh.task(waiting).status is TaskStatus.WAITING

    # The re-leased task jumps the queue: it was dispatched first pre-crash.
    redelivered = fresh.fetch_tasks(rig.token, rig.endpoint_id, 10, timeout=1.0)
    assert [d.task_id for d in redelivered] == [inflight, waiting]
    # The adopted argument payload round-trips through the journal.
    (value,), _ = deserialize(fresh.store.read(redelivered[0].args_locator))
    assert value == 3

    # The pre-crash result survives and the fetch path works (satellite
    # regression: results stay fetchable after in-memory state is destroyed).
    status, payload = fresh.get_result_payload(rig.token, done)
    assert status is TaskStatus.SUCCESS
    assert deserialize(payload)["value"] == 4


def test_recovered_task_ids_do_not_collide(rig):
    before = [_submit(rig, n) for n in range(3)]
    fresh = rig.crash()
    recover_cloud(fresh)
    after = _submit(rig, 9)
    assert after not in before
    assert FaasCloud.task_id_index(after) > max(
        FaasCloud.task_id_index(t) for t in before
    )


def test_crash_between_result_write_and_bus_notification(rig):
    """One ``result`` record of three members hit the journal but no feed
    push / bus publish ever happened.  Recovery expands the record and
    renotifies every member exactly once."""
    task_ids = [_submit(rig, value) for value in (5, 6, 7)]
    rig.cloud.fetch_tasks(rig.token, rig.endpoint_id, 3, timeout=1.0)
    # Emulate the crash window: append the fsync'd result record by hand —
    # the in-memory transitions, feed pushes, and bus publish all died with
    # the process.  Mirrors the record `report_results` writes.
    at = rig.cloud.clock.now()
    rig.journal.append(
        "result",
        endpoint_id=rig.endpoint_id,
        results=[
            {
                "task_id": task_id,
                "success": True,
                "locator": f"inline:{task_id}-result",
                "payload": encode_payload(serialize({"value": value * value})),
                "exempt": False,
                "at": at,
            }
            for task_id, value in zip(task_ids, (5, 6, 7))
        ],
    )

    fresh = rig.crash()
    report = recover_cloud(fresh)

    assert report.renotified == 3
    assert report.released == 0  # the terminal records supersede the leases
    assert report.deduped == 0
    # Exactly once into the completed feed: three deliveries, then silence.
    assert fresh.next_completed_batch("client-1", timeout=1.0) == task_ids
    assert fresh.next_completed("client-1", timeout=0.5) is None
    for task_id, value in zip(task_ids, (25, 36, 49)):
        assert fresh.task(task_id).status is TaskStatus.SUCCESS
        status, payload = fresh.get_result_payload(rig.token, task_id)
        assert status is TaskStatus.SUCCESS
        assert deserialize(payload)["value"] == value


def test_crash_mid_admission_enqueues_the_journaled_task(rig):
    """A ``submit`` record of one member fsync'd to the journal but never
    enqueued in memory is admitted into a WAITING queue by replay —
    exactly once."""
    task_id = "task-00000041"
    args = serialize(((6,), {}))
    rig.journal.append(
        "submit",
        client_id="client-1",
        tenant="default",
        tasks=[
            {
                "task_id": task_id,
                "func_id": rig.func_id,
                "endpoint_id": rig.endpoint_id,
                "locator": f"inline:{task_id}-args",
                "args": encode_payload(args),
                "chaos_key": None,
                "submitted_at": rig.cloud.clock.now(),
            }
        ],
    )

    fresh = rig.crash()
    report = recover_cloud(fresh)

    assert report.deduped == 0
    assert fresh.task(task_id).status is TaskStatus.WAITING
    dispatched = fresh.fetch_tasks(rig.token, rig.endpoint_id, 10, timeout=1.0)
    assert [d.task_id for d in dispatched] == [task_id]
    (value,), _ = deserialize(fresh.store.read(dispatched[0].args_locator))
    assert value == 6
    fresh.report_result(
        rig.token, rig.endpoint_id, task_id, True, serialize({"value": 36})
    )
    assert fresh.next_completed("client-1", timeout=1.0) == task_id
    # New admissions never reuse the replayed id.
    assert FaasCloud.task_id_index(_submit(rig, 7)) > 41


def test_double_replay_of_the_same_segment_dedupes(rig):
    done = _submit(rig, 2)
    inflight = _submit(rig, 3)
    rig.cloud.fetch_tasks(rig.token, rig.endpoint_id, 2, timeout=1.0)
    rig.cloud.report_result(
        rig.token, rig.endpoint_id, done, True, serialize({"value": 4})
    )

    fresh = rig.crash()
    first = recover_cloud(fresh)
    assert first.deduped == 0
    again = recover_cloud(fresh)  # same segment, already-populated ledger

    # Every submit and the terminal result hit the first-record-wins check.
    assert again.deduped >= 3
    assert set(fresh._tasks) == {done, inflight}
    assert fresh.task(done).status is TaskStatus.SUCCESS
    # The re-leased task still sits in its queue exactly once.
    redelivered = fresh.fetch_tasks(rig.token, rig.endpoint_id, 10, timeout=1.0)
    assert [d.task_id for d in redelivered] == [inflight]
    status, payload = fresh.get_result_payload(rig.token, done)
    assert status is TaskStatus.SUCCESS and deserialize(payload)["value"] == 4


def test_recovery_replays_snapshot_plus_suffix_after_compaction(testbed):
    rig = Rig(testbed, compact_every=4)
    done = _submit(rig, 2)
    _submit(rig, 3)
    waiting = _submit(rig, 4)
    rig.cloud.fetch_tasks(rig.token, rig.endpoint_id, 1, timeout=1.0)
    rig.cloud.report_result(
        rig.token, rig.endpoint_id, done, True, serialize({"value": 4})
    )
    assert rig.journal.log_bytes() > 0  # a suffix exists beyond the snapshot
    snapshot, _ = rig.journal.records()
    assert snapshot is not None  # compaction actually fired

    fresh = rig.crash()
    report = recover_cloud(fresh)

    assert report.deduped == 0
    assert len(fresh._tasks) == 3
    assert fresh.task(done).status is TaskStatus.SUCCESS
    assert fresh.task(waiting).status is TaskStatus.WAITING
    status, payload = fresh.get_result_payload(rig.token, done)
    assert status is TaskStatus.SUCCESS and deserialize(payload)["value"] == 4
