"""Crash recovery: rebuild a journaled FaasCloud from snapshot + replay.

The fresh instance shares the crashed one's delivery fabric (bus, endpoint
table, network) — those outlive the process — while every in-memory ledger
(tasks, queues, payload store, registries) is rebuilt from the journal.
Covers the three crash-point edge cases: a crash between the result fsync
and the bus notification, a crash mid-admission (journaled but never
queued), and a double-replayed journal segment.
"""

from __future__ import annotations

import time

import pytest
from conftest import Doorbells, ManualClock

from repro.durable import FileJournalBackend, Journal, recover_cloud
from repro.exceptions import LeaseExpiredError, WorkflowError
from repro.faas import FaasClient, FaasEndpoint
from repro.faas.auth import SCOPE_COMPUTE, AuthServer
from repro.faas.cloud import FaasCloud, TaskStatus
from repro.faas.ledger import Dispatch, Rehome, Result, ResultDoc, Submit, TaskRecord
from repro.net.clock import get_clock
from repro.net.context import at_site
from repro.net.defaults import PaperConstants, build_paper_testbed
from repro.net.fs import FileSystem
from repro.observe import MetricsRegistry, set_metrics
from repro.proxystore.prefetch import PrefetchHint
from repro.resilience import EndpointHealthTracker, HealthPolicy
from repro.resources import WorkerPool
from repro.serialize import deserialize, serialize
from repro.tenancy import CloudRouter, tenant_scope


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
        #: The result topic of ``client-1``, which every test's tasks ring.
        self.doorbells = Doorbells(self.cloud.bus, "client-1")

    def crash(self) -> FaasCloud:
        """Discard the in-memory instance; rebuild an empty one sharing the
        surviving fabric (bus, endpoint table) and the
        durable journal."""
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
    dispatched = rig.cloud.fetch_tasks(rig.token, rig.endpoint_id, 2)
    assert [d.task_id for d in dispatched] == [done, inflight]
    rig.cloud.report_result(
        rig.token, rig.endpoint_id, done, True, serialize({"value": 4})
    )
    assert rig.doorbells.take() == [done]

    fresh = rig.crash()
    report = recover_cloud(fresh)

    assert report.replayed > 0
    assert report.released == 1  # `inflight` was DISPATCHED at the crash
    assert report.renotified == 1  # `done` was terminal
    assert {r.task_id for r in fresh.task_records()} == {done, inflight, waiting}
    assert fresh.task(done).status is TaskStatus.SUCCESS
    assert fresh.task(inflight).status is TaskStatus.WAITING
    assert fresh.task(inflight).requeues == 1
    assert fresh.task(waiting).status is TaskStatus.WAITING

    # The re-leased task jumps the queue: it was dispatched first pre-crash.
    redelivered = fresh.fetch_tasks(rig.token, rig.endpoint_id, 10)
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


def test_recovered_payload_locators_do_not_collide(rig):
    """A locator is its store instance's epoch plus a serial: the rebuilt
    store adopts every journaled locator, and the ones it mints afterwards
    never reuse one."""
    adopted = {rig.cloud.task(_submit(rig, n)).args_locator for n in range(3)}
    fresh = rig.crash()
    recover_cloud(fresh)
    assert all(fresh.store.raw(locator) is not None for locator in adopted)
    minted = {fresh.task(_submit(rig, n)).args_locator for n in range(3)}
    assert len(minted) == 3
    assert not minted & adopted


def test_crash_between_result_write_and_bus_notification(rig):
    """One ``result`` record of three members hit the journal but no bus
    publish ever happened.  Recovery expands the record and
    renotifies every member exactly once."""
    task_ids = [_submit(rig, value) for value in (5, 6, 7)]
    rig.cloud.fetch_tasks(rig.token, rig.endpoint_id, 3)
    # Emulate the crash window: append the fsync'd result record by hand —
    # the in-memory transitions and the bus publish all died with
    # the process.  Mirrors the record `report_results` writes.
    at = rig.cloud.clock.now()
    record = Result(
        rig.endpoint_id,
        [
            ResultDoc(
                task_id,
                True,
                f"inline:{task_id}-result",
                serialize({"value": value * value}),
                at,
            )
            for task_id, value in zip(task_ids, (5, 6, 7))
        ],
    )
    rig.journal.append(record.kind, **record.to_doc())

    fresh = rig.crash()
    report = recover_cloud(fresh)

    assert report.renotified == 3
    assert report.released == 0  # the terminal records supersede the leases
    assert report.deduped == 0
    # Exactly once on the result topic: three doorbells, then silence.
    assert rig.doorbells.take() == task_ids
    assert rig.doorbells.take() == []
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
    task = TaskRecord(
        task_id,
        rig.func_id,
        rig.endpoint_id,
        "client-1",
        f"inline:{task_id}-args",
        submitted_at=rig.cloud.clock.now(),
    )
    record = Submit([task], [serialize(((6,), {}))])
    rig.journal.append(record.kind, **record.to_doc())

    fresh = rig.crash()
    report = recover_cloud(fresh)

    assert report.deduped == 0
    assert fresh.task(task_id).status is TaskStatus.WAITING
    dispatched = fresh.fetch_tasks(rig.token, rig.endpoint_id, 10)
    assert [d.task_id for d in dispatched] == [task_id]
    (value,), _ = deserialize(fresh.store.read(dispatched[0].args_locator))
    assert value == 6
    fresh.report_result(
        rig.token, rig.endpoint_id, task_id, True, serialize({"value": 36})
    )
    assert rig.doorbells.take() == [task_id]
    # New admissions never reuse the replayed id.
    assert FaasCloud.task_id_index(_submit(rig, 7)) > 41


def test_double_replay_of_the_same_segment_dedupes(rig):
    done = _submit(rig, 2)
    inflight = _submit(rig, 3)
    rig.cloud.fetch_tasks(rig.token, rig.endpoint_id, 2)
    rig.cloud.report_result(
        rig.token, rig.endpoint_id, done, True, serialize({"value": 4})
    )

    fresh = rig.crash()
    first = recover_cloud(fresh)
    assert first.deduped == 0
    again = recover_cloud(fresh)  # same segment, already-populated ledger

    # Every submit and the terminal result hit the first-record-wins check.
    assert again.deduped >= 3
    assert {r.task_id for r in fresh.task_records()} == {done, inflight}
    assert fresh.task(done).status is TaskStatus.SUCCESS
    # The re-leased task still sits in its queue exactly once.
    redelivered = fresh.fetch_tasks(rig.token, rig.endpoint_id, 10)
    assert [d.task_id for d in redelivered] == [inflight]
    status, payload = fresh.get_result_payload(rig.token, done)
    assert status is TaskStatus.SUCCESS and deserialize(payload)["value"] == 4


def test_recovery_replays_snapshot_plus_suffix_after_compaction(testbed):
    rig = Rig(testbed, compact_every=4)
    done = _submit(rig, 2)
    _submit(rig, 3)
    waiting = _submit(rig, 4)
    rig.cloud.fetch_tasks(rig.token, rig.endpoint_id, 1)
    rig.cloud.report_result(
        rig.token, rig.endpoint_id, done, True, serialize({"value": 4})
    )
    assert rig.journal.log_bytes() > 0  # a suffix exists beyond the snapshot
    snapshot, _ = rig.journal.records()
    assert snapshot is not None  # compaction actually fired

    fresh = rig.crash()
    report = recover_cloud(fresh)

    assert report.deduped == 0
    assert len(fresh.task_records()) == 3
    assert fresh.task(done).status is TaskStatus.SUCCESS
    assert fresh.task(waiting).status is TaskStatus.WAITING
    status, payload = fresh.get_result_payload(rig.token, done)
    assert status is TaskStatus.SUCCESS and deserialize(payload)["value"] == 4


@pytest.mark.parametrize("compact_every", [None, 1])
def test_recovered_dispatch_equals_the_pre_crash_one(testbed, compact_every):
    """The WAL record, the snapshot row and the rebuilt ``TaskRecord`` share
    one field list: on the parent ``trace_ctx`` and ``prefetch`` were in
    neither, so a re-leased task lost its trace parent and its hints."""
    rig = Rig(testbed, compact_every=compact_every)
    rig.cloud.submit(
        rig.token,
        "client-1",
        rig.func_id,
        rig.endpoint_id,
        serialize(((3,), {})),
        trace_ctx=("trace-1", "span-9"),
        chaos_key="abc123#0",
        prefetch=(PrefetchHint("weights", ("k1", "k2"), pin=True),),
        deadline_at=rig.cloud.clock.now() + 1e6,
    )
    (before,) = rig.cloud.fetch_tasks(rig.token, rig.endpoint_id, 1)
    assert before.trace_ctx and before.prefetch and before.deadline_at

    fresh = rig.crash()
    recover_cloud(fresh)

    (after,) = fresh.fetch_tasks(rig.token, rig.endpoint_id, 1)
    assert after == before


# -- compositions: a change of owner, then a crash -----------------------------
#
# A failover or a breaker shed moves a task to another endpoint; the
# ``rehome`` WAL record is what lets replay see that.  Without it the tasks
# below come back owned by the endpoint they left.

#: One slow sample opens the breaker and it stays open for the whole test.
GRAY = dict(
    latency_baseline=1.0,
    latency_threshold=2.0,
    min_samples=1,
    open_score=0.5,
    latency_alpha=1.0,
    open_duration=600.0,
)


class PairRig(Rig):
    """Two endpoints ``a``/``b`` in one failover group, both heartbeating."""

    def __init__(self, testbed, health=None):
        super().__init__(testbed)
        self.health = self.cloud.health = health
        self.ttl = testbed.constants.endpoint_lease_ttl
        self.ep_a, self.ep_b = (
            self.cloud.register_endpoint(
                self.token, name, testbed.theta_compute, failover_group="pair"
            )
            for name in "ab"
        )
        self.cloud.heartbeat(self.token, self.ep_a)
        self.cloud.heartbeat(self.token, self.ep_b)

    def submit(self, value):
        return self.cloud.submit(
            self.token, "client-1", self.func_id, self.ep_a, serialize(((value,), {}))
        )

    def lapse_a(self):
        """``a`` goes silent for more than one TTL while ``b`` keeps beating;
        ``b``'s last heartbeat is the sweep that reaps ``a``."""
        for _ in range(2):
            self.cloud.clock.sleep(0.6 * self.ttl)
            self.cloud.heartbeat(self.token, self.ep_b)

    def crash_and_recover(self):
        fresh = self.crash()
        fresh.health = self.health  # the tracker lives outside the shard
        return fresh, recover_cloud(fresh)


def _move_off_a(pair, how):
    """Two tasks on ``a`` — one fetched, one still queued — moved to ``b``
    by a lease lapse, or by the breaker shed that one very slow result from
    ``a`` sets off."""
    probe, held, queued = (pair.submit(value) for value in (1, 2, 3))
    fetched = pair.cloud.fetch_tasks(pair.token, pair.ep_a, 2)
    assert [d.task_id for d in fetched] == [probe, held]
    if how == "shed":
        pair.cloud.clock.sleep(10.0)  # the dispatch -> result latency sample
    pair.cloud.report_result(
        pair.token, pair.ep_a, probe, True, serialize({"value": 1})
    )
    if how == "shed":
        pair.cloud.heartbeat(pair.token, pair.ep_b)  # the sweep: a is gray now
    else:
        pair.lapse_a()
    for task_id in (held, queued):
        assert pair.cloud.task(task_id).endpoint_id == pair.ep_b
    return held, queued


def _pair(testbed, how):
    health = EndpointHealthTracker(HealthPolicy(**GRAY)) if how == "shed" else None
    return PairRig(testbed, health)


@pytest.mark.parametrize("how", ["failover", "shed"])
def test_rehomed_tasks_stay_rehomed_across_a_crash(testbed, how):
    """Probe 1: on the parent both tasks came back owned by ``a`` and ``b``
    never fetched them."""
    pair = _pair(testbed, how)
    held, queued = _move_off_a(pair, how)

    fresh, report = pair.crash_and_recover()

    assert report.deduped == 0
    for task_id in (held, queued):
        record = fresh.task(task_id)
        assert record.status is TaskStatus.WAITING
        assert record.endpoint_id == pair.ep_b
        assert record.previous_endpoints == [pair.ep_a]
    assert fresh.queue_depth(pair.ep_a) == 0
    fetched = fresh.fetch_tasks(pair.token, pair.ep_b, 10)
    assert [d.task_id for d in fetched] == [held, queued]


@pytest.mark.parametrize("how", ["failover", "shed"])
def test_new_owner_reports_after_a_crash_and_the_old_one_is_stale(testbed, how):
    """Probe 2: on the parent ``b``'s honest report was a protocol error
    (which kills a real endpoint's uplink thread) and the task never left
    WAITING."""
    pair = _pair(testbed, how)
    held, queued = _move_off_a(pair, how)
    fetched = pair.cloud.fetch_tasks(pair.token, pair.ep_b, 1)
    assert [d.task_id for d in fetched] == [held]

    fresh, report = pair.crash_and_recover()

    assert report.released == 1  # `held` was in flight on b at the crash
    assert fresh.task(held).endpoint_id == pair.ep_b
    fresh.report_result(pair.token, pair.ep_b, held, True, serialize({"value": 4}))
    assert fresh.task(held).status is TaskStatus.SUCCESS
    with pytest.raises(LeaseExpiredError):
        fresh.report_result(pair.token, pair.ep_a, queued, True, serialize({}))
    # Exactly once: one completion for `held`, none for `queued`.
    done = pair.doorbells.take()
    assert done.count(held) == 1 and queued not in done
    assert pair.doorbells.take() == []


def test_lease_failover_publishes_the_source_depth(testbed):
    metrics = MetricsRegistry()
    set_metrics(metrics)
    pair = PairRig(testbed)
    _move_off_a(pair, "failover")
    assert metrics.gauge("faas.queue_depth", endpoint=pair.ep_a).value == 0
    assert metrics.gauge("faas.queue_depth", endpoint=pair.ep_b).value == 2
    assert metrics.counter_total("faas.failovers") == 2


def test_leases_survive_recovery(testbed):
    """Probe 3: ``a`` dies shortly before the crash.  The rebuilt instance
    used to hold no lease for it, so the reaper never failed its queue
    over.  Leases live in the fabric's endpoint table, which the crash
    leaves standing: the rebuilt instance sees each one as it was."""
    pair = PairRig(testbed)
    held, queued = pair.submit(2), pair.submit(3)
    pair.cloud.fetch_tasks(pair.token, pair.ep_a, 1)
    table = pair.cloud.fabric.endpoints
    leases = {e: table.lease(e) for e in (pair.ep_a, pair.ep_b)}

    fresh, _ = pair.crash_and_recover()

    assert None not in leases.values()
    assert {e: fresh.fabric.endpoints.lease(e) for e in leases} == leases
    fresh.heartbeat(pair.token, pair.ep_b)
    pair.lapse_a()
    for task_id in (held, queued):
        record = fresh.task(task_id)
        assert record.endpoint_id == pair.ep_b
        assert record.previous_endpoints == [pair.ep_a]
    fetched = fresh.fetch_tasks(pair.token, pair.ep_b, 10)
    assert [d.task_id for d in fetched] == [held, queued]


@pytest.mark.parametrize(
    "n_shards, crashed",
    [(1, "s0"), (2, "s0"), (2, "s1")],
    ids=["s0-of-1", "s0-of-2", "s1-of-2"],
)
def test_a_reaped_endpoint_stays_reaped_across_a_shard_crash(testbed, n_shards, crashed):
    """``a`` is reaped holding nothing, then the shard that owns the next
    submit's function crashes and is rebuilt.  The reap lives in the
    fleet's endpoint table, which the crash leaves standing, so that submit
    lands on ``b`` at once: no second lapse, no wait for an endpoint that
    never comes back.  (The rebuilt shard used to re-lease every group
    member, so the submit landed on ``a`` until ``a`` lapsed again.)"""
    metrics = MetricsRegistry()
    set_metrics(metrics)
    clock = ManualClock()
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
    wal = FileSystem("wal", clock=clock)
    router = CloudRouter(
        testbed.faas_cloud,
        testbed.network,
        auth,
        testbed.constants,
        clock,
        n_shards=n_shards,
        journal_factory=lambda shard_id: Journal(FileJournalBackend(wal, shard_id)),
    )
    ep_a, ep_b = (
        router.register_endpoint(token, name, testbed.theta_compute, failover_group="g")
        for name in "ab"
    )
    func_id = next(
        f"fn-{n}"
        for n in range(64)
        if router._shard_for_partition("default", f"fn-{n}") == crashed
    )
    router.register_function(token, serialize(_square), func_id=func_id)
    ttl = testbed.constants.endpoint_lease_ttl

    router.heartbeat(token, ep_a)
    for _ in range(2):  # `a` goes silent for over a TTL while `b` beats on
        clock.sleep(0.6 * ttl)
        router.heartbeat(token, ep_b)
    router.crash_shard(crashed)
    task_id = router.submit(token, "c", func_id, ep_a, serialize(((3,), {})))
    record = router.task(task_id)
    assert task_id.startswith(f"task-{crashed}-")
    assert (record.endpoint_id, record.previous_endpoints) == (ep_b, [])
    (dispatch,) = router.fetch_tasks(token, ep_b, 10)
    assert dispatch.task_id == task_id
    router.report_result(token, ep_b, task_id, True, serialize({"value": 9}))
    assert router.task(task_id).status is TaskStatus.SUCCESS
    assert metrics.counter_total("faas.lease_expiries") == 1


def _ledger(cloud):
    return (
        sorted(
            (r.task_id, r.status.value, r.endpoint_id, tuple(r.previous_endpoints))
            for r in cloud.task_records()
        ),
        {
            endpoint_id: {tenant: list(q) for tenant, q in queues.items() if q}
            for endpoint_id, queues in cloud.ledger.queues.items()
        },
    )


def _journal(pair, *records):
    for record in records:
        pair.journal.append(record.kind, **record.to_doc())


def test_rehome_replays_the_same_in_either_order_with_the_dispatch(testbed):
    """``a``'s dispatch is applied under the ledger lock but its fsync is
    paid outside it, so the log may hold ``dispatch(a)`` on either side of
    a ``rehome(a→b)`` that followed it.  Read after the rehome it comes
    from an endpoint that no longer owns the task and is refused — on the
    parent it was applied, and the task re-leased a second time."""
    ledgers = []
    for order, refused in ((("dispatch", "rehome"), 0), (("rehome", "dispatch"), 1)):
        pair = PairRig(testbed)
        task_id = pair.submit(2)
        at = pair.cloud.clock.now()
        tail = {
            "rehome": Rehome(pair.ep_a, pair.ep_b, [task_id], at),
            "dispatch": Dispatch(pair.ep_a, at, [task_id]),
        }
        _journal(pair, *(tail[kind] for kind in order))
        fresh, report = pair.crash_and_recover()
        assert (report.deduped, report.released) == (refused, 0)
        assert fresh.task(task_id).requeues == 1  # the rehome, nothing else
        # Endpoint ids are minted per rig: compare by role.
        names = {pair.ep_a: "a", pair.ep_b: "b", pair.endpoint_id: "theta"}
        tasks, queues = _ledger(fresh)
        ledgers.append(
            (
                [(s, names[e], [names[p] for p in prev]) for _, s, e, prev in tasks],
                {names[e]: len(q.get("default", [])) for e, q in queues.items()},
            )
        )
    assert ledgers[0] == ledgers[1]
    assert ledgers[0][0] == [("WAITING", "b", ["a"])]
    # Queues are created by a task's first enqueue: `theta` never had one.
    assert ledgers[0][1] == {"a": 0, "b": 1}


def test_stale_result_after_rehome_is_refused_in_replay_as_it_was_live(testbed):
    """``a``'s lease lapses while its report pays the store write: the WAL
    reads ``submit, dispatch, rehome, result(a)``.  Live, ``a`` gets
    ``LeaseExpiredError`` and the task waits at ``b``; on the parent replay
    accepted the very result the live path had refused."""
    metrics = MetricsRegistry()
    set_metrics(metrics)
    pair = PairRig(testbed)
    task_id = pair.submit(2)
    pair.cloud.fetch_tasks(pair.token, pair.ep_a, 1)
    write_round = pair.cloud.store.write_round

    def write_then_lose_the_lease(members):
        writes = write_round(members)
        ((at, indexes, land),) = writes.landings

        def land_late():
            locators = land()
            pair.lapse_a()
            return locators

        writes.landings = [(at, indexes, land_late)]
        return writes

    pair.cloud.store.write_round = write_then_lose_the_lease
    with pytest.raises(LeaseExpiredError):
        pair.cloud.report_result(
            pair.token, pair.ep_a, task_id, True, serialize({"value": 4})
        )
    _, log = pair.journal.records()
    assert [r["type"] for r in log][-4:] == ["submit", "dispatch", "rehome", "result"]

    def state(cloud):
        record = cloud.task(task_id)
        return (
            record.status,
            record.endpoint_id,
            record.previous_endpoints,
            cloud.queue_depth(pair.ep_a),
            cloud.queue_depth(pair.ep_b),
        )

    live = state(pair.cloud)
    assert live == (TaskStatus.WAITING, pair.ep_b, [pair.ep_a], 0, 1)
    fresh, report = pair.crash_and_recover()
    assert state(fresh) == live
    assert (report.deduped, report.renotified, report.released) == (1, 0, 0)
    assert metrics.counter_total("durable.deduped") == 1
    assert pair.doorbells.take() == []


def test_double_replayed_rehome_is_deduped(testbed):
    pair = PairRig(testbed)
    held, queued = _move_off_a(pair, "failover")
    fresh, first = pair.crash_and_recover()
    assert first.deduped == 0
    before = _ledger(fresh)

    again = recover_cloud(fresh)  # same segment, already-populated ledger

    # Three submits, both members of ``a``'s dispatch (the probe is terminal,
    # ``held`` now belongs to ``b``), the probe's result, and both members of
    # the rehome (their owner is already ``b``) are refused.
    assert again.deduped == 3 + 2 + 1 + 2
    assert fresh.task(held).endpoint_id == pair.ep_b
    after_tasks, after_queues = _ledger(fresh)
    assert (after_tasks, after_queues) == before


# -- the same composition, end to end -------------------------------------------


def _slow_square(x):
    get_clock().sleep(5.0)
    return x * x


def _eventually(predicate, wall_s=20.0):
    deadline = time.monotonic() + wall_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def test_endpoint_crash_then_shard_crash_loses_nothing():
    """Two real endpoints in a failover group behind a journaled router:
    ``ep-a`` dies holding one dispatched and one queued task, and the shard
    that owns them crashes once the failover has landed."""
    constants = PaperConstants(endpoint_heartbeat_period=1.0, endpoint_lease_ttl=10.0)
    testbed = build_paper_testbed(seed=7, constants=constants)
    auth = AuthServer()
    identity = auth.register_identity("u", "anl")
    wal = FileSystem("shard-wal", op_latency=1e-3)
    router = CloudRouter(
        testbed.faas_cloud,
        testbed.network,
        auth,
        constants,
        n_shards=2,
        journal_factory=lambda shard_id: Journal(
            FileJournalBackend(wal, shard_id), name=shard_id
        ),
    )
    router.create_tenant("alice")
    endpoint_token = auth.issue_token(identity, {SCOPE_COMPUTE})
    token = auth.issue_token(identity, {SCOPE_COMPUTE, tenant_scope("alice")})
    ep_a, ep_b = (
        FaasEndpoint(
            name,
            router,
            endpoint_token,
            testbed.theta_login,
            WorkerPool(testbed.theta_compute, 2, name=f"pool-{name}"),
            failover_group="pair",
        ).start()
        for name in "ab"
    )
    client = FaasClient(router, token, site=testbed.theta_login, tenant="alice")
    try:
        with at_site(testbed.theta_login):
            held = client.run(_slow_square, ep_a.endpoint_id, 3)
            client.flush_batches()  # the id is needed now, not at the hold
            _eventually(
                lambda: router.task(held.task_id).status is TaskStatus.DISPATCHED
            )
            ep_a.pause()  # stops fetching: the next task stays queued
            queued = client.run(_slow_square, ep_a.endpoint_id, 4)
            client.flush_batches()
        assert router.task(queued.task_id).status is TaskStatus.WAITING
        ep_a.simulate_crash()
        # ep-b's heartbeat reaps ep-a one TTL later and inherits both tasks.
        _eventually(
            lambda: all(
                router.task(f.task_id).endpoint_id == ep_b.endpoint_id
                for f in (held, queued)
            )
        )
        owner = held.task_id.split("-")[1]
        assert queued.task_id.split("-")[1] == owner  # one function, one shard
        router.crash_shard(owner)

        assert held.result(timeout=120) == 9
        assert queued.result(timeout=120) == 16
        _eventually(lambda: all(r.status.terminal for r in router.task_records()))
        assert ep_b._uplink_errors == []
        usage = router.registry.get("alice").usage
        assert (usage.in_flight, usage.queued_bytes) == (0, 0)
    finally:
        client.close()
        ep_a.stop()
        ep_b.stop()
