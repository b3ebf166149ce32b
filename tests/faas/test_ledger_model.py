"""Property: live API calls and crash replay drive one task state machine.

Random single-threaded sequences of cloud calls run against a journaled
``FaasCloud`` on a manual clock.  After every call the step invariants are
checked and the ledger's canonical state is recorded with the journal
length; afterwards every such journal prefix is replayed into a fresh
``Ledger`` and must reproduce the state recorded at it.

Both sides are compared as the recovery tail leaves them — in-flight work
re-leased to the front of its owner's queue — because a same-endpoint
requeue is deliberately not journaled (DESIGN.md §10).  For the same reason
two task fields are excluded, and only these:

``requeues``
    counts un-journaled in-place requeues live, and the tail's re-lease
    in replay.
``fetched_at``
    cleared by an in-place requeue that replay never saw, so a task that
    was requeued and then reported keeps its first lease time in replay.

One step invariant is about placement, not replay: no task waits on a
reaped endpoint while its failover group has a live member.
"""

import json

from conftest import Doorbells, ManualClock
from hypothesis import given
from hypothesis import strategies as st

from repro.durable import FileJournalBackend, Journal
from repro.faas.auth import SCOPE_COMPUTE, AuthServer
from repro.faas.cloud import FaasCloud, TaskSubmission
from repro.faas.ledger import Ledger, Rehome, TaskStatus, decode_record
from repro.net.defaults import build_paper_testbed
from repro.net.fs import FileSystem
from repro.serialize import serialize

EXCLUDED = ("requeues", "fetched_at")


class Usage:
    """A tenant registry that only counts what the cloud tells it."""

    def __init__(self):
        self.finished = 0

    def weight(self, tenant):
        return 1

    def tasks_finished(self, tenant, n):
        self.finished += n

    def __getattr__(self, name):
        return lambda *args: None


def release(ledger):
    """The ledger half of the recovery tail: every endpoint that owns
    non-terminal work re-leases what it had in flight, in place."""
    owners = {t.endpoint_id for t in ledger.tasks.values() if not t.status.terminal}
    for endpoint_id in sorted(owners):
        ledger.apply(Rehome(endpoint_id, endpoint_id, ledger.held_by(endpoint_id, False)))


def canonical(ledger):
    tasks = {}
    for task_id, task in ledger.tasks.items():
        doc = task.to_doc()
        tasks[task_id] = {k: v for k, v in doc.items() if k not in EXCLUDED}
    queues = {
        endpoint_id: {tenant: list(queue) for tenant, queue in queues.items() if queue}
        for endpoint_id, queues in ledger.queues.items()
    }
    return (
        tasks,
        queues,
        sorted(ledger.functions),
        sorted(ledger.deadletters),
        ledger.next_id,
    )


def released(ledger):
    """``canonical(ledger)`` as the recovery tail would leave it, computed
    on the side: the live ledger is not touched.  The reference model of
    the tail — DISPATCHED work goes back WAITING at the front of its
    owner's queue, oldest first."""
    tasks, queues, *rest = canonical(ledger)
    held = sorted(
        (t for t in ledger.tasks.values() if t.status is TaskStatus.DISPATCHED),
        key=lambda t: t.submitted_at,
    )
    for task in reversed(held):
        tasks[task.task_id].pop("status")  # WAITING is the default: left out
        queues[task.endpoint_id].setdefault(task.tenant, []).insert(0, task.task_id)
    return (tasks, queues, *rest)


def check_invariants(cloud, settled, beaten):
    ledger = cloud.ledger
    queued = [tid for queues in ledger.queues.values() for q in queues.values() for tid in q]
    assert len(queued) == len(set(queued)), "an id sits in two queues"
    for task_id, task in ledger.tasks.items():
        in_own_queue = task_id in ledger.queues.get(task.endpoint_id, {}).get(
            task.tenant, ()
        )
        waiting = task.status is TaskStatus.WAITING
        assert waiting == in_own_queue == (task_id in queued), f"{task_id}: {task.status}"
        if task.status.terminal:  # first terminal wins, and keeps its result
            outcome = (task.status, task.result_locator, task.completed_at)
            assert settled.setdefault(task_id, outcome) == outcome
        else:
            assert task_id not in settled, f"{task_id} left its terminal state"
    assert cloud.usage.finished == len(settled)
    # No task waits on a reaped endpoint (one that heartbeat once and whose
    # lease lapsed since) while a member of its group is live to take it.
    now, table = cloud.clock.now(), cloud.fabric.endpoints
    live_groups = {
        table.registration(e).failover_group
        for e in table.ids()
        if (table.lease(e) or now) > now
    } - {None}
    for task in ledger.tasks.values():
        owner = task.endpoint_id
        unleased = owner in beaten and table.lease(owner) is None
        if task.status is TaskStatus.WAITING and unleased:
            group = table.registration(owner).failover_group
            assert group not in live_groups, f"{task.task_id} waits on reaped {owner}"


ENDPOINTS = ("a", "b", "c")
OPS = st.one_of(
    st.tuples(
        st.just("submit"),
        st.sampled_from(ENDPOINTS),
        st.integers(1, 3),
        st.sampled_from([None, 5.0, 60.0]),
    ),
    st.tuples(st.just("fetch"), st.sampled_from(ENDPOINTS), st.integers(1, 3)),
    st.tuples(
        st.just("report"),
        st.sampled_from(ENDPOINTS + ("owner",)),
        st.lists(st.integers(0, 50), min_size=1, max_size=3),
        st.booleans(),
    ),
    st.tuples(st.just("cancel"), st.integers(0, 50)),
    st.tuples(st.just("requeue"), st.sampled_from(ENDPOINTS)),
    st.tuples(st.just("beat"), st.sampled_from(ENDPOINTS)),
    st.tuples(st.just("lapse"), st.sampled_from(ENDPOINTS)),
    st.tuples(st.just("tick"), st.sampled_from([1.0, 10.0, 40.0])),
)


@given(st.lists(OPS, min_size=1, max_size=30))
def test_every_journal_prefix_replays_to_the_live_ledger(ops):
    testbed = build_paper_testbed(seed=42)
    clock = ManualClock()
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
    journal = Journal(FileJournalBackend(FileSystem("wal", clock=clock), "cloud"))
    cloud = FaasCloud(
        testbed.faas_cloud,
        testbed.network,
        auth,
        testbed.constants,
        clock,
        usage=Usage(),
        journal=journal,
    )
    doorbells = Doorbells(cloud.bus, "client")
    # What the live ledger refused of each record that reached the journal
    # (a fabricated failure the ledger turns away never does).
    refused, apply = [], cloud.ledger.apply

    def recording_apply(record, **live):
        effects = apply(record, **live)
        if record.journaled and not (live.get("queued_only") and effects.refused):
            refused.append(effects.refused)
        return effects

    cloud.ledger.apply = recording_apply
    # `a` and `b` fail over to each other; `c` stands alone.
    endpoints = {
        name: cloud.register_endpoint(
            token, name, testbed.theta_compute, failover_group=group
        )
        for name, group in (("a", "pair"), ("b", "pair"), ("c", None))
    }
    func_id = cloud.register_function(token, serialize(len))
    task_ids, settled, history, beaten = [], {}, [], set()

    for op, *args in ops:
        if op == "submit":
            name, n, deadline = args
            items = [
                TaskSubmission(
                    func_id,
                    endpoints[name],
                    serialize(((len(task_ids) + i,), {})),
                    deadline_at=None if deadline is None else clock.now() + deadline,
                )
                for i in range(n)
            ]
            task_ids += cloud.submit_batch(token, "client", items)
        elif op == "fetch":
            name, n = args
            cloud.fetch_tasks(token, endpoints[name], n)
        elif op == "report" and task_ids:
            who, picks, success = args
            picked = [task_ids[i % len(task_ids)] for i in picks]
            # The owner of the first pick, or a fixed endpoint: an honest
            # report, a duplicate, a stale lease or a foreign claim.
            reporter = endpoints.get(who) or cloud.task(picked[0]).endpoint_id
            payload = serialize({"success": success})
            cloud.report_results(token, reporter, [(t, success, payload) for t in picked])
        elif op == "cancel" and task_ids:
            cloud.cancel_task(token, task_ids[args[0] % len(task_ids)])
        elif op == "requeue":
            cloud.requeue_dispatched(token, endpoints[args[0]])
        elif op == "beat":  # also the sweep that fails a lapsed peer over
            cloud.heartbeat(token, endpoints[args[0]])
            beaten.add(endpoints[args[0]])
        elif op == "lapse":  # goes silent for over a TTL while the others beat on
            cloud.heartbeat(token, endpoints[args[0]])
            for _ in range(2):
                clock.sleep(0.6 * testbed.constants.endpoint_lease_ttl)
                for name in ENDPOINTS:
                    if name != args[0]:
                        cloud.heartbeat(token, endpoints[name])
            beaten.update(endpoints.values())
        elif op == "tick":  # leases lapse after 15 s, deadlines pass
            clock.sleep(args[0])
        check_invariants(cloud, settled, beaten)
        history.append((journal.appends, released(cloud.ledger)))

    # Exactly-once delivery: every settled task rang its doorbell once.
    assert sorted(doorbells.take()) == sorted(settled)
    _, log = journal.records()
    assert len(log) == journal.appends == len(refused)
    docs = [json.loads(json.dumps(doc)) for doc in log]
    for prefix, expected in history:
        ledger = Ledger()
        for doc, live in zip(docs[:prefix], refused):  # the same verdict, record by record
            assert ledger.apply(decode_record(doc)).refused == live
        release(ledger)
        assert canonical(ledger) == expected, f"journal[:{prefix}] diverges"
