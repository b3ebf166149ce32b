"""The task ledger driven bare — no Network, no Clock, no bus, no threads —
and the structural rule that it is the only writer of task state."""

import ast
import json
from pathlib import Path

from repro.faas.ledger import (
    Deadletter,
    Dispatch,
    Func,
    Ledger,
    Rehome,
    Result,
    ResultDoc,
    Submit,
    TaskRecord,
    TaskStatus,
    decode_record,
)
from repro.serialize import Payload

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _task(n, endpoint_id="a", **fields):
    return TaskRecord(f"task-{n:08d}", "fn", endpoint_id, "client", f"inline:a{n}", **fields)


def _ledger(*records):
    ledger = Ledger()
    for record in records:
        ledger.apply(record)
    return ledger


def _wal(record):
    """The record as the journal holds it: one JSON line."""
    return json.dumps({"type": record.kind, **record.to_doc()})


def _state(ledger):
    return (
        {task_id: task.to_doc() for task_id, task in ledger.tasks.items()},
        {e: {t: list(q) for t, q in queues.items() if q} for e, queues in ledger.queues.items()},
    )


def test_submit_dispatch_rehome_result_and_replay():
    payload = Payload(b"args", 4)
    records = [
        Func("fn", "default", Payload(b"body", 4)),
        Submit([_task(0), _task(1)], [payload, payload]),
        Dispatch("a", 1.0),
        Rehome("a", "b", ["task-00000000", "task-00000001"], 2.0),
        Dispatch("b", 3.0),
        Result("b", [ResultDoc("task-00000000", True, "inline:r0", Payload(b"r", 1), 4.0)]),
    ]
    live = _ledger()
    effects, wal = [], []
    for record in records:  # WAL first — except a dispatch, whose pick is the apply's
        if record.kind == "dispatch":
            effects.append(live.apply(record, limit=1 if record.endpoint_id == "a" else 2))
        wal.append(_wal(record))
        if record.kind != "dispatch":
            effects.append(live.apply(record))

    assert [t.task_id for t in effects[1].tasks] == ["task-00000000", "task-00000001"]
    assert [(e, [t.task_id for t in ts]) for e, ts in effects[1].queued] == [
        ("a", ["task-00000000", "task-00000001"])
    ]
    assert records[2].task_ids == ["task-00000000"]  # the ledger's own pick
    assert effects[3].usage == [("task_requeued", ("default", 0))]  # only the leased one
    assert effects[3].depths == {"a": [("default", 0)], "b": [("default", 2)]}
    assert effects[5].verdicts == [None]
    assert [t.task_id for t in effects[5].completions] == ["task-00000000"]
    done, held = live.tasks["task-00000000"], live.tasks["task-00000001"]
    assert (done.status, done.result_locator, done.completed_at) == (
        TaskStatus.SUCCESS,
        "inline:r0",
        4.0,
    )
    assert (held.status, held.endpoint_id, held.previous_endpoints) == (
        TaskStatus.DISPATCHED,
        "b",
        ["a"],
    )
    assert live.next_task_ids(1) == ["task-00000002"]

    replayed = _ledger()
    adopted = []
    for line in wal:
        replay = replayed.apply(decode_record(json.loads(line)))
        assert replay.refused == 0
        adopted += [locator for locator, _payload, _exempt in replay.adopt]
    assert _state(replayed) == _state(live)
    assert adopted == ["inline:a0", "inline:a1", "inline:r0"]
    assert replayed.functions["fn"].payload == Payload(b"body", 4)
    assert replayed.next_task_ids(1) == ["task-00000002"]


def test_every_refusal_is_a_verdict_not_an_exception():
    ledger = _ledger(Submit([_task(0)], [None]))
    assert ledger.apply(Submit([_task(0)], [None])).refused == 1  # double replay
    ledger.apply(Dispatch("a", 1.0), limit=1)
    ledger.apply(Rehome("a", "b", ["task-00000000"], 2.0))
    # `a` no longer owns it: its lease and its report are both refused.
    assert ledger.apply(Dispatch("a", 3.0, ["task-00000000", "task-ghost"])).refused == 2
    payload = Payload(b"r", 1)
    stale = ledger.apply(Result("a", [ResultDoc("task-00000000", True, "inline:r", payload)]))
    assert stale.verdicts == ["stale"] and not stale.completions
    assert ledger.tasks["task-00000000"].status is TaskStatus.WAITING
    assert ledger.depth("b") == 1
    docs = [ResultDoc(t, True, "inline:r", payload) for t in ("task-00000000", "task-ghost")]
    assert ledger.apply(Result("theta", docs)).verdicts == ["foreign", "unknown"]
    assert ledger.apply(Result("b", docs[:1])).verdicts == [None]  # dequeues its copy
    assert ledger.depth("b") == 0
    assert ledger.apply(Result("b", docs[:1])).verdicts == ["duplicate"]
    assert ledger.apply(Rehome("b", "a", ["task-00000000"])).refused == 1  # terminal
    assert ledger.apply(Deadletter("drop", {"tenant": "t", "fingerprint": "f"})).refused == 1


def test_fabricated_failure_applies_only_to_a_queued_task():
    ledger = _ledger(Submit([_task(0), _task(1, deadline_at=5.0)], [None, None]))
    late = Dispatch("a", 9.0)
    effects = ledger.apply(late, limit=2)
    assert late.task_ids == ["task-00000000"]
    assert list(effects.expired) == ["task-00000001"]  # stepped over, still queued
    assert ledger.depth("a") == 1

    def fail(task_id):
        record = Result("a", [ResultDoc(task_id, False, "inline:f", Payload(b"f", 1), 9.0)])
        return ledger.apply(record, queued_only=True)

    assert fail("task-00000000").verdicts == ["not-queued"]  # already leased
    expired = fail("task-00000001")
    assert expired.verdicts == [None]
    assert ("tasks_dispatched", ("default", 0)) in expired.usage  # its bytes left the queue
    assert ledger.tasks["task-00000001"].status is TaskStatus.FAILED
    assert ledger.depth("a") == 0
    assert set(Result("a", []).to_doc()) == {"endpoint_id", "results"}  # not journaled


def test_in_place_requeue_goes_to_the_front_and_is_not_journaled():
    ledger = _ledger(Submit([_task(n, submitted_at=n) for n in range(3)], [None] * 3))
    ledger.apply(Dispatch("a", 1.0), limit=2)
    record = Rehome("a", "a", ledger.held_by("a", rehome=False))
    assert not record.journaled and Rehome("a", "b", []).journaled
    effects = ledger.apply(record)
    assert list(ledger.queues["a"]["default"]) == [f"task-{n:08d}" for n in range(3)]
    assert [(e, [t.task_id for t in ts]) for e, ts in effects.queued] == [
        ("a", record.task_ids)
    ]
    assert {ledger.tasks[t].requeues for t in record.task_ids} == {1}


def test_task_doc_round_trips_every_field():
    from repro.proxystore.prefetch import PrefetchHint

    task = _task(
        7,
        status=TaskStatus.FAILED,
        result_locator="s3:r",
        submitted_at=1.5,
        fetched_at=2.5,
        completed_at=3.5,
        trace_ctx=("trace", "span"),
        chaos_key="k#1",
        requeues=2,
        previous_endpoints=["z"],
        prefetch=(PrefetchHint("store", ("k1",), pin=True),),
        tenant="alice",
        args_nbytes=10,
        deadline_at=9.0,
        fingerprint="fn:abc",
    )
    assert TaskRecord.from_doc(json.loads(json.dumps(task.to_doc()))) == task
    # Defaults are left out: a fresh task writes its identity and nothing else.
    assert set(_task(1).to_doc()) == {
        "task_id",
        "func_id",
        "endpoint_id",
        "client_id",
        "args_locator",
    }


# -- structure -------------------------------------------------------------------


def _assignments(path):
    """(target, value) AST pairs of every assignment, keyword arguments
    included, in ``path``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                yield target, node.value
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)) and node.value is not None:
            yield node.target, node.value
        elif isinstance(node, ast.keyword):
            yield node, node.value


def _names_task_status(node):
    """``TaskStatus.<X>`` anywhere in ``node`` but inside a comparison."""
    if isinstance(node, ast.Compare):
        return False
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.value.id == "TaskStatus"
    return any(_names_task_status(child) for child in ast.iter_child_nodes(node))


def test_task_status_is_assigned_in_one_module():
    writers = {
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        for _target, value in _assignments(path)
        if _names_task_status(value)
    }
    assert writers == {"faas/ledger.py"}


def test_recovery_drives_the_ledger_and_nothing_beneath_it():
    path = SRC / "durable" / "recovery.py"
    task_fields = set(TaskRecord.__dataclass_fields__)
    for target, _value in _assignments(path):
        assert not (
            isinstance(target, ast.Attribute) and target.attr in task_fields
        ), f"recovery.py assigns a task field: .{target.attr}"
    names = {
        n.attr if isinstance(n, ast.Attribute) else n.id
        for n in ast.walk(ast.parse(path.read_text()))
        if isinstance(n, (ast.Attribute, ast.Name))
    }
    assert not names & {"_tasks", "_queues", "TaskRecord", "TaskStatus"}


def test_this_file_needs_no_network_bus_or_threads():
    imported = set()
    for node in ast.walk(ast.parse(Path(__file__).read_text())):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert not [m for m in imported if m.startswith(("repro.net", "repro.bus", "threading"))]
