"""The task ledger: one state machine, one lock, one transition per record kind.

Everything a shard must not lose — registered functions, every task with its
owner and status, the per-endpoint per-tenant queues and the id counter —
lives in a :class:`Ledger` behind :attr:`Ledger.lock`.  It changes only
through ``apply_<kind>``, one per WAL record kind (``func``, ``submit``,
``dispatch``, ``result``, ``rehome``, ``deadletter``).  Each is a function
of (ledger state, typed record): it takes its own verdict — unknown id,
already terminal, not the owner, no longer queued — and returns
:class:`Effects` for the caller to perform.  It reads no clock beyond the
record's own ``at`` and touches no bus, store, metric or network, so
:class:`~repro.faas.cloud.FaasCloud`'s live calls and
:func:`repro.durable.recover_cloud`'s replay drive the same code and cannot
disagree about a rule (DESIGN.md §10 has the table).

Invariant the single lock buys: a task is ``WAITING`` if and only if its id
sits in exactly one queue, its owner's.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from collections import deque
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from typing import Callable

from repro.durable.journal import decode_payload, encode_payload
from repro.exceptions import WorkflowError
from repro.observe import TraceContext
from repro.proxystore.prefetch import PrefetchHint
from repro.serialize import Payload
from repro.tenancy.tenant import DEFAULT_TENANT

__all__ = [
    "TaskStatus",
    "TaskRecord",
    "TaskDispatch",
    "Func",
    "Submit",
    "Dispatch",
    "ResultDoc",
    "Result",
    "Rehome",
    "Deadletter",
    "Effects",
    "Ledger",
    "decode_record",
    "task_id_index",
]


class TaskStatus(str, Enum):
    WAITING = "WAITING"  # queued at the cloud, not yet fetched
    DISPATCHED = "DISPATCHED"  # fetched by the endpoint
    SUCCESS = "SUCCESS"
    FAILED = "FAILED"

    #: Whether the status is final -- a plain attribute of each member (set
    #: below), since every report and download reads it.
    terminal: bool


for _status in TaskStatus:
    _status.terminal = _status in (TaskStatus.SUCCESS, TaskStatus.FAILED)


@dataclass(frozen=True)
class TaskDispatch:
    """What an endpoint receives for one task: ids plus the args locator
    (payloads never ride the control message when they are large)."""

    task_id: str
    func_id: str
    args_locator: str
    trace_ctx: TraceContext | None = None
    chaos_key: str | None = None
    prefetch: tuple = ()
    tenant: str = DEFAULT_TENANT
    deadline_at: float | None = None


@dataclass
class TaskRecord:
    task_id: str
    func_id: str
    endpoint_id: str
    client_id: str
    args_locator: str
    status: TaskStatus = TaskStatus.WAITING
    result_locator: str | None = None
    submitted_at: float = 0.0
    fetched_at: float | None = None
    completed_at: float | None = None
    trace_ctx: TraceContext | None = None
    #: Content-derived fault-injection key supplied by the client (rides the
    #: dispatch so endpoint/worker hooks key faults deterministically).
    chaos_key: str | None = None
    #: How many times this record went back to WAITING (crash reclaim or
    #: lease-expiry failover).
    requeues: int = 0
    #: Endpoints this task was reassigned *away from*; a result reported by
    #: one of them is a stale lease, not a protocol error.
    previous_endpoints: list[str] = field(default_factory=list)
    #: Advisory prefetch hints from the client, forwarded on dispatch so the
    #: executing endpoint can warm its site's proxy cache.
    prefetch: tuple = ()
    #: The tenant the task was submitted under (fair dequeue + quotas).
    tenant: str = DEFAULT_TENANT
    #: Size of the argument payload, kept for queued-bytes quota release.
    args_nbytes: int = 0
    #: Absolute nominal time after which the task's result is worthless;
    #: rides dispatch/retry/hedge so every layer can stop dead work early.
    deadline_at: float | None = None
    #: Content fingerprint (``func_id:args-digest``) for poison-task strike
    #: accounting: identical resubmissions share one fingerprint.
    fingerprint: str | None = None

    def dispatch(self) -> TaskDispatch:
        return TaskDispatch(
            self.task_id,
            self.func_id,
            self.args_locator,
            self.trace_ctx,
            self.chaos_key,
            self.prefetch,
            self.tenant,
            self.deadline_at,
        )

    def to_doc(self) -> dict:
        """The JSON-safe form of a task — the one field list the ``submit``
        WAL record, the snapshot row and :meth:`from_doc` share.  Fields
        still at their default are left out."""
        state = self.__dict__
        doc = {
            name: value
            for name, default in _TASK_DEFAULTS
            if (value := state[name]) != default
        }
        if "status" in doc:
            doc["status"] = self.status.value
        if "previous_endpoints" in doc:
            doc["previous_endpoints"] = list(self.previous_endpoints)
        if "prefetch" in doc:
            doc["prefetch"] = [[h.store_name, list(h.keys), h.pin] for h in self.prefetch]
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "TaskRecord":
        known = {name: doc[name] for name, _ in _TASK_DEFAULTS if name in doc}
        if "status" in known:
            known["status"] = TaskStatus(known["status"])
        if known.get("trace_ctx") is not None:
            known["trace_ctx"] = tuple(known["trace_ctx"])
        if "prefetch" in known:
            known["prefetch"] = tuple(PrefetchHint(*h) for h in known["prefetch"])
        if "previous_endpoints" in known:
            known["previous_endpoints"] = list(known["previous_endpoints"])
        return cls(**known)


#: ``(field name, default)`` of every task field; required ones never equal
#: their ``MISSING`` default, so they are always written.
_TASK_DEFAULTS = tuple(
    (f.name, f.default_factory() if f.default_factory is not MISSING else f.default)
    for f in fields(TaskRecord)
)


def task_id_index(task_id: str) -> int:
    """The numeric suffix of a task id (``task-s2-00000042`` -> 42)."""
    return int(task_id.rsplit("-", 1)[-1])


# -- the typed records, one per WAL kind ---------------------------------------


class _Record:
    """A WAL record as a typed object: built by the live call, encoded to a
    JSON document (field name = key) only when a journal is attached."""

    #: False for the records replay can derive and the WAL therefore skips.
    journaled = True
    #: Fields holding a :class:`Payload`; ``{list field: member class}``.
    _payloads: tuple = ()
    _members: dict = {}

    def to_doc(self) -> dict:
        doc = dict(self.__dict__)
        for name in self._payloads:
            doc[name] = encode_payload(doc[name])
        for name in self._members:
            doc[name] = [member.to_doc() for member in doc[name]]
        return doc

    @classmethod
    def from_doc(cls, doc: dict):
        known = {f.name: doc[f.name] for f in fields(cls) if f.name in doc}
        for name in cls._payloads:
            known[name] = decode_payload(known[name])
        for name, member in cls._members.items():
            known[name] = [member.from_doc(d) for d in known[name]]
        return cls(**known)


@dataclass
class Func(_Record):
    """A function body registered (or adopted) for a tenant."""

    func_id: str
    tenant: str
    payload: Payload
    kind = "func"
    _payloads = ("payload",)


@dataclass
class Submit(_Record):
    """One admission call's tasks, each with its argument payload (``None``
    in a snapshot, which carries tasks in any status and stored bytes apart).
    """

    tasks: list[TaskRecord]
    args: list
    kind = "submit"

    def to_doc(self) -> dict:
        docs = [task.to_doc() for task in self.tasks]
        for doc, args in zip(docs, self.args):
            if args is not None:
                doc["args"] = encode_payload(args)
        return {"tasks": docs}

    @classmethod
    def from_doc(cls, doc: dict) -> "Submit":
        docs = doc["tasks"]
        return cls(
            [TaskRecord.from_doc(d) for d in docs],
            [decode_payload(d["args"]) if "args" in d else None for d in docs],
        )


@dataclass
class Dispatch(_Record):
    """``endpoint_id`` took a lease on ``task_ids`` at ``at``.  Live,
    ``task_ids`` is ``None`` and :meth:`Ledger.apply_dispatch` fills in its
    weighted-round-robin pick — which is what is then journaled, once the
    batch exists."""

    endpoint_id: str
    at: float
    task_ids: list[str] | None = None
    kind = "dispatch"

    @property
    def journaled(self) -> bool:
        return bool(self.task_ids)


@dataclass
class ResultDoc(_Record):
    """One task's outcome inside a :class:`Result`."""

    task_id: str
    success: bool
    locator: str
    payload: Payload
    at: float | None = None
    _payloads = ("payload",)


@dataclass
class Result(_Record):
    """One uplink call's outcomes, reported by ``endpoint_id`` — or
    fabricated by the cloud on its behalf (cancel, deadline expiry; see
    :meth:`Ledger.apply_result`)."""

    endpoint_id: str
    results: list[ResultDoc]
    kind = "result"
    _members = {"results": ResultDoc}


@dataclass
class Rehome(_Record):
    """Return ``task_ids`` held by ``source`` to WAITING at ``target``.

    Derived rule: with ``target == source`` (endpoint restart, a lease lapse
    with no surviving peer, the recovery tail's own re-lease) the record is
    applied but **not journaled** — replay re-leases whatever was DISPATCHED
    at the crash to the front of its owner's queue, which is the same state.
    """

    source: str
    target: str
    task_ids: list[str]
    at: float | None = None
    kind = "rehome"

    @property
    def journaled(self) -> bool:
        return self.target != self.source


@dataclass
class Deadletter(_Record):
    """A quarantine verdict: ``op`` ``"add"`` or ``"drop"`` of one
    dead-letter ``entry`` (a ``DeadLetterEntry.to_record()`` dict)."""

    op: str
    entry: dict
    kind = "deadletter"


_KINDS = {
    cls.kind: cls for cls in (Func, Submit, Dispatch, Result, Rehome, Deadletter)
}


def decode_record(doc: dict) -> _Record:
    """The typed record of one WAL document (``{"type": kind, ...}``)."""
    cls = _KINDS.get(doc.get("type"))
    if cls is None:
        raise WorkflowError(f"unknown journal record type {doc.get('type')!r}")
    return cls.from_doc(doc)


class Effects:
    """What one ``apply`` leaves for its caller to do.  Replay keeps
    ``refused`` and ``adopt`` and drops the rest: the bus and the usage
    registry outlived the crash and saw the live move."""

    __slots__ = (
        "refused",
        "verdicts",
        "tasks",
        "expired",
        "queued",
        "completions",
        "usage",
        "depths",
        "adopt",
    )

    def __init__(self) -> None:
        #: Members the verdict turned away (replay's ``durable.deduped``).
        self.refused = 0
        #: ``result`` only, aligned with its members: ``None`` accepted, else
        #: ``unknown`` / ``duplicate`` / ``stale`` / ``foreign`` / ``not-queued``.
        self.verdicts: list[str | None] = []
        #: The records acted on: admitted, leased or moved.
        self.tasks: list[TaskRecord] = []
        #: ``dispatch`` only: queued tasks found past their deadline, by id
        #: (left queued; the caller fails them with a ``queued_only`` result).
        self.expired: dict[str, TaskRecord] = {}
        #: ``(endpoint_id, tasks)``: work newly waiting in that endpoint's
        #: queue, which the cloud then pushes.
        self.queued: list[tuple[str, list[TaskRecord]]] = []
        #: Tasks that went terminal: each rings its client's result doorbell.
        self.completions: list[TaskRecord] = []
        #: ``(TenantRegistry method name, args)`` usage deltas; ``dispatch``
        #: and ``result`` fold their members into one per tenant and kind.
        self.usage: list[tuple] = []
        #: ``endpoint_id -> [(tenant, waiting)]`` depth gauges.
        self.depths: dict[str, list[tuple[str, int]]] = {}
        #: ``(locator, payload, chaos_exempt)`` for the payload store.
        self.adopt: list[tuple[str, Payload, bool]] = []


class Ledger:
    """See the module docstring.  ``weight`` maps a tenant to its
    weighted-round-robin share (``None``: every tenant weighs 1)."""

    def __init__(
        self, namespace: str = "", weight: Callable[[str], int] | None = None
    ) -> None:
        #: The one lock.  Re-entrant: a sweep holds it across each requeue
        #: it commits, which takes it again.  A heartbeat does not hold it
        #: across the sweep: leases live in the fleet's endpoint table.
        self.lock = threading.RLock()
        self.namespace = namespace
        self._weight = weight
        self.functions: dict[str, Func] = {}
        self.tasks: dict[str, TaskRecord] = {}
        # endpoint id -> tenant -> FIFO of waiting task ids, drained
        # weighted-round-robin (the per-endpoint fair-dequeue guarantee);
        # created when an endpoint's first task is queued.
        self.queues: dict[str, dict[str, deque[str]]] = {}
        self._wrr_tenant: dict[str, str] = {}
        self._wrr_credit: dict[str, int] = {}
        self.deadletters: dict[tuple[str, str], dict] = {}
        self.next_id = 0

    def apply(self, record, **live) -> Effects:
        """Apply ``record``.  ``live`` passes the preconditions only a live
        caller can state (they are not part of the record, so never
        journaled): ``apply_dispatch``'s ``limit``, ``apply_result``'s
        ``queued_only``."""
        return getattr(self, "apply_" + record.kind)(record, **live)

    # -- registrations --------------------------------------------------------
    def apply_func(self, record: Func) -> Effects:
        with self.lock:
            self.functions[record.func_id] = record
        return Effects()

    def apply_deadletter(self, record: Deadletter) -> Effects:
        effects = Effects()
        key = (record.entry["tenant"], record.entry["fingerprint"])
        with self.lock:
            if record.op == "add":
                self.deadletters[key] = record.entry
            elif self.deadletters.pop(key, None) is None:
                effects.refused = 1  # dropping what was never quarantined here
        return effects

    # -- the task state machine -----------------------------------------------
    def apply_submit(self, record: Submit) -> Effects:
        """Admit tasks: unknown ids enter the ledger, WAITING ones at the
        back of their owner's queue, noted once per endpoint."""
        effects = Effects()
        queued: dict[str, list[TaskRecord]] = {}
        with self.lock:
            for task, args in zip(record.tasks, record.args):
                if task.task_id in self.tasks:
                    effects.refused += 1  # double-replayed segment
                    continue
                self.tasks[task.task_id] = task
                self.next_id = max(self.next_id, task_id_index(task.task_id) + 1)
                effects.tasks.append(task)
                if task.status is TaskStatus.WAITING:
                    self._queue(task).append(task.task_id)
                    queued.setdefault(task.endpoint_id, []).append(task)
                if args is not None:
                    effects.adopt.append((task.args_locator, args, False))
            for endpoint_id in sorted(queued):
                effects.queued.append((endpoint_id, queued[endpoint_id]))
                self._note_depth(effects, endpoint_id)
        return effects

    def apply_dispatch(self, record: Dispatch, limit: int = 0) -> Effects:
        """Lease tasks to ``record.endpoint_id``: its pick of up to
        ``limit`` of what waits in its queue (live), or the journaled ids it
        still owns (replay — a task re-homed or finished since is refused)."""
        effects = Effects()
        endpoint_id = record.endpoint_id
        with self.lock:
            if record.task_ids is None:
                weights: dict[str, int] = {}
                while len(effects.tasks) < limit:
                    task = self._pop_next(
                        endpoint_id, record.at, effects.expired, weights
                    )
                    if task is None:
                        break
                    effects.tasks.append(task)
                record.task_ids = [task.task_id for task in effects.tasks]
            else:
                for task_id in record.task_ids:
                    task = self.tasks.get(task_id)
                    if (
                        task is None
                        or task.status.terminal
                        or task.endpoint_id != endpoint_id
                    ):
                        effects.refused += 1
                        continue
                    if task.status is TaskStatus.WAITING:
                        self._queue(task).remove(task_id)
                    effects.tasks.append(task)
            dispatched: dict[str, int] = {}
            for task in effects.tasks:
                task.status = TaskStatus.DISPATCHED
                task.fetched_at = record.at
                nbytes = dispatched.get(task.tenant, 0) + task.args_nbytes
                dispatched[task.tenant] = nbytes
            effects.usage += [("tasks_dispatched", item) for item in dispatched.items()]
            self._note_depth(effects, endpoint_id)
        return effects

    def report_verdict(
        self, task: TaskRecord | None, endpoint_id: str, queued_only: bool = False
    ) -> str | None:
        """Why a result for ``task`` from ``endpoint_id`` is refused, or
        ``None``.  A second report for a terminal task is a duplicate (a
        crash-requeued task can legitimately run twice; the first terminal
        wins); one from an endpoint the task was failed *away from* is a
        stale lease; any other claim on someone else's task is foreign."""
        if task is None:
            return "unknown"
        if task.status.terminal:
            return "duplicate"
        if task.endpoint_id != endpoint_id:
            return "stale" if endpoint_id in task.previous_endpoints else "foreign"
        if queued_only and task.status is not TaskStatus.WAITING:
            return "not-queued"
        return None

    def apply_result(self, record: Result, queued_only: bool = False) -> Effects:
        """The one terminal transition.  An accepted outcome also drops the
        task's queued copy (a report racing a reclaim) so the work is not
        run again — which only the owner's report can reach.

        ``queued_only`` is the precondition of a failure the cloud fabricated
        on the owner's behalf: it applies only while the task is still
        WAITING in that owner's queue, and takes it out in the same step.
        Derived rule: such a record is journaled *after* it was accepted, as
        an ordinary result.  WAITING versus DISPATCHED on one endpoint is
        exactly what an un-journaled same-endpoint requeue hides from
        replay, so that verdict can only be taken live; and like a
        ``dispatch``, a record of it lost to a crash is repaired by replay
        (the task comes back and expires, or runs, again)."""
        effects = Effects()
        dequeued: dict[str, int] = {}
        finished: dict[str, int] = {}
        with self.lock:
            for doc in record.results:
                task = self.tasks.get(doc.task_id)
                verdict = self.report_verdict(task, record.endpoint_id, queued_only)
                effects.verdicts.append(verdict)
                if verdict is not None:
                    effects.refused += 1
                    continue
                if task.status is TaskStatus.WAITING:
                    self._queue(task).remove(task.task_id)
                    nbytes = dequeued.get(task.tenant, 0) + task.args_nbytes
                    dequeued[task.tenant] = nbytes
                    self._note_depth(effects, task.endpoint_id)
                task.result_locator = doc.locator
                task.status = TaskStatus.SUCCESS if doc.success else TaskStatus.FAILED
                task.completed_at = doc.at
                effects.completions.append(task)
                finished[task.tenant] = finished.get(task.tenant, 0) + 1
                # Failure reports embed ids and tracebacks: not content-
                # deterministic, so fault injection skips them.
                effects.adopt.append((doc.locator, doc.payload, not doc.success))
        effects.usage += [("tasks_dispatched", item) for item in dequeued.items()]
        effects.usage += [("tasks_finished", item) for item in finished.items()]
        return effects

    def apply_rehome(self, record: Rehome) -> Effects:
        """Return tasks ``source`` still owns to WAITING — the only place an
        existing task's status becomes WAITING.  In place
        (``target == source``) they go to the *front* of its queue, oldest
        first; otherwise to the *back* of ``target``'s, and ``source`` joins
        ``previous_endpoints`` so its late report reads as a stale lease.
        Copies that were DISPATCHED re-enter the tenant's queued-bytes
        quota; the moved tasks are pushed again."""
        effects = Effects()
        source, target = record.source, record.target
        rehome = target != source
        with self.lock:
            for task_id in record.task_ids:
                task = self.tasks.get(task_id)
                if task is None or task.status.terminal or task.endpoint_id != source:
                    effects.refused += 1  # already moved, or finished
                else:
                    effects.tasks.append(task)
            # In place the oldest must end up in front: appendleft newest first.
            for task in effects.tasks if rehome else reversed(effects.tasks):
                if task.status is TaskStatus.WAITING:
                    self._queue(task).remove(task.task_id)
                else:
                    effects.usage.append(
                        ("task_requeued", (task.tenant, task.args_nbytes))
                    )
                task.status = TaskStatus.WAITING
                task.fetched_at = None
                task.requeues += 1
                if rehome:
                    if source not in task.previous_endpoints:
                        task.previous_endpoints.append(source)
                    task.endpoint_id = target
                    self._queue(task).append(task.task_id)
                else:
                    self._queue(task).appendleft(task.task_id)
            if effects.tasks:
                effects.queued = [(target, effects.tasks)]
                self._note_depth(effects, source)
                self._note_depth(effects, target)
        return effects

    # -- queues ---------------------------------------------------------------
    def _queue(self, task: TaskRecord) -> deque[str]:
        return self.queues.setdefault(task.endpoint_id, {}).setdefault(
            task.tenant, deque()
        )

    def _note_depth(self, effects: Effects, endpoint_id: str) -> None:
        effects.depths[endpoint_id] = [
            (tenant, len(queue))
            for tenant, queue in self.queues.get(endpoint_id, {}).items()
        ]

    def _take(self, queue: deque[str], at: float, expired: dict) -> TaskRecord | None:
        """Remove and return ``queue``'s first task still inside its
        deadline.  Dead ones ahead of it are stepped over, not removed: the
        caller fails them with a ``queued_only`` result, which is what takes
        them out."""
        for i, task_id in enumerate(queue):
            task = self.tasks[task_id]
            if task.deadline_at is None or at < task.deadline_at:
                del queue[i]
                return task
            expired[task_id] = task
        return None

    def _pop_next(
        self, endpoint_id: str, at: float, expired: dict, weights: dict[str, int]
    ) -> TaskRecord | None:
        """Weighted-round-robin pop across an endpoint's tenant queues.

        Each tenant gets up to ``weight`` consecutive tasks per turn of the
        rotation, so over any drain window a backlogged tenant receives at
        most ``weight / sum(weights of backlogged tenants)`` of the feed —
        the starvation bound the noisy-neighbor benchmark asserts.
        ``weights`` caches each tenant's weight for the caller's drain."""
        queues = self.queues.get(endpoint_id, {})
        current = self._wrr_tenant.get(endpoint_id)
        if self._wrr_credit.get(endpoint_id, 0) > 0 and queues.get(current):
            task = self._take(queues[current], at, expired)
            if task is not None:
                self._wrr_credit[endpoint_id] -= 1
                return task
        # Advance the rotation: backlogged tenants strictly after the
        # current one in sorted order, then wrapping, so a tenant whose
        # queue empties forfeits the rest of its turn.
        turn = sorted([tenant for tenant, queue in queues.items() if queue])
        if current is not None:
            first = bisect_right(turn, current)
            turn = turn[first:] + turn[:first]
        for tenant in turn:
            task = self._take(queues[tenant], at, expired)
            if task is not None:
                self._wrr_tenant[endpoint_id] = tenant
                weight = weights.get(tenant)
                if weight is None:
                    weight = weights[tenant] = (
                        1 if self._weight is None else self._weight(tenant)
                    )
                self._wrr_credit[endpoint_id] = max(weight, 1) - 1
                return task
        return None

    def depth(self, endpoint_id: str) -> int:
        """Tasks waiting for ``endpoint_id``, summed over tenants."""
        with self.lock:
            queues = self.queues.get(endpoint_id, {})
            return sum(len(queue) for queue in queues.values())

    def queued(self, endpoint_id: str) -> list[TaskRecord]:
        """Every task queued at an endpoint, per-tenant FIFO order, tenants
        in sorted order."""
        with self.lock:
            queues = self.queues.get(endpoint_id, {})
            return [self.tasks[tid] for tenant in sorted(queues) for tid in queues[tenant]]

    def held_by(self, source: str, rehome: bool) -> list[str]:
        """What a :class:`Rehome` off ``source`` moves: its DISPATCHED tasks,
        oldest first, plus — when the work leaves for another endpoint —
        everything still in its queue."""
        with self.lock:
            held = sorted(
                (
                    task
                    for task in self.tasks.values()
                    if task.endpoint_id == source
                    and task.status is TaskStatus.DISPATCHED
                ),
                key=lambda task: task.submitted_at,
            )
            if rehome:
                held += self.queued(source)
            return [task.task_id for task in held]

    def next_task_ids(self, n: int) -> list[str]:
        with self.lock:
            start = self.next_id
            self.next_id += n
        return [f"task-{self.namespace}{i:08d}" for i in range(start, start + n)]
