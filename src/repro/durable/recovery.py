"""Crash recovery: rebuild a :class:`FaasCloud` from snapshot + log replay.

The recovery contract (funcX's "the cloud outlives the process" property):

* **Zero lost tasks, each under the owner the journal last recorded** —
  every non-terminal task comes back WAITING in the queue of the endpoint
  that owned it at the crash.  A ``rehome`` record (lease failover, breaker
  shed) replays through ``FaasCloud._requeue_locked``, the primitive that
  made the live move, so the new owner's report is accepted and the old
  one's is a stale lease; tasks DISPATCHED at the crash are *re-leased* by
  the same primitive (front of their owner's queue, fresh doorbell,
  exactly like ``requeue_dispatched`` after an endpoint crash).
* **Leases survive** — every endpoint that owns non-terminal work after
  replay holds a lease of one ``endpoint_lease_ttl`` from the recovery
  instant (a live agent renews it, a dead one lapses into the ordinary
  failover sweep); an endpoint that owns nothing gets none.
* **Exactly-once results** — replay dedupes against the task ledger: the
  first journaled terminal record for a task wins, later ones (a duplicate
  report that lost the in-memory re-check just before the crash, or a
  double-replayed segment) are dropped and counted in ``durable.deduped``.
  Re-executed re-leased tasks are deduped *post*-recovery by the existing
  ``report_results`` terminal re-check.
* **Notifications are re-established at the acked frontier** — the bus is
  shared fabric that survives the shard crash, so unacked envelopes keep
  redelivering on their own; replay additionally re-pushes every journaled
  terminal result into the completed feed and re-publishes its result
  notification (``durable.renotified``), closing the window where a crash
  fell between the result fsync and the bus publish.  Clients drop
  duplicates via their pending-table pop.  A report that was already
  inside the discarded instance appends after replay's read and still
  rings its doorbell; the rebuilt instance answers that download with
  :class:`~repro.exceptions.ResultNotReadyError`, which clients take as
  "still in flight", and the re-leased task completes normally.

Replay pays the journal backend's read charges, so recovery time is a real
function of journal length — ``durable.recovery_s`` is the histogram the
durability benchmark plots against log size, and the argument for snapshot
compaction.

Tenant-usage reconciliation: the usage registry lives outside the shard and
survives the crash with correct pre-crash state, so replay re-applies *no*
historical transitions — a replayed ``rehome`` included; the only usage
call it makes is ``task_requeued`` for re-leased in-flight tasks (whose
queued bytes really do re-enter a queue).  A crash that lands inside
another thread's report window can skew one task's accounting transiently;
the registry clamps at zero, and no task is ever lost or duplicated by it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.durable.journal import decode_payload as _decode
from repro.exceptions import WorkflowError
from repro.observe import counter_inc, observe

__all__ = ["RecoveryReport", "recover_cloud"]


@dataclass
class RecoveryReport:
    """What one journal replay did."""

    replayed: int = 0  # journal records applied (snapshot rows included)
    deduped: int = 0  # duplicate/stale records dropped
    released: int = 0  # in-flight-at-crash tasks re-leased to queues
    renotified: int = 0  # terminal results re-pushed to feed + bus
    recovery_s: float = 0.0  # nominal seconds the replay took


def _snapshot_records(state: dict):
    """Flatten a snapshot document into the equivalent record stream, so
    snapshot + log suffix replay through one loop."""
    for doc in state.get("functions", []):
        yield {"type": "func", **doc}
    for doc in state.get("endpoints", []):
        yield {"type": "endpoint", **doc}
    for doc in state.get("tasks", []):
        yield {"type": "task", **doc}
    for doc in state.get("deadletters", []):
        yield {"type": "deadletter", "op": "add", "entry": doc}


def _expand(stream):
    """Fan ``submit`` and ``result`` WAL records out into per-task rows.

    One record amortizes the fsync over every task of an API call, but each
    doc inside it is a complete admission/outcome — expanding here means a
    crash after the append replays every member, of a batch or of a call
    that carried one task, through the same dedupe logic exactly once.  A
    ``submit`` member is the same row a snapshot writes for a task."""
    for record in stream:
        rtype = record["type"]
        if rtype == "submit":
            for doc in record["tasks"]:
                yield {
                    "type": "task",
                    "client_id": record["client_id"],
                    "tenant": record["tenant"],
                    **doc,
                }
        elif rtype == "result":
            for doc in record["results"]:
                yield {
                    "type": "task_result",
                    "endpoint_id": record["endpoint_id"],
                    **doc,
                }
        else:
            yield record


def recover_cloud(cloud, journal=None) -> RecoveryReport:
    """Replay ``journal`` into a freshly constructed ``cloud``.

    ``cloud`` must be empty (no tasks) and share the pre-crash instance's
    delivery fabric: the same bus, completed feed, usage registry, network,
    and id namespace.  Replay reconstructs registry/queue/store state
    directly — it never re-enters the journaling API paths, so recovering
    with the same journal attached does not re-append what it reads.
    """
    from repro.faas.cloud import TaskRecord, TaskStatus, result_topic

    journal = journal if journal is not None else cloud.journal
    if journal is None:
        raise WorkflowError("cannot recover: the cloud has no journal attached")
    started = cloud.clock.now()
    report = RecoveryReport()
    snapshot, log = journal.records()  # charges the full log read: the axis
    stream = list(_snapshot_records(snapshot)) if snapshot else []
    stream.extend(log)

    next_id = int(snapshot.get("next_id", 0)) if snapshot else 0

    for record in _expand(stream):
        rtype = record["type"]
        if rtype == "func":
            payload = _decode(record["payload"])
            with cloud._lock:
                cloud._functions[record["func_id"]] = payload
                cloud._function_tenants[record["func_id"]] = record["tenant"]
        elif rtype == "endpoint":
            site = cloud.network.site(record["site"])
            with cloud._lock:
                endpoint_id = record["endpoint_id"]
                cloud._endpoints[endpoint_id] = site
                cloud._endpoint_online.setdefault(endpoint_id, False)
                cloud._queues.setdefault(endpoint_id, {})
                cloud._failover_groups[endpoint_id] = record["failover_group"]
        elif rtype == "task":
            task_id = record["task_id"]
            next_id = max(next_id, cloud.task_id_index(task_id) + 1)
            with cloud._queue_cond:
                if task_id in cloud._tasks:
                    report.deduped += 1  # double-replayed segment
                    continue
                args = _decode(record["args"]) if "args" in record else None
                task = TaskRecord(
                    task_id=task_id,
                    func_id=record["func_id"],
                    endpoint_id=record["endpoint_id"],
                    client_id=record["client_id"],
                    args_locator=record["locator"],
                    status=TaskStatus(record.get("status", "WAITING")),
                    submitted_at=record.get("submitted_at") or 0.0,
                    fetched_at=record.get("fetched_at"),
                    completed_at=record.get("completed_at"),
                    chaos_key=record.get("chaos_key"),
                    requeues=int(record.get("requeues", 0)),
                    previous_endpoints=list(record.get("previous_endpoints", [])),
                    tenant=record.get("tenant", "default"),
                    args_nbytes=args.nominal_size if args is not None else 0,
                    deadline_at=record.get("deadline_at"),
                    fingerprint=record.get("fingerprint"),
                )
                if args is not None:
                    cloud.store.adopt(record["locator"], args)
                if "result_locator" in record and "result" in record:
                    task.result_locator = record["result_locator"]
                    cloud.store.adopt(
                        record["result_locator"],
                        _decode(record["result"]),
                        chaos_exempt=bool(record.get("result_exempt", False)),
                    )
                cloud._tasks[task_id] = task
                if task.status is TaskStatus.WAITING:
                    cloud._tenant_queue_locked(task.endpoint_id, task.tenant).append(
                        task_id
                    )
        elif rtype == "dispatch":
            with cloud._queue_cond:
                for task_id in record["task_ids"]:
                    task = cloud._tasks.get(task_id)
                    if task is None or task.status.terminal:
                        report.deduped += 1
                        continue
                    cloud._dequeue_locked(task)
                    task.status = TaskStatus.DISPATCHED
                    task.fetched_at = record.get("at")
        elif rtype == "task_result":
            with cloud._queue_cond:
                task = cloud._tasks.get(record["task_id"])
                if task is None or task.status.terminal:
                    # Ledger dedupe: the first terminal record won; this is
                    # a duplicate report or a double-replayed segment.
                    report.deduped += 1
                    continue
                cloud._dequeue_locked(task)
                task.result_locator = record["locator"]
                cloud.store.adopt(
                    record["locator"],
                    _decode(record["payload"]),
                    chaos_exempt=bool(record.get("exempt", False)),
                )
                task.status = (
                    TaskStatus.SUCCESS if record["success"] else TaskStatus.FAILED
                )
                task.completed_at = record.get("at")
        elif rtype == "rehome":
            # A failover or breaker shed changed these tasks' owner.  Only
            # tasks the source still owns move: one already moved (a
            # double-replayed segment) or already terminal is a duplicate.
            with cloud._queue_cond:
                moved = [
                    task
                    for task_id in record["task_ids"]
                    if (task := cloud._tasks.get(task_id)) is not None
                    and not task.status.terminal
                    and task.endpoint_id == record["from"]
                ]
                report.deduped += len(record["task_ids"]) - len(moved)
                cloud._requeue_locked(record["from"], record["to"], records=moved)
        elif rtype == "deadletter":
            # Quarantine survives the crash: replay re-installs (or, for a
            # journaled retry/drop, releases) the dead-letter entry.  A
            # cloud recovered without a poison tracker simply has no
            # quarantine to rebuild — the records are skipped, not fatal.
            if cloud.poison is not None:
                from repro.resilience.deadletter import DeadLetterEntry

                entry = DeadLetterEntry.from_record(record["entry"])
                if record.get("op", "add") == "add":
                    cloud.poison.restore(entry)
                else:
                    cloud.poison.remove(entry.tenant, entry.fingerprint)
            else:
                report.deduped += 1
        else:
            raise WorkflowError(f"unknown journal record type {rtype!r}")
        report.replayed += 1

    # Reconcile the rebuilt ledger.  Every endpoint that owns non-terminal
    # work gets a lease of one TTL from now — a live agent renews it on its
    # next heartbeat, a dead one lapses into the ordinary failover sweep —
    # and what it had in flight at the crash is re-leased in place.  What
    # was terminal is re-notified (the bus subscription frontier is
    # broker-side state and survived; these publishes cover fsync-to-notify
    # crash windows, and clients dedupe).
    with cloud._queue_cond:
        cloud._ids = itertools.count(next_id)
        tasks = list(cloud._tasks.values())
        lease = cloud.clock.now() + cloud.constants.endpoint_lease_ttl
        for endpoint_id in sorted(
            {task.endpoint_id for task in tasks if not task.status.terminal}
        ):
            cloud._lease_expiry[endpoint_id] = lease
            report.released += len(
                cloud._requeue_locked(endpoint_id, None, "durable.releases")
            )
    renotify = sorted(
        (task for task in tasks if task.status.terminal), key=lambda t: t.task_id
    )
    with cloud._completed.cond:
        for task in renotify:
            cloud._completed.push_locked(task.client_id, task.task_id)
    for task in renotify:
        cloud._ring(result_topic(task.client_id), task)
    if cloud._on_enqueue is not None and (report.released or renotify):
        cloud._on_enqueue()

    report.renotified = len(renotify)
    report.recovery_s = cloud.clock.now() - started
    shard = cloud.shard_id or "solo"
    counter_inc("durable.recoveries", shard=shard)
    counter_inc("durable.replayed", report.replayed, shard=shard)
    if report.deduped:
        counter_inc("durable.deduped", report.deduped, shard=shard)
    if report.renotified:
        counter_inc("durable.renotified", report.renotified, shard=shard)
    observe("durable.recovery_s", report.recovery_s, shard=shard)
    return report
