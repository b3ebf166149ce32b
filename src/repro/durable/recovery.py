"""Crash recovery: rebuild a :class:`FaasCloud` from snapshot + log replay.

Replay is the live path minus its effects: every journal record is decoded
to the typed record the live call built and handed to the same
``Ledger.apply`` (:mod:`repro.faas.ledger`), so a rule cannot hold live and
not here.  Of the effects it returns replay keeps two — the payloads to
re-adopt into the store and the refused count (``durable.deduped``:
double-replayed segments, duplicate reports, records from an endpoint that
no longer owned the task) — and drops the rest: the bus and the usage
registry are shared fabric that outlived the crash and saw the live move.
DESIGN.md §10 has the per-kind table.

Endpoint state is not in the log at all: registrations, leases and reaps
live in the fabric's :class:`~repro.faas.cloud.EndpointTable`, which the
crash did not touch, so the rebuilt instance sees every endpoint as the
fleet last saw it — a reaped one stays reaped.  The tail then reconciles
what no record carries:

* **In-flight work is re-leased** — tasks DISPATCHED at the crash go back
  to the front of their owner's queue, through the same un-journaled
  in-place ``rehome`` an endpoint restart uses (and, like it, their queued
  bytes re-enter the tenant's usage), for the router's next push.
* **Terminal results are re-notified** (``durable.renotified``): one result
  doorbell each, closing the window where a crash fell between the result
  fsync and the publish; clients drop duplicates via their pending table.
  A report already inside the discarded instance appends after replay's
  read and still rings its result doorbell; the rebuilt instance answers that
  download with :class:`~repro.exceptions.ResultNotReadyError`, which
  clients take as "still in flight", and the re-leased task completes.

Replay pays the journal backend's read charges, so ``durable.recovery_s`` is
a real function of journal length — the argument for snapshot compaction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.durable.journal import decode_payload
from repro.exceptions import WorkflowError
from repro.observe import counter_inc, observe

__all__ = ["RecoveryReport", "recover_cloud"]


@dataclass
class RecoveryReport:
    """What one journal replay did."""

    replayed: int = 0  # records applied (a snapshot counts as its records)
    deduped: int = 0  # members the ledger's verdict refused
    released: int = 0  # in-flight-at-crash tasks re-leased to queues
    renotified: int = 0  # terminal results whose doorbells rang again
    recovery_s: float = 0.0  # nominal seconds the replay took


def _snapshot_records(state: dict):
    """A snapshot document as the equivalent record stream, so snapshot +
    log suffix replay through one loop."""
    for doc in state.get("functions", []):
        yield {"type": "func", **doc}
    yield {"type": "submit", "tasks": state.get("tasks", [])}
    for doc in state.get("deadletters", []):
        yield {"type": "deadletter", "op": "add", "entry": doc}


def recover_cloud(cloud, journal=None) -> RecoveryReport:
    """Replay ``journal`` into a freshly constructed ``cloud``.

    ``cloud`` must be empty (no tasks) and share the pre-crash instance's
    fabric (bus, endpoint table), usage registry, network
    and id namespace.  Replay drives the ledger directly — it never
    re-enters the journaling API paths, so recovering with the same journal
    attached does not re-append what it reads.
    """
    from repro.faas.cloud import result_topic
    from repro.faas.ledger import decode_record
    from repro.resilience.deadletter import DeadLetterEntry

    journal = journal if journal is not None else cloud.journal
    if journal is None:
        raise WorkflowError("cannot recover: the cloud has no journal attached")
    started = cloud.clock.now()
    report = RecoveryReport()
    ledger = cloud.ledger
    snapshot, log = journal.records()  # charges the full log read: the axis
    stream = list(_snapshot_records(snapshot)) if snapshot else []
    for doc in (snapshot or {}).get("payloads", ()):
        cloud.store.adopt(
            doc["locator"], decode_payload(doc["payload"]), chaos_exempt=doc["exempt"]
        )
    for doc in stream + log:
        effects = ledger.apply(decode_record(doc))
        for locator, payload, exempt in effects.adopt:
            cloud.store.adopt(locator, payload, chaos_exempt=exempt)
        report.replayed += 1
        report.deduped += effects.refused

    # Quarantine survives the crash: what the replayed verdicts left in
    # force is re-installed (a cloud recovered without a poison tracker
    # simply has no quarantine to rebuild).
    if cloud.poison is not None:
        for entry in ledger.deadletters.values():
            cloud.poison.restore(DeadLetterEntry.from_record(entry))
    with ledger.lock:
        tasks = list(ledger.tasks.values())
        owners = {task.endpoint_id for task in tasks if not task.status.terminal}
        for endpoint_id in sorted(owners):
            report.released += len(
                cloud._requeue(endpoint_id, None, "durable.releases")
            )
    renotify = sorted(
        (task for task in tasks if task.status.terminal), key=lambda t: t.task_id
    )
    for task in renotify:
        cloud._ring(result_topic(task.client_id), [task])

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
