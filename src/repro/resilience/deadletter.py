"""Poison-task detection and the per-tenant dead-letter queue.

A *poison task* fails deterministically — same arguments, same crash — no
matter where it runs, so every retry burns budget and every failover spreads
the damage.  The tracker fingerprints tasks by content (function id plus the
argument-payload digest the chaos layer already derives) and counts
**strikes**: terminal worker failures on *distinct* endpoints.  Reaching
:attr:`PoisonPolicy.quorum` distinct-endpoint strikes quarantines the
fingerprint into its tenant's dead-letter queue; from then on submits of the
same content are refused with
:class:`~repro.exceptions.TaskQuarantinedError` until an operator retries or
drops the entry (``repro.cli deadletter list|retry|drop``).

The quorum requirement is what separates poison from plain bad luck: a
transient worker exception retried *on the same endpoint* accumulates one
distinct-endpoint strike at most, and any success clears the slate.  To
reach quorum quickly the cloud places retries of struck fingerprints on
endpoints that have not yet voted (see ``FaasCloud._place``).

Durability: the tracker itself is pure in-memory state; the owning cloud
journals ``deadletter`` records (add on quarantine, drop on retry/drop)
through its :class:`repro.durable.Journal`, and recovery replays them via
:meth:`PoisonTracker.restore`.  Only *quarantined* entries are durable —
pre-quorum strikes die with the process, which is safe: losing strikes can
only delay a quarantine, never lose a task.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

__all__ = ["PoisonPolicy", "DeadLetterEntry", "PoisonTracker"]


@dataclass(frozen=True)
class PoisonPolicy:
    """``quorum`` distinct endpoints must see a terminal failure before a
    fingerprint is quarantined; ``max_entries`` bounds each tenant's
    dead-letter queue (oldest entries are never silently evicted — at the
    cap further quarantines are refused and the task keeps failing through
    the ordinary retry path)."""

    quorum: int = 2
    max_entries: int = 1024

    def __post_init__(self) -> None:
        if self.quorum < 1:
            raise ValueError("quorum must be >= 1")
        if self.max_entries < 1:
            raise ValueError("max_entries must be >= 1")


@dataclass(frozen=True)
class DeadLetterEntry:
    """One quarantined fingerprint, with enough context to resubmit it."""

    tenant: str
    fingerprint: str
    func_id: str
    task_id: str
    args_locator: str
    client_id: str
    error: str
    endpoints: tuple[str, ...] = ()
    quarantined_at: float = 0.0

    def to_record(self) -> dict:
        return {
            "tenant": self.tenant,
            "fingerprint": self.fingerprint,
            "func_id": self.func_id,
            "task_id": self.task_id,
            "args_locator": self.args_locator,
            "client_id": self.client_id,
            "error": self.error,
            "endpoints": list(self.endpoints),
            "quarantined_at": self.quarantined_at,
        }

    @classmethod
    def from_record(cls, record: dict) -> "DeadLetterEntry":
        return cls(
            tenant=record["tenant"],
            fingerprint=record["fingerprint"],
            func_id=record["func_id"],
            task_id=record["task_id"],
            args_locator=record["args_locator"],
            client_id=record["client_id"],
            error=record.get("error", ""),
            endpoints=tuple(record.get("endpoints", ())),
            quarantined_at=record.get("quarantined_at", 0.0),
        )


class PoisonTracker:
    """Strike accounting plus the per-tenant dead-letter queues.

    Thread-safe leaf state shared by every shard behind one router, so a
    fingerprint's strikes accumulate across shards and failover targets.
    """

    def __init__(self, policy: PoisonPolicy | None = None) -> None:
        self.policy = policy or PoisonPolicy()
        self._lock = threading.Lock()
        #: fingerprint -> {endpoint_id: last error text}
        self._strikes: dict[str, dict[str, str]] = {}
        #: (tenant, fingerprint) -> entry
        self._entries: dict[tuple[str, str], DeadLetterEntry] = {}

    # -- strike intake ---------------------------------------------------------
    def note_failure(
        self,
        tenant: str,
        fingerprint: str,
        endpoint_id: str,
        *,
        func_id: str,
        task_id: str,
        args_locator: str,
        client_id: str,
        error: str,
        now: float,
    ) -> DeadLetterEntry | None:
        """Record a terminal failure vote from ``endpoint_id``.

        Returns the new :class:`DeadLetterEntry` when this vote reaches
        quorum (the caller journals it and refuses future submits), else
        ``None``."""
        with self._lock:
            if (tenant, fingerprint) in self._entries:
                return None
            strikes = self._strikes.setdefault(fingerprint, {})
            strikes[endpoint_id] = error
            if len(strikes) < self.policy.quorum:
                return None
            tenant_entries = sum(
                1 for key in self._entries if key[0] == tenant
            )
            if tenant_entries >= self.policy.max_entries:
                return None
            entry = DeadLetterEntry(
                tenant=tenant,
                fingerprint=fingerprint,
                func_id=func_id,
                task_id=task_id,
                args_locator=args_locator,
                client_id=client_id,
                error=error,
                endpoints=tuple(sorted(strikes)),
                quarantined_at=now,
            )
            self._entries[(tenant, fingerprint)] = entry
            del self._strikes[fingerprint]
            return entry

    def note_success(self, fingerprint: str) -> None:
        """Any success clears the fingerprint's strike record."""
        self.note_successes([fingerprint])

    def note_successes(self, fingerprints: list[str]) -> None:
        """:meth:`note_success` for one report round's successes, under one
        lock acquisition."""
        with self._lock:
            for fingerprint in fingerprints:
                self._strikes.pop(fingerprint, None)

    def strikes(self, fingerprint: str) -> tuple[str, ...]:
        """The endpoints that have voted against this fingerprint so far."""
        with self._lock:
            return tuple(sorted(self._strikes.get(fingerprint, ())))

    def screen(
        self, tenant: str, fingerprints: list[str]
    ) -> tuple[set[str], dict[str, tuple[str, ...]]]:
        """One submit round's poison state under one lock acquisition: the
        fingerprints quarantined in ``tenant``, and the :meth:`strikes` of
        each struck one (a fingerprint nobody voted against is absent)."""
        with self._lock:
            quarantined = {fp for fp in fingerprints if (tenant, fp) in self._entries}
            struck = {
                fp: tuple(sorted(self._strikes[fp]))
                for fp in fingerprints
                if fp in self._strikes
            }
        return quarantined, struck

    # -- quarantine queries ----------------------------------------------------
    def is_quarantined(self, tenant: str, fingerprint: str) -> bool:
        with self._lock:
            return (tenant, fingerprint) in self._entries

    def entry(self, tenant: str, fingerprint: str) -> DeadLetterEntry | None:
        with self._lock:
            return self._entries.get((tenant, fingerprint))

    def entries(self, tenant: str | None = None) -> list[DeadLetterEntry]:
        with self._lock:
            selected = [
                entry
                for (entry_tenant, _), entry in self._entries.items()
                if tenant is None or entry_tenant == tenant
            ]
        return sorted(selected, key=lambda e: (e.tenant, e.fingerprint))

    # -- operator verbs and replay ---------------------------------------------
    def remove(self, tenant: str, fingerprint: str) -> DeadLetterEntry | None:
        """Release a quarantine (operator ``retry`` or ``drop``); strikes
        are cleared too, so a retried task gets a fresh quorum."""
        with self._lock:
            entry = self._entries.pop((tenant, fingerprint), None)
            self._strikes.pop(fingerprint, None)
            return entry

    def restore(self, entry: DeadLetterEntry) -> None:
        """Re-install a quarantine from a journal replay (idempotent)."""
        with self._lock:
            self._entries[(entry.tenant, entry.fingerprint)] = entry
