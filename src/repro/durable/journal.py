"""Write-ahead journal with snapshot compaction.

The cloud tier of the paper's stack (the funcX web service) outlives any
single allocation because its state is durable: a crashed service instance
is replaced and the replacement reads queues and task records back from
storage.  :class:`Journal` reproduces that property for the simulated
control plane: an append-only JSONL log over a simulated durable medium
(:class:`repro.net.fs.FileSystem`), with *fsync points* — each
:meth:`Journal.append` charges the medium's write cost before returning, so
the journal entry is on "disk" before the in-memory mutation it guards
becomes visible.

Record format
-------------
One JSON object per line, ``sort_keys=True`` so byte content is
deterministic::

    {"type": "submit", "client_id": ..., "tenant": ..., "tasks": [{...}]}

The cloud writes one ``submit`` record per admission call and one
``result`` record per uplink call, each carrying a list of per-task docs
— a call that carried one task writes a list of one.

Payload bytes ride inside records base64-encoded, alongside their nominal
size (``repro.serialize.Blob`` padding makes nominal != len(data)).

Snapshot compaction
-------------------
An unbounded log makes recovery time grow with campaign length, so the
journal supports compaction: :meth:`snapshot` atomically replaces the log
with a single state document; replay is then *snapshot + suffix*.  Install
a snapshot provider and ``compact_every`` to compact automatically every N
appends.
"""

from __future__ import annotations

import base64
import json
import threading
from typing import Callable, Protocol

from repro.exceptions import FileSystemError
from repro.net.fs import FileSystem
from repro.observe import counter_inc
from repro.serialize import Payload

__all__ = [
    "FileJournalBackend",
    "Journal",
    "JournalBackend",
    "decode_payload",
    "encode_payload",
]


def encode_payload(payload: Payload) -> dict:
    """JSON-safe encoding of a :class:`Payload` (bytes + nominal size)."""
    return {
        "b64": base64.b64encode(payload.data).decode("ascii"),
        "nominal": payload.nominal_size,
    }


def decode_payload(doc: dict) -> Payload:
    return Payload(base64.b64decode(doc["b64"]), int(doc["nominal"]))


class JournalBackend(Protocol):
    """A durable medium for one journal: an append-only log plus a
    single snapshot slot.  Implementations charge simulated I/O time on
    every operation — that charge *is* the fsync."""

    def append(self, data: bytes) -> None: ...

    def read_log(self) -> bytes: ...

    def save_snapshot(self, data: bytes) -> None: ...

    def load_snapshot(self) -> bytes | None: ...

    def truncate_log(self) -> None: ...

    def log_bytes(self) -> int: ...


class FileJournalBackend:
    """JSONL log + snapshot file on a :class:`~repro.net.fs.FileSystem`.

    Appends charge only the appended bytes (``FileSystem.append``);
    recovery reads charge the whole log, which is exactly why recovery
    time scales with journal length and compaction matters.
    """

    def __init__(self, fs: FileSystem, prefix: str) -> None:
        self.fs = fs
        self.log_path = f"{prefix}.log"
        self.snapshot_path = f"{prefix}.snap"

    def append(self, data: bytes) -> None:
        self.fs.append(self.log_path, data)

    def read_log(self) -> bytes:
        try:
            return self.fs.read(self.log_path)
        except FileSystemError:
            return b""

    def save_snapshot(self, data: bytes) -> None:
        self.fs.write(self.snapshot_path, data)

    def load_snapshot(self) -> bytes | None:
        try:
            return self.fs.read(self.snapshot_path)
        except FileSystemError:
            return None

    def truncate_log(self) -> None:
        self.fs.delete(self.log_path)

    def log_bytes(self) -> int:
        try:
            return self.fs.size(self.log_path)
        except FileSystemError:
            return 0


class Journal:
    """An append-only record stream with a snapshot slot.

    ``append`` is the write-ahead primitive: it serializes, charges the
    backend's write cost (the fsync), and only then returns — callers
    perform the guarded in-memory mutation *after* the journal entry is
    durable, so a crash at any instant leaves the journal no further
    behind than one un-applied record (which replay applies) and never
    records a mutation that did not reach the log.
    """

    def __init__(
        self,
        backend: JournalBackend,
        *,
        compact_every: int | None = None,
        name: str = "journal",
    ) -> None:
        if compact_every is not None and compact_every < 1:
            raise ValueError(f"compact_every must be >= 1, got {compact_every}")
        self.backend = backend
        self.name = name
        self.compact_every = compact_every
        self._lock = threading.RLock()
        self._since_snapshot = 0
        self._appends = 0
        self._snapshot_provider: Callable[[], dict] | None = None

    # -- writing ------------------------------------------------------------
    def append(self, record_type: str, **fields) -> dict:
        """Durably append one record; returns the record dict."""
        record = {"type": record_type, **fields}
        data = (json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n").encode()
        if (
            self.compact_every is not None
            and self._snapshot_provider is not None
            and self._since_snapshot >= self.compact_every
        ):
            # Compact BEFORE appending: the caller has not applied this
            # record to the in-memory state yet, so the provider's
            # snapshot cannot cover it — truncating it away here would
            # lose it.  Snapshot (state = all prior records) + fresh log
            # (this record onward) stays complete.  The provider takes its
            # owner's locks, which an appender may hold (the cloud's
            # ``rehome``), so it runs outside the journal lock and its
            # snapshot is kept only if no append raced it.
            seen = self._appends
            state = self._snapshot_provider()
            with self._lock:
                if self._appends == seen:
                    self.snapshot(state)
        with self._lock:
            self.backend.append(data)
            self._appends += 1
            self._since_snapshot += 1
            counter_inc("durable.appends", journal=self.name, type=record_type)
        return record

    def set_snapshot_provider(self, provider: Callable[[], dict]) -> None:
        """Install the state-capture callable used for auto-compaction."""
        self._snapshot_provider = provider

    def snapshot(self, state: dict) -> None:
        """Replace the log with a single state document (compaction)."""
        data = json.dumps(state, sort_keys=True, separators=(",", ":")).encode()
        with self._lock:
            self.backend.save_snapshot(data)
            self.backend.truncate_log()
            self._since_snapshot = 0
            counter_inc("durable.snapshots", journal=self.name)

    # -- reading ------------------------------------------------------------
    def records(self) -> tuple[dict | None, list[dict]]:
        """(snapshot state or None, suffix records in append order).

        Reading charges the backend's full log read cost — recovery pays
        for every byte it replays, which is what makes recovery time a
        function of journal length.
        """
        with self._lock:
            snap_data = self.backend.load_snapshot()
            log_data = self.backend.read_log()
        snapshot = json.loads(snap_data) if snap_data else None
        records = [
            json.loads(line) for line in log_data.decode().splitlines() if line.strip()
        ]
        return snapshot, records

    # -- introspection ------------------------------------------------------
    @property
    def appends(self) -> int:
        return self._appends

    def log_bytes(self) -> int:
        return self.backend.log_bytes()
