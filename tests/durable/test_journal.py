"""The write-ahead journal: append/replay round-trips, compaction, backends."""

from __future__ import annotations

import pytest

from repro.durable import (
    FileJournalBackend,
    Journal,
    decode_payload,
    encode_payload,
)
from repro.net.fs import FileSystem
from repro.serialize import Payload


@pytest.fixture
def fs():
    return FileSystem("wal", op_latency=1e-4)


def test_payload_codec_round_trips_data_and_nominal_size():
    payload = Payload(b"\x00\x01binary\xff", 1_000_000)  # Blob-style padding
    doc = encode_payload(payload)
    back = decode_payload(doc)
    assert back.data == payload.data
    assert back.nominal_size == 1_000_000
    # JSON-safe: only str/int values survive a dumps/loads cycle.
    import json

    assert decode_payload(json.loads(json.dumps(doc))).data == payload.data


def test_fs_append_accumulates_bytes_and_nominal_size(fs):
    fs.append("a.log", b"one\n")
    total = fs.append("a.log", b"two\n", nominal_size=100)
    assert fs.read("a.log") == b"one\ntwo\n"
    assert total == 4 + 100
    assert fs.size("a.log") == 104


def test_fs_append_rejects_non_bytes(fs):
    with pytest.raises(TypeError):
        fs.append("a.log", "text")  # type: ignore[arg-type]


def test_journal_append_and_records_round_trip(fs):
    journal = Journal(FileJournalBackend(fs, "j"))
    journal.append("submit", task_id="t-1", n=1)
    journal.append("result", task_id="t-1", success=True)
    snapshot, records = journal.records()
    assert snapshot is None
    assert records == [
        {"type": "submit", "task_id": "t-1", "n": 1},
        {"type": "result", "task_id": "t-1", "success": True},
    ]
    assert journal.appends == 2
    assert journal.log_bytes() > 0


def test_journal_snapshot_compacts_the_log(fs):
    journal = Journal(FileJournalBackend(fs, "j"))
    for n in range(5):
        journal.append("submit", n=n)
    journal.snapshot({"tasks": [0, 1, 2, 3, 4]})
    assert journal.log_bytes() == 0
    journal.append("submit", n=5)
    snapshot, records = journal.records()
    assert snapshot == {"tasks": [0, 1, 2, 3, 4]}
    assert records == [{"type": "submit", "n": 5}]


def test_journal_auto_compaction_uses_the_snapshot_provider(fs):
    journal = Journal(FileJournalBackend(fs, "j"), compact_every=3)
    state = {"applied": 0}
    journal.set_snapshot_provider(lambda: dict(state))
    for n in range(7):
        journal.append("submit", n=n)
        state["applied"] = n + 1
    snapshot, records = journal.records()
    # Compaction runs *before* the append that crosses the threshold: the
    # caller has not applied that record yet, so the snapshot cannot cover
    # it and truncating it would lose it.  Two compactions fire (before the
    # 4th and 7th appends); the final snapshot covers records 0-5 and the
    # log holds only record 6 — together the full stream.
    assert snapshot == {"applied": 6}
    assert [r["n"] for r in records] == [6]


def test_journal_auto_compaction_loses_no_records(fs):
    """Snapshot + suffix reconstructs every appended record at any point."""
    journal = Journal(FileJournalBackend(fs, "j"), compact_every=2)
    applied: list[int] = []
    journal.set_snapshot_provider(lambda: {"applied": list(applied)})
    for n in range(9):
        journal.append("submit", n=n)
        applied.append(n)  # caller applies after the durable append
        snapshot, records = journal.records()
        replayed = (snapshot["applied"] if snapshot else []) + [
            r["n"] for r in records
        ]
        assert replayed == list(range(n + 1))


def test_journal_compact_every_validation(fs):
    with pytest.raises(ValueError):
        Journal(FileJournalBackend(fs, "j"), compact_every=0)


def test_journal_appends_are_deterministic_bytes(fs):
    a = Journal(FileJournalBackend(fs, "a"))
    b = Journal(FileJournalBackend(fs, "b"))
    a.append("submit", z=1, a=2, m=3)
    b.append("submit", a=2, m=3, z=1)  # kwarg order must not matter
    assert fs.read("a.log") == fs.read("b.log")
