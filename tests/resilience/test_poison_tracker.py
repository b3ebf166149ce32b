"""PoisonTracker: strike quorum, dead-letter entries, and restore/remove."""

from __future__ import annotations

from repro.resilience import DeadLetterEntry, PoisonPolicy, PoisonTracker

FP = "func-1:abcd1234"


def _strike(tracker, endpoint, tenant="t", fingerprint=FP, now=1.0):
    return tracker.note_failure(
        tenant,
        fingerprint,
        endpoint,
        func_id="func-1",
        task_id="task-0",
        args_locator="loc-0",
        client_id="client-0",
        error=f"boom on {endpoint}",
        now=now,
    )


def test_same_endpoint_never_reaches_quorum_alone():
    tracker = PoisonTracker(PoisonPolicy(quorum=2))
    assert _strike(tracker, "ep-a") is None
    assert _strike(tracker, "ep-a") is None  # same voter, still one strike
    assert tracker.strikes(FP) == ("ep-a",)
    assert not tracker.is_quarantined("t", FP)


def test_distinct_endpoint_quorum_quarantines():
    tracker = PoisonTracker(PoisonPolicy(quorum=2))
    assert _strike(tracker, "ep-a") is None
    entry = _strike(tracker, "ep-b", now=7.0)
    assert entry is not None
    assert entry.endpoints == ("ep-a", "ep-b")
    assert entry.quarantined_at == 7.0
    assert tracker.is_quarantined("t", FP)
    # Strikes collapse into the entry; no double-quarantine on re-vote.
    assert tracker.strikes(FP) == ()
    assert _strike(tracker, "ep-c") is None


def test_success_clears_the_strike_record():
    tracker = PoisonTracker(PoisonPolicy(quorum=2))
    _strike(tracker, "ep-a")
    tracker.note_success(FP)
    # The slate is clean: a later failure starts the count over.
    assert _strike(tracker, "ep-b") is None
    assert tracker.strikes(FP) == ("ep-b",)


def test_entries_filter_by_tenant():
    tracker = PoisonTracker(PoisonPolicy(quorum=1))
    _strike(tracker, "ep-a", tenant="acme", fingerprint="f:1")
    _strike(tracker, "ep-a", tenant="zeta", fingerprint="f:2")
    assert {e.tenant for e in tracker.entries()} == {"acme", "zeta"}
    assert [e.fingerprint for e in tracker.entries("acme")] == ["f:1"]


def test_remove_and_restore_round_trip():
    tracker = PoisonTracker(PoisonPolicy(quorum=1))
    _strike(tracker, "ep-a")
    entry = tracker.remove("t", FP)
    assert entry is not None
    assert tracker.remove("t", FP) is None  # idempotent
    assert not tracker.is_quarantined("t", FP)
    tracker.restore(entry)
    assert tracker.is_quarantined("t", FP)
    assert tracker.entry("t", FP) == entry


def test_entry_record_round_trip():
    tracker = PoisonTracker(PoisonPolicy(quorum=1))
    entry = _strike(tracker, "ep-a", now=3.5)
    rebuilt = DeadLetterEntry.from_record(entry.to_record())
    assert rebuilt == entry


def test_max_entries_refuses_further_quarantines():
    tracker = PoisonTracker(PoisonPolicy(quorum=1, max_entries=1))
    assert _strike(tracker, "ep-a", fingerprint="f:1") is not None
    # The tenant's queue is full: the second fingerprint keeps failing
    # through the retry path instead of being silently evicted.
    assert _strike(tracker, "ep-a", fingerprint="f:2") is None
    assert not tracker.is_quarantined("t", "f:2")
    # Other tenants have their own budget.
    assert _strike(tracker, "ep-a", tenant="other", fingerprint="f:3") is not None
