"""Campaign cells for the notification fault modes (bus chaos).

The three bus modes join the standard fault matrix: every cell must still
satisfy the campaign invariants (no lost tasks, no orphan spans, counters
reconciling with the injected-fault ledger) and produce bit-identical
ledger digests across reruns of the same seed.
"""

from repro.chaos.campaign import FAULT_MODES, run_cell


def test_notification_modes_are_in_the_fault_matrix():
    for mode in ("notification_loss", "notification_duplicate", "subscription_drop"):
        assert mode in FAULT_MODES


def test_notification_loss_recovers_via_redelivery_deterministically():
    first = run_cell("notification_loss", "faas-file", seed=11)
    rerun = run_cell("notification_loss", "faas-file", seed=11)
    assert first.passed, first.failures
    assert rerun.passed, rerun.failures
    assert first.fires >= 1
    # Lost doorbells come back from the bus, never from client retries.
    assert first.counters["bus.redelivered"] >= first.fires
    assert first.counters["client.retries"] == 0
    assert first.digest == rerun.digest


def test_notification_duplicate_is_suppressed_by_sequence_numbers():
    result = run_cell("notification_duplicate", "faas-file", seed=5)
    assert result.passed, result.failures
    assert result.fires >= 1
    assert result.counters["bus.duplicates_dropped"] >= result.fires


def test_subscription_drop_idle_polling_stays_near_zero():
    """Even while chaos keeps dropping subscriptions there is no polling at
    all (an agent never fetches), every lapse was noticed and
    resubscribed, and a replayed push runs its tasks once: the
    resubscribe replays only what was never acked, and an acked push is
    below the frontier.  Only work a lease sweep took back first — a
    loaded host can reap a lease — may run twice, one duplicate report per
    task taken at most."""
    cell = run_cell("subscription_drop", "faas-file", seed=3)
    assert cell.passed, cell.failures
    assert cell.counters["bus.resubscribes"] > 0
    swept = sum(
        cell.counters[name]
        for name in ("faas.failovers", "faas.requeues", "resilience.sheds")
    )
    assert cell.counters["faas.duplicate_results"] <= swept
