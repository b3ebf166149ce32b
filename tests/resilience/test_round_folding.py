"""Folding a report round equals applying it member by member.

The cloud hands health, poison and tenant usage one call per round
(``record_results``, ``note_successes``, ``tasks_finished`` /
``tasks_dispatched``).  Whatever state each starts from, the folded call
must leave it -- EWMA, error streak, breaker state and a half-open probe's
verdict, strikes, in-flight slots, queued bytes and their gauge -- exactly
where the members one at a time would, and count the same breaker moves.
"""

from __future__ import annotations

from hypothesis import example, given
from hypothesis import strategies as st

from repro.observe import MetricsRegistry, set_metrics
from repro.resilience import EndpointHealthTracker, HealthPolicy, PoisonTracker
from repro.tenancy import TenantQuota, TenantRegistry

POLICY = HealthPolicy(min_samples=2, open_duration=1.0, error_threshold=2)
#: ``(latency, success)`` of one reported result.
SAMPLE = st.tuples(st.floats(0.0, 20.0, allow_nan=False), st.booleans())


def _tracker(history, cool: bool) -> EndpointHealthTracker:
    """A tracker whose ``ep`` has lived through ``history``, each sample
    followed by a breaker evaluation; ``cool`` lets an open breaker reach
    half-open before the round."""
    tracker = EndpointHealthTracker(POLICY)
    tracker.record_result("peer", 1.0, True, now=0.0)
    tracker.record_result("peer", 1.0, True, now=0.0)
    now = 0.0
    for latency, success in history:
        tracker.record_result("ep", latency, success, now)
        now += 0.25
        tracker.evaluate("ep", now)
    if cool:
        tracker.evaluate("ep", now + POLICY.open_duration)
    return tracker


def _moves(metrics: MetricsRegistry) -> tuple[float, float]:
    return (
        metrics.counter_total("resilience.breaker_opens"),
        metrics.counter_total("resilience.breaker_closes"),
    )


@given(
    history=st.lists(SAMPLE, max_size=8),
    cool=st.booleans(),
    round_=st.lists(SAMPLE, min_size=1, max_size=8),
)
# Two errors open the breaker, the cool-down half-opens it, and the round's
# first member is the probe: a success that closes it, then a failure.
@example(history=[(1.0, False), (1.0, False)], cool=True, round_=[(1.0, True), (1.0, False)])
@example(history=[(1.0, False), (1.0, False)], cool=True, round_=[(9.0, False), (1.0, True)])
def test_a_folded_health_round_equals_its_members_one_by_one(history, cool, round_):
    at = 10.0
    samples = [(latency, success, at + i) for i, (latency, success) in enumerate(round_)]
    outcomes = []
    for fold in (True, False):
        metrics = MetricsRegistry()
        set_metrics(metrics)
        tracker = _tracker(history, cool)
        if fold:
            tracker.record_results("ep", samples)
        else:
            for sample in samples:
                tracker.record_results("ep", [sample])
        outcomes.append((tracker._endpoints["ep"], _moves(metrics)))
    set_metrics(None)
    assert outcomes[0] == outcomes[1]


@given(
    struck=st.lists(st.sampled_from("abcd"), max_size=6),
    cleared=st.lists(st.sampled_from("abcde"), max_size=6),
)
def test_a_folded_poison_round_equals_its_members_one_by_one(struck, cleared):
    strikes = []
    for fold in (True, False):
        tracker = PoisonTracker()
        for n, fingerprint in enumerate(struck):
            tracker.note_failure(
                "t", fingerprint, f"ep{n % 2}", func_id="f", task_id=f"task-{n}",
                args_locator="inline:x", client_id="c", error="boom", now=0.0,
            )  # fmt: skip
        if fold:
            tracker.note_successes(cleared)
        else:
            for fingerprint in cleared:
                tracker.note_successes([fingerprint])
        strikes.append({fp: tracker.strikes(fp) for fp in "abcde"})
    assert strikes[0] == strikes[1]


@given(
    admitted=st.lists(st.integers(0, 500), max_size=8),
    dispatched=st.lists(st.integers(0, 500), max_size=8),
    finished=st.integers(0, 10),
)
def test_a_folded_usage_round_equals_its_members_one_by_one(admitted, dispatched, finished):
    states = []
    for fold in (True, False):
        metrics = MetricsRegistry()
        set_metrics(metrics)
        registry = TenantRegistry()
        registry.create("t", quota=TenantQuota(max_in_flight=6))
        registry.admit_batch("t", admitted)
        if fold:
            registry.tasks_dispatched("t", sum(dispatched))
            registry.tasks_finished("t", finished)
        else:
            for nbytes in dispatched:
                registry.tasks_dispatched("t", nbytes)
            for _ in range(finished):
                registry.tasks_finished("t", 1)
        usage = registry.get("t").usage
        gauge = metrics.gauge("cloud.tenant_in_flight", tenant="t").value
        states.append((usage.in_flight, usage.queued_bytes, gauge))
    set_metrics(None)
    assert states[0] == states[1]
