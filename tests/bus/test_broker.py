"""Unit tests for the notification bus broker and consumer."""

import random
import sys
import threading

import pytest
from conftest import ManualClock

from repro.bus import BusConsumer, NotificationBus
from repro.chaos.policy import RetryPolicy
from repro.exceptions import SubscriptionLapsedError
from repro.net.clock import get_clock
from repro.observe import MetricsRegistry, set_metrics


@pytest.fixture
def metrics():
    registry = MetricsRegistry()
    set_metrics(registry)
    return registry


def _bus(**overrides):
    defaults = dict(
        redelivery=RetryPolicy(max_attempts=4, base_delay=0.2, max_delay=0.5),
        lease_ttl=30.0,
        window=256,
    )
    defaults.update(overrides)
    return NotificationBus(**defaults)


def test_sequence_numbers_are_per_subscriber_and_monotonic():
    bus = _bus()
    sub_a = bus.subscribe("tasks/ep", "a")
    sub_b = bus.subscribe("tasks/ep", "b")
    for payload in ("t1", "t2", "t3"):
        assert bus.publish("tasks/ep", payload) == 2  # both streams
    got_a = sub_a.receive(10, timeout=0.0)
    got_b = sub_b.receive(10, timeout=0.0)
    assert [e.seq for e in got_a] == [1, 2, 3]
    assert [e.seq for e in got_b] == [1, 2, 3]
    assert [e.payload for e in got_a] == ["t1", "t2", "t3"]


def test_cumulative_ack_prunes_the_window():
    bus = _bus()
    sub = bus.subscribe("tasks/ep", "ep")
    for payload in ("t1", "t2", "t3"):
        bus.publish("tasks/ep", payload)
    sub.receive(10, timeout=0.0)
    sub.ack(2)
    assert bus.unacked("tasks/ep", "ep") == [3]
    assert sub.acked == 2


def test_publish_before_first_subscribe_is_retained():
    bus = _bus()
    bus.register_subscriber("tasks/ep", "ep")
    bus.publish("tasks/ep", "early")
    sub = bus.subscribe("tasks/ep", "ep")
    assert [e.payload for e in sub.receive(10, timeout=0.0)] == ["early"]


def test_unacked_envelope_redelivers_after_backoff(metrics):
    bus = _bus()
    sub = bus.subscribe("tasks/ep", "ep")
    bus.publish("tasks/ep", "t1")
    first = sub.receive(10, timeout=0.0)
    assert [e.seq for e in first] == [1]
    # Not acked: nothing is due until the backoff elapses...
    assert sub.receive(10, timeout=0.0) == []
    get_clock().sleep(1.0)
    # ...then the same envelope comes around again.
    again = sub.receive(10, timeout=0.0)
    assert [e.seq for e in again] == [1]
    assert metrics.counter_total("bus.delivered") == 1
    assert metrics.counter_total("bus.redelivered") == 1


def test_resubscribe_replays_from_the_last_ack():
    bus = _bus(lease_ttl=5.0)
    sub = bus.subscribe("tasks/ep", "ep")
    bus.publish("tasks/ep", "t1")
    sub.receive(10, timeout=0.0)
    sub.ack(1)
    # The subscriber goes quiet past the lease; the next publish lapses it.
    get_clock().sleep(6.0)
    bus.publish("tasks/ep", "t2")
    bus.publish("tasks/ep", "t3")
    with pytest.raises(SubscriptionLapsedError):
        sub.receive(10, timeout=0.0)
    assert not bus.is_active("tasks/ep", "ep")
    # Resubscribing replays everything after the ack, immediately.
    sub = bus.subscribe("tasks/ep", "ep")
    assert [e.payload for e in sub.receive(10, timeout=0.0)] == ["t2", "t3"]


def test_window_overflow_lapses_and_trims(metrics):
    bus = _bus(window=4)
    bus.subscribe("tasks/ep", "ep")
    for index in range(6):
        bus.publish("tasks/ep", f"t{index}")
    # Two oldest envelopes were trimmed; the subscription was force-lapsed
    # (the poll path is responsible for the trimmed gap).
    assert bus.unacked("tasks/ep", "ep") == [3, 4, 5, 6]
    assert not bus.is_active("tasks/ep", "ep")
    assert metrics.counter_total("bus.window_trimmed") == 2


def test_overflow_trim_does_not_wedge_cumulative_acks(metrics):
    """A window trim advances the broker-side ack past the discarded seqs,
    and the consumer adopts that frontier on resubscribe — so acks keep
    flowing, the window drains, and overflow does not recur forever."""
    bus = _bus(window=4)
    consumer = BusConsumer(bus, "tasks/ep", "ep", role="endpoint", max_batch=10)
    for index in range(6):
        bus.publish("tasks/ep", f"t{index}")
    # Seqs 1-2 were trimmed and the subscription force-lapsed.
    with pytest.raises(SubscriptionLapsedError):
        consumer.receive(timeout=0.0)
    consumer.resubscribe()
    for envelope in consumer.receive(timeout=0.0):
        consumer.done(envelope)
    # The contiguous frontier crossed the trimmed gap: everything is acked.
    assert bus.unacked("tasks/ep", "ep") == []
    # The window is empty again, so further publishes do not re-trim.
    bus.publish("tasks/ep", "t6")
    assert metrics.counter_total("bus.window_trimmed") == 2
    (envelope,) = consumer.receive(timeout=0.0)
    assert envelope.payload == "t6"


def test_fresh_consumer_adopts_broker_ack_after_trim():
    """A consumer built over pre-existing subscriber state (agent restart)
    starts its frontier at the broker's cumulative ack, not at zero."""
    bus = _bus(window=2)
    bus.register_subscriber("tasks/ep", "ep")
    for index in range(5):
        bus.publish("tasks/ep", f"t{index}")
    consumer = BusConsumer(bus, "tasks/ep", "ep", role="endpoint", max_batch=10)
    for envelope in consumer.receive(timeout=0.0):
        consumer.done(envelope)
    assert bus.unacked("tasks/ep", "ep") == []


def test_close_discards_the_window():
    bus = _bus()
    sub = bus.subscribe("tasks/ep", "ep")
    bus.publish("tasks/ep", "t1")
    sub.close()
    assert bus.unacked("tasks/ep", "ep") == []
    with pytest.raises(SubscriptionLapsedError):
        sub.receive(10, timeout=0.0)


def test_consumer_acks_contiguous_prefix_and_drops_duplicates(metrics):
    bus = _bus()
    consumer = BusConsumer(bus, "tasks/ep", "ep", role="endpoint")
    bus.publish("tasks/ep", "t1")
    bus.publish("tasks/ep", "t2")
    e1, e2 = consumer.receive(timeout=0.0)
    # Processing out of order: seq 2 alone cannot be acked (seq 1 is still
    # outstanding), so the broker redelivers it — and the consumer, which
    # already processed it, drops the duplicate.
    consumer.done(e2)
    assert bus.unacked("tasks/ep", "ep") == [1, 2]
    get_clock().sleep(1.0)
    # Both redeliver: seq 1 (never processed) comes back — that is the
    # at-least-once contract — while processed seq 2 is suppressed.
    assert [e.seq for e in consumer.receive(timeout=0.0)] == [1]
    assert metrics.counter_total("bus.duplicates_dropped") == 1
    consumer.done(e1)  # completes the prefix: cumulative ack covers both
    assert bus.unacked("tasks/ep", "ep") == []


def test_consumer_resubscribe_after_lapse(metrics):
    bus = _bus(lease_ttl=5.0)
    consumer = BusConsumer(bus, "results/c", "c", role="client")
    get_clock().sleep(6.0)
    bus.publish("results/c", "t1")
    with pytest.raises(SubscriptionLapsedError):
        consumer.receive(timeout=0.0)
    consumer.resubscribe()
    (envelope,) = consumer.receive(timeout=0.0)
    assert envelope.payload == "t1"
    consumer.done(envelope)
    assert bus.unacked("results/c", "c") == []
    assert metrics.counter_total("bus.resubscribes") == 1


def test_notify_latency_histogram_is_recorded(metrics):
    bus = _bus()
    consumer = BusConsumer(bus, "results/c", "c", role="client")
    bus.publish("results/c", "t1")
    get_clock().sleep(0.5)
    (envelope,) = consumer.receive(timeout=0.0)
    consumer.done(envelope)
    histograms = [
        histogram
        for name, _labels, histogram in metrics.histograms()
        if name == "bus.notify_latency_s"
    ]
    assert len(histograms) == 1 and histograms[0].count == 1
    assert histograms[0].values()[0] >= 0.5


def test_bus_rejects_degenerate_parameters():
    with pytest.raises(ValueError):
        NotificationBus(lease_ttl=0.0)
    with pytest.raises(ValueError):
        NotificationBus(window=0)


def test_done_from_many_threads_keeps_the_frontier_exact():
    """``done`` runs on the client's reactor while ``receive`` and
    ``resubscribe`` stay on its notifier: four threads acking 2,000
    envelopes out of order, against a resubscribing fifth, still leave the
    frontier at the last one and nothing unacked.  The bus keeps time on a
    clock only the test moves, so its lease cannot run out while a loaded
    host publishes the 2,000."""
    clock = ManualClock()
    bus = _bus(window=4096, clock=clock)
    consumer = BusConsumer(
        bus, "results/c", "c", role="client", clock=clock, max_batch=2000
    )
    for n in range(2000):
        bus.publish("results/c", str(n))
    envelopes = consumer.receive(timeout=0.0)
    assert len(envelopes) == 2000
    random.Random(0).shuffle(envelopes)
    errors: list[Exception] = []
    acking = threading.Event()

    def ack(share):
        try:
            for envelope in share:
                consumer.done(envelope)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    def churn():
        try:
            while acking.is_set():
                consumer.resubscribe()
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        acking.set()
        churner = threading.Thread(target=churn)
        churner.start()
        ackers = [threading.Thread(target=ack, args=(envelopes[i::4],)) for i in range(4)]
        for thread in ackers:
            thread.start()
        for thread in ackers:
            thread.join(30)
        acking.clear()
        churner.join(30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in [churner, *ackers])
    assert errors == []
    assert consumer._contiguous == 2000
    assert bus.unacked("results/c", "c") == []
