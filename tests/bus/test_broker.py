"""Unit tests for the notification bus broker and consumer.

The bus keeps time on a :class:`ManualClock` and arms its deliveries on a
:class:`ManualReactor`, so a test reads what a listener was pushed after
running the broker's calls due by now (``manual.pump()``), and time moves
only when the test moves it.
"""

import random
import sys
import threading

import pytest
from conftest import Inbox, ManualClock, ManualReactor

from repro.bus import BusConsumer, NotificationBus
from repro.chaos.policy import RetryPolicy
from repro.observe import MetricsRegistry, set_metrics


@pytest.fixture
def metrics():
    registry = MetricsRegistry()
    set_metrics(registry)
    return registry


class _Manual:
    """A manual clock, and a manual reactor the broker arms its calls on."""

    def __init__(self, monkeypatch) -> None:
        self.clock = ManualClock()
        self.reactor = ManualReactor(self.clock)
        monkeypatch.setattr("repro.bus.broker.get_reactor", lambda: self.reactor)

    def bus(self, **overrides) -> NotificationBus:
        defaults = dict(
            redelivery=RetryPolicy(max_attempts=4, base_delay=0.2, max_delay=0.5),
            lease_ttl=30.0,
            clock=self.clock,
        )
        defaults.update(overrides)
        return NotificationBus(**defaults)

    def pump(self) -> None:
        """Run every broker call due by now."""
        self.reactor.run(until=self.clock.now())


@pytest.fixture
def manual(monkeypatch):
    return _Manual(monkeypatch)


def _consume(consumer) -> Inbox:
    inbox = Inbox()
    consumer.attach(inbox.deliver, inbox.lapsed)
    return inbox


def test_sequence_numbers_are_per_subscriber_and_monotonic(manual):
    bus = manual.bus()
    inbox_a = Inbox.on(bus.subscribe("tasks/ep", "a"), 10)
    inbox_b = Inbox.on(bus.subscribe("tasks/ep", "b"), 10)
    for payload in ("t1", "t2", "t3"):
        assert bus.publish("tasks/ep", payload) == 2  # both streams
    manual.pump()
    got_a = inbox_a.take()
    got_b = inbox_b.take()
    assert [e.seq for e in got_a] == [1, 2, 3]
    assert [e.seq for e in got_b] == [1, 2, 3]
    assert [e.payload for e in got_a] == ["t1", "t2", "t3"]


def test_cumulative_ack_prunes_the_window(manual):
    bus = manual.bus()
    sub = bus.subscribe("tasks/ep", "ep")
    Inbox.on(sub, 10)
    for payload in ("t1", "t2", "t3"):
        bus.publish("tasks/ep", payload)
    manual.pump()
    sub.ack(2)
    assert bus.unacked("tasks/ep", "ep") == [3]
    assert sub.acked == 2


def test_publish_before_first_subscribe_is_retained(manual):
    bus = manual.bus()
    bus.register_subscriber("tasks/ep", "ep")
    bus.publish("tasks/ep", "early")
    inbox = Inbox.on(bus.subscribe("tasks/ep", "ep"), 10)
    manual.pump()
    assert [e.payload for e in inbox.take()] == ["early"]


def test_unacked_envelope_redelivers_after_backoff(manual, metrics):
    bus = manual.bus()
    inbox = Inbox.on(bus.subscribe("tasks/ep", "ep"), 10)
    bus.publish("tasks/ep", "t1")
    manual.pump()
    first = inbox.take()
    assert [e.seq for e in first] == [1]
    # Not acked: nothing is due until the backoff elapses...
    manual.pump()
    assert inbox.take() == []
    manual.clock.sleep(1.0)
    # ...then the same envelope comes around again.
    manual.pump()
    again = inbox.take()
    assert [e.seq for e in again] == [1]
    assert metrics.counter_total("bus.delivered") == 1
    assert metrics.counter_total("bus.redelivered") == 1


def test_resubscribe_replays_from_the_last_ack(manual):
    bus = manual.bus(lease_ttl=5.0)
    sub = bus.subscribe("tasks/ep", "ep")
    inbox = Inbox.on(sub, 10)
    bus.publish("tasks/ep", "t1")
    manual.pump()
    inbox.take()
    sub.ack(1)
    # The subscriber goes quiet past the lease; the next publish lapses it.
    sub.detach()
    manual.clock.sleep(6.0)
    bus.publish("tasks/ep", "t2")
    bus.publish("tasks/ep", "t3")
    sub.attach(inbox.deliver, inbox.lapsed, 10)
    manual.pump()
    assert inbox.lapses == 1 and inbox.take() == []
    assert not bus.is_active("tasks/ep", "ep")
    # Resubscribing replays everything after the ack, immediately.
    sub = bus.subscribe("tasks/ep", "ep")
    manual.pump()
    assert [e.payload for e in inbox.take()] == ["t2", "t3"]


def test_fresh_consumer_adopts_broker_ack_after_trim(manual):
    """A consumer built over pre-existing subscriber state (agent restart)
    starts its frontier at the broker's cumulative ack, not at zero.  The
    broker's ack moves past sequence numbers nobody saw when the publisher
    takes them back (``discard``)."""
    bus = manual.bus()
    bus.register_subscriber("tasks/ep", "ep")
    for index in range(5):
        bus.publish("tasks/ep", f"t{index}")
    bus.discard("tasks/ep", "ep")
    bus.publish("tasks/ep", "t5")
    consumer = BusConsumer(
        bus, "tasks/ep", "ep", role="endpoint", clock=manual.clock, max_batch=10
    )
    inbox = _consume(consumer)
    manual.pump()
    for envelope in inbox.take():
        consumer.done(envelope)
    assert bus.unacked("tasks/ep", "ep") == []


def test_close_discards_the_window(manual):
    bus = manual.bus()
    sub = bus.subscribe("tasks/ep", "ep")
    bus.publish("tasks/ep", "t1")
    sub.close()
    assert bus.unacked("tasks/ep", "ep") == []
    inbox = Inbox.on(sub, 10)
    manual.pump()
    assert inbox.lapses == 1 and inbox.take() == []


def test_consumer_acks_contiguous_prefix_and_drops_duplicates(manual, metrics):
    bus = manual.bus()
    consumer = BusConsumer(bus, "tasks/ep", "ep", role="endpoint", clock=manual.clock)
    inbox = _consume(consumer)
    bus.publish("tasks/ep", "t1")
    bus.publish("tasks/ep", "t2")
    manual.pump()
    e1, e2 = inbox.take()
    # Processing out of order: seq 2 alone cannot be acked (seq 1 is still
    # outstanding), so the broker redelivers it — and the consumer, which
    # already processed it, drops the duplicate.
    consumer.done(e2)
    assert bus.unacked("tasks/ep", "ep") == [1, 2]
    manual.clock.sleep(1.0)
    # Both redeliver: seq 1 (never processed) comes back — that is the
    # at-least-once contract — while processed seq 2 is suppressed.
    manual.pump()
    assert [e.seq for e in inbox.take()] == [1]
    assert metrics.counter_total("bus.duplicates_dropped") == 1
    consumer.done(e1)  # completes the prefix: cumulative ack covers both
    assert bus.unacked("tasks/ep", "ep") == []


def test_consumer_resubscribe_after_lapse(manual, metrics):
    bus = manual.bus(lease_ttl=5.0)
    consumer = BusConsumer(bus, "results/c", "c", role="client", clock=manual.clock)
    manual.clock.sleep(6.0)
    bus.publish("results/c", "t1")
    inbox = _consume(consumer)
    manual.pump()
    assert inbox.lapses == 1 and inbox.take() == []
    consumer.resubscribe()
    manual.pump()
    (envelope,) = inbox.take()
    assert envelope.payload == "t1"
    consumer.done(envelope)
    assert bus.unacked("results/c", "c") == []
    assert metrics.counter_total("bus.resubscribes") == 1


def test_notify_latency_histogram_is_recorded(manual, metrics):
    bus = manual.bus()
    consumer = BusConsumer(bus, "results/c", "c", role="client", clock=manual.clock)
    inbox = _consume(consumer)
    bus.publish("results/c", "t1")
    manual.clock.sleep(0.5)
    manual.pump()
    (envelope,) = inbox.take()
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


def test_done_from_many_threads_keeps_the_frontier_exact(manual):
    """``done`` runs on the client's reactor while ``resubscribe`` may run
    on another thread: four threads acking 2,000 envelopes out of order,
    against a resubscribing fifth, still leave the frontier at the last one
    and nothing unacked.  The bus keeps time on a clock only the test
    moves, so its lease cannot run out while a loaded host publishes the
    2,000."""
    bus = manual.bus()
    consumer = BusConsumer(
        bus, "results/c", "c", role="client", clock=manual.clock, max_batch=2000
    )
    inbox = _consume(consumer)
    for n in range(2000):
        bus.publish("results/c", str(n))
    manual.pump()
    envelopes = inbox.take()
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
