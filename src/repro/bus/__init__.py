"""``repro.bus`` — acknowledged push-notification bus for the task fabric.

Event-driven replacement for the client/endpoint busy-poll loops: the cloud
publishes sequenced envelopes (result notifications, leased tasks pushed to
endpoints) to per-subscriber streams with explicit cumulative acks, per-subscriber
redelivery windows, and :class:`~repro.chaos.policy.RetryPolicy`-driven
redelivery backoff — at-least-once delivery with consumer-side duplicate
suppression by sequence number.  A subscriber's unacked window is the one
record of what it has not collected; a lapsed subscription resubscribes and
is replayed from its last ack.
"""

from repro.bus.broker import Envelope, NotificationBus, Subscription
from repro.bus.consumer import BusConsumer

__all__ = ["Envelope", "NotificationBus", "Subscription", "BusConsumer"]
