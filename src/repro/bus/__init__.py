"""``repro.bus`` — acknowledged push-notification bus for the task fabric.

Event-driven replacement for the client/endpoint busy-poll loops: the cloud
publishes sequenced envelopes (result notifications, leased tasks pushed to
endpoints) to per-subscriber streams with explicit cumulative acks, bounded
redelivery windows, and :class:`~repro.chaos.policy.RetryPolicy`-driven
redelivery backoff — at-least-once delivery with consumer-side duplicate
suppression by sequence number.  A lapsed subscription resubscribes and is
replayed from its last ack; the client also drains the completed feed
first, its poll fallback.
"""

from repro.bus.broker import Envelope, NotificationBus, Subscription
from repro.bus.consumer import BusConsumer

__all__ = ["Envelope", "NotificationBus", "Subscription", "BusConsumer"]
