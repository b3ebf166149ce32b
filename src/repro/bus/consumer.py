"""Consumer-side bus logic shared by the FaaS client and endpoint.

:class:`BusConsumer` wraps a broker :class:`~repro.bus.broker.Subscription`
with the receiver half of the at-least-once contract:

* **Duplicate suppression by sequence number** — an envelope at or below the
  contiguous-processed frontier (or already processed ahead of a gap) is
  dropped and counted in ``bus.duplicates_dropped``.
* **Cumulative acks** — :meth:`done` marks one envelope processed and acks
  the highest *contiguous* prefix, so a lost-in-flight envelope keeps every
  later one unacked-but-processed until its redelivery arrives.
* **Push delivery** — :meth:`attach` hands the owner's listener to the
  broker: fresh envelopes reach ``on_delivery`` on the process reactor, and
  a dropped subscription reaches ``on_lapse`` there; the owner calls
  :meth:`resubscribe`, which replays from the last ack.  :meth:`detach`
  stops delivery (a paused or dead owner).

The ``bus.notify_latency_s`` histogram records publish-to-receive latency
for every fresh (non-duplicate) envelope.  :meth:`done` and
:meth:`resubscribe` may run on other threads than delivery, so the
frontier is kept under one lock.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.bus.broker import Envelope, NotificationBus, Subscription
from repro.net.clock import Clock, get_clock
from repro.observe import counter_inc, observe

__all__ = ["BusConsumer"]


class BusConsumer:
    """One subscriber's receive/dedup/ack state machine."""

    def __init__(
        self,
        bus: NotificationBus,
        topic: str,
        subscriber_id: str,
        *,
        role: str,
        chaos_label: str | None = None,
        clock: Clock | None = None,
        max_batch: int = 32,
    ) -> None:
        self._bus = bus
        self._topic = topic
        self._subscriber_id = subscriber_id
        self._role = role
        self._chaos_label = chaos_label or subscriber_id
        self._clock = clock or get_clock()
        self._max_batch = max_batch
        # Contiguous-processed frontier plus the out-of-order set beyond it
        # (and the subscription they ack), under ``_lock``.
        self._lock = threading.Lock()
        self._contiguous = 0
        self._done_ahead: set[int] = set()
        bus.register_subscriber(topic, subscriber_id, chaos_label=self._chaos_label)
        self._sub: Subscription = bus.subscribe(
            topic, subscriber_id, chaos_label=self._chaos_label
        )
        self._sync_frontier()

    @property
    def topic(self) -> str:
        return self._topic

    def attach(self, on_delivery: Callable, on_lapse: Callable[[], None]) -> None:
        """Push deduplicated envelopes, oldest first, to ``on_delivery`` and
        a lapse to ``on_lapse``, both on the process reactor: neither may
        block or raise."""

        def deliver(envelopes: list[Envelope]) -> None:
            if fresh := self._fresh(envelopes):
                on_delivery(fresh)

        self._sub.attach(deliver, on_lapse, self._max_batch)

    def detach(self) -> None:
        """Stop push delivery; the subscription lapses a lease later."""
        self._sub.detach()

    def _fresh(self, envelopes: list[Envelope]) -> list[Envelope]:
        fresh: list[Envelope] = []
        seen_now: set[int] = set()
        with self._lock:
            for env in envelopes:
                if (
                    env.seq <= self._contiguous
                    or env.seq in self._done_ahead
                    or env.seq in seen_now
                ):
                    counter_inc("bus.duplicates_dropped", role=self._role)
                    continue
                seen_now.add(env.seq)
                observe(
                    "bus.notify_latency_s",
                    self._clock.now() - env.published_at,
                    role=self._role,
                )
                fresh.append(env)
        return fresh

    def done(self, envelope: Envelope) -> None:
        """Mark one envelope processed; ack the contiguous prefix."""
        with self._lock:
            self._sync_frontier()  # the broker may have acked for us
            if envelope.seq <= self._contiguous:
                return
            self._done_ahead.add(envelope.seq)
            advanced = False
            while self._contiguous + 1 in self._done_ahead:
                self._contiguous += 1
                self._done_ahead.remove(self._contiguous)
                advanced = True
            if advanced:
                self._sub.ack(self._contiguous)

    def resubscribe(self) -> None:
        """Reactivate after a lapse; the broker replays from the last ack."""
        sub = self._bus.subscribe(
            self._topic, self._subscriber_id, chaos_label=self._chaos_label
        )
        with self._lock:
            self._sub = sub
            self._sync_frontier()
        counter_inc("bus.resubscribes", role=self._role)

    def _sync_frontier(self) -> None:
        """Adopt the broker's cumulative ack as the contiguous frontier.

        A publisher's discard advances the broker-side ack past sequence
        numbers that will never be delivered; without this sync, ``done``
        would wait forever for them and never ack again.
        The caller holds ``_lock``, or no other thread has the consumer."""
        floor = self._sub.acked
        if floor > self._contiguous:
            self._contiguous = floor
            self._done_ahead = {seq for seq in self._done_ahead if seq > floor}

    def close(self) -> None:
        self._sub.close()
