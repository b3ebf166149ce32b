"""The acknowledged push-notification bus (broker side).

The paper's cloud fabric delivers result notifications over a
websocket/polling hybrid and task dispatches over AMQP; both are *push*
channels layered over durable server-side queues.  :class:`NotificationBus`
reproduces that layer with auditable delivery guarantees:

* **Per-subscriber monotonic sequence numbers** — every envelope published
  to a ``(topic, subscriber)`` pair gets the next sequence number in that
  subscriber's stream, so consumers can suppress duplicates and ack
  cumulatively.
* **At-least-once delivery** — an envelope stays in the subscriber's unacked
  window until a cumulative ack covers it; unacked envelopes are redelivered
  after a :class:`~repro.chaos.policy.RetryPolicy`-driven backoff.
* **Subscription leases** — a subscriber that stops receiving (crash, pause,
  chaos-injected disconnect) has its subscription lapse; envelopes keep
  accumulating in its window and are replayed from the last ack on
  resubscribe, so nothing is lost across the gap.
* **Bounded redelivery window** — a subscriber more than ``window`` envelopes
  behind is force-lapsed and its oldest envelopes trimmed; the poll-fallback
  path (the queues are the ground truth, envelopes are doorbells) covers the
  trimmed gap.

Chaos hooks (``bus.deliver``, ``bus.duplicate``, ``bus.subscription.drop``)
are keyed by envelope *content* (the task's chaos key) plus the subscriber's
stable label, so a seeded campaign injects the identical notification-loss
set across runs regardless of thread scheduling.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any

from repro.chaos.plan import chaos_check
from repro.chaos.policy import RetryPolicy
from repro.exceptions import SubscriptionLapsedError
from repro.net.clock import Clock, get_clock
from repro.observe import counter_inc

__all__ = ["Envelope", "Subscription", "NotificationBus"]


@dataclass(frozen=True)
class Envelope:
    """One sequenced notification in a subscriber's stream."""

    seq: int
    topic: str
    payload: Any
    #: Content-derived fault-injection key (the task's chaos key); delivery
    #: hooks key on it so loss/duplicate injection is run-order independent.
    chaos_key: str | None
    published_at: float


class _SubscriberState:
    """Broker-side state for one (topic, subscriber) pair.

    Created at registration time (before the subscriber ever connects) so
    publishes can never race a first subscribe: envelopes published while
    the subscriber is away accumulate here and replay on subscribe.
    """

    def __init__(self, topic: str, subscriber_id: str, chaos_label: str) -> None:
        self.topic = topic
        self.subscriber_id = subscriber_id
        self.chaos_label = chaos_label
        self.active = False
        self.lease_expiry = 0.0
        self.next_seq = 1
        #: Highest cumulatively acked sequence number.
        self.acked = 0
        #: Unacked envelopes by sequence number (the redelivery window).
        self.window: dict[int, Envelope] = {}
        #: Delivery attempts made per unacked sequence number.
        self.attempts: dict[int, int] = {}
        #: Earliest nominal time each unacked envelope may be (re)delivered.
        self.next_attempt_at: dict[int, float] = {}


class Subscription:
    """A consumer's handle on its subscriber state: receive, ack, close."""

    def __init__(self, bus: "NotificationBus", state: _SubscriberState) -> None:
        self._bus = bus
        self._state = state

    @property
    def topic(self) -> str:
        return self._state.topic

    @property
    def acked(self) -> int:
        return self._state.acked

    def receive(self, max_n: int, timeout: float | None) -> list[Envelope]:
        """Block until envelopes are deliverable (or ``timeout`` nominal
        seconds elapse); raises :class:`SubscriptionLapsedError` once the
        subscription has been dropped."""
        return self._bus._receive(self._state, max_n, timeout)

    def ack(self, upto_seq: int) -> None:
        """Cumulatively acknowledge every envelope with ``seq <= upto_seq``."""
        self._bus._ack(self._state, upto_seq)

    def close(self) -> None:
        """Graceful unsubscribe: deactivate and discard the window."""
        self._bus._close(self._state)


class NotificationBus:
    """Cloud-hosted subscription bus with acked, at-least-once delivery."""

    def __init__(
        self,
        *,
        clock: Clock | None = None,
        redelivery: RetryPolicy | None = None,
        lease_ttl: float = 30.0,
        window: int = 256,
    ) -> None:
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive, got {lease_ttl}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._clock = clock or get_clock()
        self._redelivery = redelivery or RetryPolicy(
            max_attempts=6, base_delay=0.5, max_delay=4.0
        )
        self._lease_ttl = lease_ttl
        self._window = window
        self._states: dict[tuple[str, str], _SubscriberState] = {}
        self._by_topic: dict[str, list[_SubscriberState]] = {}
        self._cond = threading.Condition()

    @classmethod
    def for_cloud(cls, clock: Clock, constants) -> "NotificationBus":
        """A cloud service's bus, tuned by its ``PaperConstants``."""
        return cls(
            clock=clock,
            redelivery=RetryPolicy(
                max_attempts=6,
                base_delay=constants.bus_redelivery_base,
                max_delay=constants.bus_redelivery_max,
            ),
            lease_ttl=constants.bus_lease_ttl,
            window=constants.bus_redelivery_window,
        )

    # -- registration / subscription ------------------------------------------
    def register_subscriber(
        self, topic: str, subscriber_id: str, *, chaos_label: str | None = None
    ) -> None:
        """Pre-create (inactive) subscriber state so publishes that happen
        before the subscriber's first :meth:`subscribe` are retained."""
        with self._cond:
            self._state_locked(topic, subscriber_id, chaos_label)

    def subscribe(
        self, topic: str, subscriber_id: str, *, chaos_label: str | None = None
    ) -> Subscription:
        """Activate (or resume) a subscription.

        Resuming replays from the last cumulative ack: every unacked
        envelope in the window becomes immediately deliverable again, so no
        notification is lost across a lapse.
        """
        with self._cond:
            state = self._state_locked(topic, subscriber_id, chaos_label)
            state.active = True
            state.lease_expiry = self._clock.now() + self._lease_ttl
            for seq in state.next_attempt_at:
                state.next_attempt_at[seq] = 0.0
            self._cond.notify_all()
        return Subscription(self, state)

    def _state_locked(
        self, topic: str, subscriber_id: str, chaos_label: str | None
    ) -> _SubscriberState:
        key = (topic, subscriber_id)
        state = self._states.get(key)
        if state is None:
            state = _SubscriberState(topic, subscriber_id, chaos_label or subscriber_id)
            self._states[key] = state
            self._by_topic.setdefault(topic, []).append(state)
        return state

    # -- publish ---------------------------------------------------------------
    def publish(self, topic: str, payload: Any, *, chaos_key: str | None = None) -> int:
        """Enqueue a sequenced envelope for every subscriber of ``topic``;
        returns the number of subscriber streams it entered.

        The ``bus.subscription.drop`` chaos hook runs here for *every*
        subscriber, active or not, so the injected-fault ledger is a pure
        function of the publish sequence (which is causal), never of
        whether a resubscribe happened to win a race.
        """
        now = self._clock.now()
        with self._cond:
            states = list(self._by_topic.get(topic, ()))
            fanout = 0
            for state in states:
                self._lapse_if_stale_locked(state, now)
                spec = chaos_check(
                    "bus.subscription.drop",
                    f"{chaos_key or topic}|{state.chaos_label}",
                    topic=topic,
                    role=_role(topic),
                )
                if spec is not None and state.active:
                    self._drop_locked(state, "chaos")
                seq = state.next_seq
                state.next_seq += 1
                env = Envelope(seq, topic, payload, chaos_key, now)
                state.window[seq] = env
                state.attempts[seq] = 0
                state.next_attempt_at[seq] = 0.0
                counter_inc("bus.published", role=_role(topic))
                fanout += 1
                if len(state.window) > self._window:
                    self._overflow_locked(state)
            if fanout:
                self._cond.notify_all()
            return fanout

    def _lapse_if_stale_locked(self, state: _SubscriberState, now: float) -> None:
        if state.active and state.lease_expiry <= now:
            self._drop_locked(state, "lease")

    def _drop_locked(self, state: _SubscriberState, reason: str) -> None:
        state.active = False
        counter_inc(
            "bus.subscription_drops", role=_role(state.topic), reason=reason
        )
        self._cond.notify_all()

    def _overflow_locked(self, state: _SubscriberState) -> None:
        """A subscriber fell more than ``window`` envelopes behind: lapse it
        and trim the oldest overflow (the poll fallback covers the trim —
        envelopes are doorbells, the queues hold the actual work).

        Trimmed sequence numbers will never be delivered, so the cumulative
        ack is advanced past them; otherwise the consumer's contiguous
        frontier could never cross the gap and the window would stay wedged
        at capacity forever (every later publish re-trimming and the
        surviving envelopes redelivering without end)."""
        if state.active:
            self._drop_locked(state, "overflow")
        for seq in sorted(state.window)[: len(state.window) - self._window]:
            del state.window[seq]
            del state.attempts[seq]
            del state.next_attempt_at[seq]
            if seq > state.acked:
                state.acked = seq
            counter_inc("bus.window_trimmed", role=_role(state.topic))

    # -- consume ----------------------------------------------------------------
    def _receive(
        self, state: _SubscriberState, max_n: int, timeout: float | None
    ) -> list[Envelope]:
        deadline = None if timeout is None else self._clock.now() + timeout
        with self._cond:
            while True:
                if not state.active:
                    raise SubscriptionLapsedError(
                        f"subscription to {state.topic!r} lapsed; poll and "
                        f"resubscribe to replay from ack {state.acked}"
                    )
                now = self._clock.now()
                state.lease_expiry = now + self._lease_ttl
                due = sorted(
                    [seq for seq, at in state.next_attempt_at.items() if at <= now]
                )
                if due:
                    return self._deliver_locked(state, due[:max_n], now)
                if deadline is not None and now >= deadline:
                    return []
                wake_at = deadline
                if state.next_attempt_at:
                    soonest = min(state.next_attempt_at.values())
                    wake_at = soonest if wake_at is None else min(wake_at, soonest)
                self._clock.wait(self._cond, None if wake_at is None else wake_at - now)

    def _deliver_locked(
        self, state: _SubscriberState, seqs: list[int], now: float
    ) -> list[Envelope]:
        out: list[Envelope] = []
        policy = self._redelivery
        for seq in seqs:
            env = state.window[seq]
            attempt = state.attempts[seq]
            state.attempts[seq] = attempt + 1
            backoff_key = env.chaos_key or f"{env.topic}|{seq}"
            state.next_attempt_at[seq] = now + policy.delay_for(
                min(attempt, policy.max_attempts - 1), key=backoff_key
            )
            role = _role(state.topic)
            if attempt == 0:
                counter_inc("bus.delivered", role=role)
            else:
                counter_inc("bus.redelivered", role=role)
            hook_key = f"{backoff_key}|{state.chaos_label}"
            lost = chaos_check(
                "bus.deliver", hook_key, role=role, attempt=attempt
            )
            if lost is not None:
                # Dropped in flight: the subscriber never sees this attempt;
                # the envelope stays unacked and redelivers after backoff.
                counter_inc("bus.lost_in_flight", role=role)
                continue
            out.append(env)
            duplicated = chaos_check(
                "bus.duplicate", hook_key, role=role, attempt=attempt
            )
            if duplicated is not None:
                out.append(env)
        return out

    def _ack(self, state: _SubscriberState, upto_seq: int) -> None:
        with self._cond:
            if upto_seq > state.acked:
                state.acked = upto_seq
            for seq in [s for s in state.window if s <= upto_seq]:
                del state.window[seq]
                del state.attempts[seq]
                del state.next_attempt_at[seq]
            self._cond.notify_all()

    def _close(self, state: _SubscriberState) -> None:
        with self._cond:
            state.active = False
            state.acked = max(state.acked, state.next_seq - 1)
            state.window.clear()
            state.attempts.clear()
            state.next_attempt_at.clear()
            self._cond.notify_all()

    # -- introspection (tests, audits) ------------------------------------------
    def unacked(self, topic: str, subscriber_id: str) -> list[int]:
        with self._cond:
            state = self._states.get((topic, subscriber_id))
            return sorted(state.window) if state is not None else []

    def is_active(self, topic: str, subscriber_id: str) -> bool:
        with self._cond:
            state = self._states.get((topic, subscriber_id))
            return state is not None and state.active


def _role(topic: str) -> str:
    """Stable metric/chaos label for a topic's consumer kind."""
    prefix = topic.split("/", 1)[0]
    return {"tasks": "endpoint", "results": "client"}.get(prefix, prefix)
