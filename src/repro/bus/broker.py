"""The acknowledged push-notification bus (broker side).

The paper's cloud fabric delivers result notifications over a websocket
and task dispatches over AMQP; both are *push* channels layered over
durable server-side queues.  :class:`NotificationBus` reproduces that
layer with auditable delivery guarantees:

* **Per-subscriber monotonic sequence numbers** — every envelope published
  to a ``(topic, subscriber)`` pair gets the next sequence number in that
  subscriber's stream, so consumers can suppress duplicates and ack
  cumulatively.
* **At-least-once delivery** — an envelope stays in the subscriber's unacked
  window until a cumulative ack covers it; unacked envelopes are redelivered
  after a :class:`~repro.chaos.policy.RetryPolicy`-driven backoff.  The
  window is the one record of what a subscriber has not collected: nothing
  is ever trimmed from it.
* **Push delivery on the reactor** — a subscriber attaches a listener, and
  whenever it has due envelopes (a publish, a resubscribe replay, an
  expired redelivery backoff) the broker arms at most one process-reactor
  call for it, which hands the listener up to its batch of envelopes.  A
  lapse reaches the listener on the reactor too.
* **Subscription leases** — an attached listener never lapses on its
  lease; a detached one (paused, crashed or killed owner) lapses
  ``lease_ttl`` after it went quiet.  Envelopes keep accumulating in its
  window and are replayed from the last ack on resubscribe, so nothing is
  lost across the gap.  A live subscriber's window stays bounded by what
  it has in flight: an endpoint's by its credit window, a client's by its
  downloads.

Chaos hooks (``bus.deliver``, ``bus.duplicate``, ``bus.subscription.drop``)
are keyed by envelope *content* (the task's chaos key) plus the subscriber's
stable label, so a seeded campaign injects the identical notification-loss
set across runs regardless of thread scheduling.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable

from repro.batch.reactor import get_reactor
from repro.chaos.plan import chaos_check
from repro.chaos.policy import RetryPolicy
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
        #: The attached listener, if any, and the one reactor call armed to
        #: feed it.
        self.listener: _Listener | None = None
        self.wake = None


@dataclass(frozen=True)
class _Listener:
    deliver: Callable[[list[Envelope]], None]
    lapsed: Callable[[], None]
    max_n: int


class Subscription:
    """A consumer's handle on its subscriber state: attach, ack, close."""

    def __init__(self, bus: "NotificationBus", state: _SubscriberState) -> None:
        self._bus = bus
        self._state = state

    @property
    def topic(self) -> str:
        return self._state.topic

    @property
    def acked(self) -> int:
        return self._state.acked

    def attach(self, deliver: Callable, lapsed: Callable, max_n: int) -> None:
        """Push delivery: ``deliver(envelopes)`` (at most ``max_n``) and
        ``lapsed()`` run on the process reactor and must not block.  The
        listener belongs to the subscriber: it survives a resubscribe."""
        self._bus._attach(self._state, _Listener(deliver, lapsed, max_n))

    def detach(self) -> None:
        """Stop push delivery; the lease runs from now."""
        self._bus._detach(self._state)

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
    ) -> None:
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive, got {lease_ttl}")
        self._clock = clock or get_clock()
        self._redelivery = redelivery or RetryPolicy(
            max_attempts=6, base_delay=0.5, max_delay=4.0
        )
        self._lease_ttl = lease_ttl
        self._states: dict[tuple[str, str], _SubscriberState] = {}
        self._by_topic: dict[str, list[_SubscriberState]] = {}
        self._lock = threading.Lock()

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
        )

    # -- registration / subscription ------------------------------------------
    def register_subscriber(
        self, topic: str, subscriber_id: str, *, chaos_label: str | None = None
    ) -> None:
        """Pre-create (inactive) subscriber state so publishes that happen
        before the subscriber's first :meth:`subscribe` are retained."""
        with self._lock:
            self._state_locked(topic, subscriber_id, chaos_label)

    def subscribe(
        self, topic: str, subscriber_id: str, *, chaos_label: str | None = None
    ) -> Subscription:
        """Activate (or resume) a subscription.

        Resuming replays from the last cumulative ack: every unacked
        envelope in the window becomes immediately deliverable again, so no
        notification is lost across a lapse.
        """
        with self._lock:
            state = self._state_locked(topic, subscriber_id, chaos_label)
            state.active = True
            state.lease_expiry = self._clock.now() + self._lease_ttl
            for seq in state.next_attempt_at:
                state.next_attempt_at[seq] = 0.0
            self._arm_locked(state, 0.0)
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
        with self._lock:
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
                self._arm_locked(state, 0.0)
            return fanout

    def _lapse_if_stale_locked(self, state: _SubscriberState, now: float) -> None:
        if state.active and state.listener is None and state.lease_expiry <= now:
            self._drop_locked(state, "lease")

    def _drop_locked(self, state: _SubscriberState, reason: str) -> None:
        state.active = False
        counter_inc(
            "bus.subscription_drops", role=_role(state.topic), reason=reason
        )
        self._wake_locked(state, get_reactor().now())

    # -- consume ----------------------------------------------------------------
    def _attach(self, state: _SubscriberState, listener: _Listener) -> None:
        with self._lock:
            state.listener = listener
            if state.active:
                self._arm_locked(state)
            else:  # the owner learns of the lapse
                self._wake_locked(state, get_reactor().now())

    def _detach(self, state: _SubscriberState) -> None:
        with self._lock:
            state.listener = None
            state.lease_expiry = self._clock.now() + self._lease_ttl
            self._wake_locked(state, None)

    def _arm_locked(self, state: _SubscriberState, due: float | None = None) -> None:
        """Have the listener's call armed by the time its next envelope is
        due (at ``due``, when the caller knows): keep an earlier call,
        replace a later one."""
        if state.listener is None or not state.active or not state.next_attempt_at:
            return
        if due is None:
            due = min(state.next_attempt_at.values())
        # A deadline on the reactor's own timeline.
        at = get_reactor().now() + max(0.0, due - self._clock.now())
        if state.wake is None or state.wake.when > at:
            self._wake_locked(state, at)

    def _wake_locked(self, state: _SubscriberState, at: float | None) -> None:
        """Replace the subscriber's armed call with one due at reactor time
        ``at`` (``None``: none at all)."""
        if state.wake is not None:
            state.wake.cancel()
        state.wake = None
        if at is not None and state.listener is not None:
            state.wake = get_reactor().call_at(at, lambda: self._pump(state))

    def _pump(self, state: _SubscriberState) -> None:
        """The subscriber's armed call (reactor): hand its listener the due
        envelopes, or the news that it lapsed, and arm the next call."""
        with self._lock:
            listener = state.listener
            if listener is None:
                return
            state.wake = None
            envelopes = None
            if state.active:
                envelopes = self._deliver_due_locked(state, listener.max_n)
                self._arm_locked(state)
        if envelopes is None:
            listener.lapsed()
        elif envelopes:
            listener.deliver(envelopes)

    def _deliver_due_locked(self, state: _SubscriberState, max_n: int) -> list[Envelope]:
        """Deliver up to ``max_n`` due envelopes, oldest first."""
        now = self._clock.now()
        due = sorted(seq for seq, at in state.next_attempt_at.items() if at <= now)
        out: list[Envelope] = []
        policy = self._redelivery
        for seq in due[:max_n]:
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
        with self._lock:
            if upto_seq > state.acked:
                state.acked = upto_seq
            for seq in [s for s in state.window if s <= upto_seq]:
                del state.window[seq]
                del state.attempts[seq]
                del state.next_attempt_at[seq]
            if state.active and not state.window:
                self._wake_locked(state, None)  # no redelivery left to time

    def discard(self, topic: str, subscriber_id: str) -> None:
        """Ack, on the subscriber's behalf, everything published to it so
        far, delivered or not: the publisher took back what it carried."""
        state = self._states.get((topic, subscriber_id))
        if state is not None:
            self._ack(state, state.next_seq - 1)

    def _close(self, state: _SubscriberState) -> None:
        with self._lock:
            state.active = False
            state.acked = max(state.acked, state.next_seq - 1)
            state.window.clear()
            state.attempts.clear()
            state.next_attempt_at.clear()
            state.listener = None
            self._wake_locked(state, None)

    # -- introspection (tests, audits) ------------------------------------------
    def unacked(self, topic: str, subscriber_id: str) -> list[int]:
        with self._lock:
            state = self._states.get((topic, subscriber_id))
            return sorted(state.window) if state is not None else []

    def is_active(self, topic: str, subscriber_id: str) -> bool:
        with self._lock:
            state = self._states.get((topic, subscriber_id))
            return state is not None and state.active


def _role(topic: str) -> str:
    """Stable metric/chaos label for a topic's consumer kind."""
    prefix = topic.split("/", 1)[0]
    return {"tasks": "endpoint", "results": "client"}.get(prefix, prefix)
