"""A single-threaded timer reactor multiplexing the control plane's waits.

Before this existed every deadline in the hot path owned a thread: each
endpoint parked a heartbeat thread in a sleep loop, and a batching client
would have needed one waiter per armed flush deadline.  The reactor
replaces those with one scheduler thread per process: callbacks are kept
in a heap ordered by *nominal* (virtual-clock) deadline and the thread
waits on a condition variable, through the clock, until the nearest one.
Arming, cancelling, or closing wakes it immediately.

Callbacks run on the reactor thread and must be short and non-blocking —
they land a modelled charge, hand work to a worker thread, or deliver bus
envelopes to a listener.  A periodic callback can cancel itself by
returning ``False``.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from typing import Any, Callable, Optional

from repro.net.clock import Clock, get_clock
from repro.net.context import SiteThread
from repro.observe import counter_inc

__all__ = ["Reactor", "Timer", "get_reactor", "reset_reactor"]


class Timer:
    """Handle for a scheduled callback; ``cancel()`` is idempotent."""

    __slots__ = ("when", "period", "fn", "cancelled")

    def __init__(self, when: float, period: Optional[float], fn: Callable[[], Any]):
        self.when = when
        self.period = period
        self.fn = fn
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class Reactor:
    """One scheduler thread driving many nominal-time deadlines."""

    def __init__(self, clock: Clock | None = None) -> None:
        self._clock = clock or get_clock()
        self._heap: list[tuple[float, int, Timer]] = []
        self._seq = itertools.count()
        self._cond = threading.Condition()
        self._thread: SiteThread | None = None
        self._running = False

    # -- scheduling ----------------------------------------------------------
    def now(self) -> float:
        """The nominal time timers are due against."""
        return self._clock.now()

    def call_later(self, delay: float, fn: Callable[[], Any]) -> Timer:
        """Run ``fn`` once, ``delay`` nominal seconds from now."""
        return self._arm(Timer(self._clock.now() + max(0.0, delay), None, fn))

    def call_at(self, when: float, fn: Callable[[], Any]) -> Timer:
        """Run ``fn`` once at nominal time ``when`` (at once if it has
        passed): a deadline, where ``call_later`` pays a delay."""
        return self._arm(Timer(when, None, fn))

    def call_every(self, period: float, fn: Callable[[], Any]) -> Timer:
        """Run ``fn`` every ``period`` nominal seconds until it is cancelled
        or returns ``False``."""
        period = max(period, 1e-9)
        return self._arm(Timer(self._clock.now() + period, period, fn))

    def _arm(self, timer: Timer) -> Timer:
        with self._cond:
            heapq.heappush(self._heap, (timer.when, next(self._seq), timer))
            self._ensure_thread_locked()
            # The loop waits until the nearest deadline, so only a timer that
            # became the nearest one has to wake it.
            if self._heap[0][2] is timer:
                self._cond.notify_all()
        return timer

    def _ensure_thread_locked(self) -> None:
        if self._running:
            return
        self._running = True
        self._thread = SiteThread(None, target=self._run, name="repro-reactor")
        self._thread.start()

    # -- loop ----------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._cond:
                if not self._running:
                    return
                due = self._pop_due_locked()
                if due is None:
                    # Block until the nearest deadline (the pop left a live
                    # timer at the head, if any); arming a nearer timer
                    # notifies us awake.
                    nearest = None
                    if self._heap:
                        nearest = self._heap[0][0] - self._clock.now()
                    self._clock.wait(self._cond, nearest)
                    continue
            self._fire(due)

    def _pop_due_locked(self) -> Timer | None:
        now = self._clock.now()
        while self._heap:
            when, _, timer = self._heap[0]
            if timer.cancelled:
                heapq.heappop(self._heap)
                continue
            if when > now:
                return None
            heapq.heappop(self._heap)
            return timer
        return None

    def _fire(self, timer: Timer) -> None:
        try:
            keep = timer.fn()
        except Exception:
            counter_inc("reactor.callback_errors")
            keep = False
        if timer.period is not None and keep is not False and not timer.cancelled:
            timer.when = self._clock.now() + timer.period
            with self._cond:
                heapq.heappush(self._heap, (timer.when, next(self._seq), timer))
                self._cond.notify_all()

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        with self._cond:
            self._running = False
            self._heap.clear()
            self._cond.notify_all()
            thread = self._thread
            self._thread = None
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=1.0)


_process_reactor: Reactor | None = None
_process_lock = threading.Lock()


def get_reactor() -> Reactor:
    """The per-process reactor (created on first use)."""
    global _process_reactor
    with _process_lock:
        if _process_reactor is None:
            _process_reactor = Reactor()
        return _process_reactor


def reset_reactor() -> None:
    """Tear down the process reactor (tests call this between cases so
    stale timers from a previous virtual-clock epoch cannot fire)."""
    global _process_reactor
    with _process_lock:
        reactor, _process_reactor = _process_reactor, None
    if reactor is not None:
        reactor.close()
