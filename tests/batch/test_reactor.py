"""The shared event-driven reactor: one timer thread per process."""

from __future__ import annotations

import threading

from conftest import ManualClock

from repro.batch.reactor import Reactor, get_reactor, reset_reactor
from repro.net.clock import get_clock
from repro.observe import MetricsRegistry, set_metrics


def test_call_later_fires_once():
    reactor = Reactor()
    fired = threading.Event()
    reactor.call_later(0.01, fired.set)
    assert fired.wait(timeout=5.0)
    reactor.close()


def test_timers_fire_in_deadline_order():
    # Time moves only when the reactor's thread waits for its nearest
    # deadline, so the three are due exactly 2, 4 and 6 s after arming.
    reactor = Reactor(ManualClock())
    order: list[str] = []
    done = threading.Event()
    lock = threading.Lock()

    def record(tag: str):
        with lock:
            order.append(tag)
            if len(order) == 3:
                done.set()

    # Armed under the reactor's condition, so its thread can neither fire
    # nor move the clock until all three are registered.
    with reactor._cond:
        reactor.call_later(6.0, lambda: record("c"))
        reactor.call_later(2.0, lambda: record("a"))
        reactor.call_later(4.0, lambda: record("b"))
    assert done.wait(timeout=5.0)
    assert order == ["a", "b", "c"]
    reactor.close()


def test_cancelled_timer_never_fires():
    reactor = Reactor()
    fired = threading.Event()
    sentinel = threading.Event()
    timer = reactor.call_later(2.0, fired.set)
    timer.cancel()
    reactor.call_later(4.0, sentinel.set)
    assert sentinel.wait(timeout=5.0)
    assert not fired.is_set()
    reactor.close()


def test_call_every_repeats_until_false():
    reactor = Reactor()
    done = threading.Event()
    count = [0]

    def tick():
        count[0] += 1
        if count[0] >= 3:
            done.set()
            return False
        return None

    reactor.call_every(0.01, tick)
    assert done.wait(timeout=5.0)
    clock = get_clock()
    clock.sleep(0.05)  # would fire again if the False return were ignored
    assert count[0] == 3
    reactor.close()


def test_callback_exception_is_counted_not_fatal():
    metrics = MetricsRegistry()
    set_metrics(metrics)
    reactor = Reactor()
    survived = threading.Event()

    def boom():
        raise RuntimeError("callback boom")

    reactor.call_later(0.01, boom)
    reactor.call_later(0.02, survived.set)
    assert survived.wait(timeout=5.0)
    assert metrics.counter_total("reactor.callback_errors") == 1
    reactor.close()


def test_process_reactor_is_a_singleton_until_reset():
    first = get_reactor()
    assert get_reactor() is first
    reset_reactor()
    second = get_reactor()
    assert second is not first
    reset_reactor()
