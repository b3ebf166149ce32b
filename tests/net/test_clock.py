"""Tests for the virtual clock."""

import queue
import threading
import time

import pytest

from repro.net.clock import Clock, Timer, get_clock, reset_clock, scaled_time


def test_now_starts_near_zero():
    clock = Clock(time_scale=0.01)
    assert 0.0 <= clock.now() < 0.5


def test_now_is_monotonic():
    clock = Clock(time_scale=0.001)
    samples = [clock.now() for _ in range(100)]
    assert samples == sorted(samples)


def test_sleep_advances_nominal_time():
    clock = Clock(time_scale=0.001)
    start = clock.now()
    clock.sleep(5.0)  # 5 nominal seconds = 5 ms wall
    elapsed = clock.now() - start
    assert elapsed >= 5.0
    assert elapsed < 50.0  # not wildly more


def test_sleep_scales_wall_time():
    clock = Clock(time_scale=0.001)
    wall_start = time.monotonic()
    clock.sleep(10.0)
    wall = time.monotonic() - wall_start
    assert 0.005 <= wall < 0.5


def test_zero_and_negative_sleep_return_immediately():
    clock = Clock(time_scale=1.0)
    wall_start = time.monotonic()
    clock.sleep(0.0)
    clock.sleep(-3.0)
    assert time.monotonic() - wall_start < 0.05


def test_tiny_sleeps_are_skipped():
    clock = Clock(time_scale=1e-9)
    wall_start = time.monotonic()
    for _ in range(1000):
        clock.sleep(1.0)  # each is 1 ns wall: below the skip threshold
    assert time.monotonic() - wall_start < 0.5


def test_invalid_scale_rejected():
    with pytest.raises(ValueError):
        Clock(time_scale=0.0)
    with pytest.raises(ValueError):
        Clock(time_scale=-1.0)
    with pytest.raises(ValueError):
        Clock(1.0).reset(time_scale=-2.0)


def test_wall_timeout_conversion():
    """Timed waits convert their nominal budget through the clock's scale."""
    clock = Clock(time_scale=0.5)
    cond = threading.Condition()

    # None is forever: only the other thread's set/notify ends the wait.
    flag = threading.Event()
    threading.Timer(0.1, flag.set).start()
    assert clock.wait(flag, None)
    ready = []
    with cond:
        threading.Timer(0.1, lambda: _notify(cond, ready)).start()
        assert clock.wait_for(cond, lambda: ready, None)

    # A negative budget returns at once.
    wall_start = time.monotonic()
    assert not clock.wait(threading.Event(), -1.0)
    with cond:
        assert not clock.wait_for(cond, lambda: False, -1.0)
    assert time.monotonic() - wall_start < 0.05

    # At scale 0.5, 2.0 nominal seconds is about 1 s of wall time (and 0.2
    # about 0.1 s: the deadline loop converts the same way).
    for wait, wall in (
        (lambda: clock.wait(threading.Event(), 2.0), 1.0),
        (lambda: clock.wait_for(cond, lambda: False, 0.2), 0.1),
    ):
        wall_start = time.monotonic()
        with cond:
            assert not wait()
        assert 0.95 * wall <= time.monotonic() - wall_start < wall + 2.0


def _notify(cond, ready):
    with cond:
        ready.append(True)
        cond.notify_all()


def test_get_times_out_in_nominal_seconds():
    clock = Clock(time_scale=0.001)
    q = queue.Queue()
    q.put("item")
    assert clock.get(q, 5.0) == "item"
    start = clock.now()
    with pytest.raises(queue.Empty):
        clock.get(q, 5.0)
    assert 5.0 <= clock.now() - start < 500.0


def test_reset_rezeros_epoch():
    clock = Clock(time_scale=0.001)
    clock.sleep(10.0)
    assert clock.now() >= 10.0
    clock.reset()
    assert clock.now() < 5.0


def test_reset_changes_scale():
    clock = Clock(time_scale=0.001)
    clock.reset(time_scale=0.002)
    assert clock.time_scale == 0.002


def test_default_clock_identity():
    assert get_clock() is get_clock()
    returned = reset_clock(0.002)
    assert returned is get_clock()


def test_scaled_time_restores_previous_scale():
    reset_clock(0.002)
    with scaled_time(0.01) as clock:
        assert clock.time_scale == 0.01
    assert get_clock().time_scale == 0.002


def test_timer_measures_nominal_duration():
    clock = reset_clock(0.001)
    with Timer(clock) as timer:
        clock.sleep(3.0)
    assert timer.elapsed >= 3.0
    assert timer.elapsed < 30.0
