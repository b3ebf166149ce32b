"""Virtual wall clock with uniform time scaling.

The paper's experiments span hours of wall time dominated by injected
latencies (cloud round trips, Globus transfers, 60 s simulations).  To
reproduce latency *shapes* in seconds of real time, every sleep and every
timed wait in the simulator goes through a :class:`Clock` whose
``time_scale`` maps nominal (paper-scale) seconds to wall seconds:

    wall_seconds = nominal_seconds * time_scale

This module is the only place that mapping is made.  Code elsewhere hands
the clock a nominal budget -- :meth:`Clock.sleep`, :meth:`Clock.wait` (one
timed wait on an ``Event`` or held ``Condition``), :meth:`Clock.wait_for`
(the one "until the predicate holds or the deadline passes" loop) and
:meth:`Clock.get` (``Queue.get``) -- so a different time model is a
different ``Clock`` behind the same four methods.

All timestamps read back through :meth:`Clock.now` are reported in nominal
seconds, so measured medians/percentiles remain directly comparable to the
paper regardless of the scale used to run the experiment.  Uniform scaling
preserves orderings, ratios, and queueing interactions (everything, compute
and communication alike, shrinks by the same factor).

A module-level default clock is used by the whole library; benchmarks call
:func:`reset_clock` with a small scale (e.g. ``0.002``) before a run.
"""

from __future__ import annotations

import queue
import threading
import time as _time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = ["Clock", "get_clock", "reset_clock", "scaled_time", "Timer"]

# Sleeps shorter than this (in wall seconds) are skipped entirely: the OS
# cannot schedule them accurately and they only add noise at small scales.
_MIN_WALL_SLEEP = 50e-6


class Clock:
    """A scalable clock.

    Parameters
    ----------
    time_scale:
        Wall seconds per nominal second.  ``1.0`` runs in real time;
        ``0.01`` runs a nominal minute in 600 ms of wall time.
    """

    def __init__(self, time_scale: float = 1.0) -> None:
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive, got {time_scale}")
        self._scale = float(time_scale)
        self._epoch = _time.monotonic()
        self._lock = threading.Lock()

    @property
    def time_scale(self) -> float:
        """Wall seconds per nominal second."""
        return self._scale

    def now(self) -> float:
        """Nominal seconds elapsed since this clock was created/reset."""
        return (_time.monotonic() - self._epoch) / self._scale

    def sleep(self, nominal_seconds: float) -> None:
        """Block the calling thread for ``nominal_seconds`` of virtual time."""
        if nominal_seconds <= 0:
            return
        wall = nominal_seconds * self._scale
        if wall >= _MIN_WALL_SLEEP:
            _time.sleep(wall)

    def wait(
        self, waitable: threading.Event | threading.Condition, timeout: float | None
    ) -> bool:
        """One wait of up to ``timeout`` nominal seconds (``None``: forever)
        on an ``Event``, or on a ``Condition`` the caller holds.  Returns
        what the primitive's ``wait`` does: the event's flag, or False when
        the condition timed out."""
        return waitable.wait(self._wall_timeout(timeout))

    def wait_for(
        self,
        cond: threading.Condition,
        predicate: Callable[[], object],
        timeout: float | None,
    ) -> bool:
        """Wait on ``cond`` (which the caller holds) until ``predicate()``
        is true or ``timeout`` nominal seconds (``None``: forever) pass;
        returns whether it became true.  The deadline is fixed on entry:
        a wakeup that leaves the predicate false re-waits only what is
        left of the budget.  A spent budget only checks the predicate:
        the stdlib would still wait once, releasing ``cond`` mid-call."""
        if timeout is not None and timeout <= 0:
            return bool(predicate())
        return bool(cond.wait_for(predicate, self._wall_timeout(timeout)))

    def get(self, q: queue.Queue, timeout: float | None) -> Any:
        """``q.get()``, blocking up to ``timeout`` nominal seconds (``None``:
        forever); raises ``queue.Empty`` when it times out."""
        return q.get(timeout=self._wall_timeout(timeout))

    def _wall_timeout(self, nominal_seconds: float | None) -> float | None:
        if nominal_seconds is None:
            return None
        return max(nominal_seconds * self._scale, 0.0)

    def reset(self, time_scale: float | None = None) -> None:
        """Re-zero the epoch and optionally change the scale.

        Changing scale mid-measurement would corrupt ``now()`` readings, so
        callers reset between experiments, never during one.
        """
        with self._lock:
            if time_scale is not None:
                if time_scale <= 0:
                    raise ValueError("time_scale must be positive")
                self._scale = float(time_scale)
            self._epoch = _time.monotonic()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Clock(time_scale={self._scale}, now={self.now():.3f})"


_default_clock = Clock()


def get_clock() -> Clock:
    """Return the process-wide default clock."""
    return _default_clock


def reset_clock(time_scale: float | None = None) -> Clock:
    """Re-zero the default clock (optionally changing its scale) and return it."""
    _default_clock.reset(time_scale)
    return _default_clock


@contextmanager
def scaled_time(time_scale: float) -> Iterator[Clock]:
    """Context manager that runs the default clock at ``time_scale`` and
    restores the previous scale (re-zeroing the epoch both ways)."""
    previous = _default_clock.time_scale
    _default_clock.reset(time_scale)
    try:
        yield _default_clock
    finally:
        _default_clock.reset(previous)


class Timer:
    """Measure a nominal-time duration against a clock.

    >>> with Timer() as t:
    ...     get_clock().sleep(0.01)
    >>> t.elapsed >= 0.01
    True
    """

    def __init__(self, clock: Clock | None = None) -> None:
        self._clock = clock or get_clock()
        self.start: float | None = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "Timer":
        self.start = self._clock.now()
        return self

    def __exit__(self, *exc) -> None:
        assert self.start is not None
        self.elapsed = self._clock.now() - self.start
