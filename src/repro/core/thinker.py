"""Steering policies as cooperative agents (the Colmena "Thinker").

A Thinker is a class whose decorated methods run as concurrent agent
threads sharing state (§IV-D):

* ``@agent`` — a free-running policy loop;
* ``@result_processor(topic=...)`` — called once per completed Result on a
  topic;
* ``@task_submitter(task_type=..., n_slots=...)`` — called each time the
  requested number of resource slots becomes available, the idiom used to
  keep every CPU fed with a fresh simulation;
* ``@event_responder(event=...)`` — called each time a named event fires
  (e.g. "start retraining").

Agents interact through ordinary Python threading primitives plus the
:class:`ResourceCounter`, which tracks how many workers are allocated to
each task pool and is the lever steering policies use to rebalance
resources over time.
"""

from __future__ import annotations

import functools
import threading
from typing import Callable

from repro.core.queues import ColmenaQueues
from repro.exceptions import WorkflowError
from repro.net.clock import get_clock
from repro.net.context import SiteThread
from repro.net.topology import Site
from repro.observe import counter_inc

__all__ = [
    "agent",
    "result_processor",
    "task_submitter",
    "event_responder",
    "ResourceCounter",
    "BaseThinker",
]

_MARKER = "_colmena_agent_spec"


def agent(func: Callable | None = None, *, critical: bool = True) -> Callable:
    """Mark a method as a free-running agent thread.

    ``critical`` agents set the Thinker's ``done`` flag when they return or
    crash, ending the run (the usual behaviour for a main policy loop).
    """

    def mark(f: Callable) -> Callable:
        setattr(f, _MARKER, {"kind": "agent", "critical": critical})
        return f

    return mark(func) if func is not None else mark


def result_processor(*, topic: str = "default", critical: bool = False) -> Callable:
    """Run the method once per Result arriving on ``topic``."""

    def decorator(func: Callable) -> Callable:
        @functools.wraps(func)
        def loop(self: "BaseThinker") -> None:
            while not self.done.is_set():
                result = self.queues.get_result(topic, timeout=0.25)
                if result is not None:
                    counter_inc(
                        "thinker.results_processed", topic=topic, agent=func.__name__
                    )
                    func(self, result)

        setattr(loop, _MARKER, {"kind": "processor", "critical": critical})
        return loop

    return decorator


def task_submitter(
    *, task_type: str = "default", n_slots: int = 1, critical: bool = False
) -> Callable:
    """Run the method each time ``n_slots`` slots of ``task_type`` free up.

    The agent blocks on the Thinker's :class:`ResourceCounter`; pairing one
    submitter per worker slot is how the paper keeps dispatch latency out of
    the critical path (a new simulation is requested the moment a CPU frees).
    """

    def decorator(func: Callable) -> Callable:
        @functools.wraps(func)
        def loop(self: "BaseThinker") -> None:
            if self.resources is None:
                raise WorkflowError(
                    "task_submitter agents need a ResourceCounter on the Thinker"
                )
            while not self.done.is_set():
                if self.resources.acquire(task_type, n_slots, timeout=0.25):
                    if self.done.is_set():
                        self.resources.release(task_type, n_slots)
                        return
                    func(self)

        setattr(loop, _MARKER, {"kind": "submitter", "critical": critical})
        return loop

    return decorator


def event_responder(*, event: str, critical: bool = False) -> Callable:
    """Run the method each time the named Thinker event is set (the event is
    cleared after the responder finishes)."""

    def decorator(func: Callable) -> Callable:
        @functools.wraps(func)
        def loop(self: "BaseThinker") -> None:
            trigger = self.event(event)
            while not self.done.is_set():
                if get_clock().wait(trigger, 0.25):
                    if self.done.is_set():
                        return
                    func(self)
                    trigger.clear()

        setattr(loop, _MARKER, {"kind": "responder", "critical": critical})
        return loop

    return decorator


class ResourceCounter:
    """Slots of compute capacity, partitioned across task pools.

    ``allocate`` moves capacity between pools (steering decisions);
    ``acquire``/``release`` are the per-task check-out/check-in.
    """

    def __init__(self, total_slots: int, task_types: list[str] | None = None) -> None:
        if total_slots < 0:
            raise ValueError("total_slots must be non-negative")
        self._cond = threading.Condition()
        self._available: dict[str, int] = {t: 0 for t in (task_types or ["default"])}
        self._allocated: dict[str, int] = {t: 0 for t in self._available}
        self._unallocated = total_slots
        self.total_slots = total_slots

    def _check_type(self, task_type: str) -> None:
        if task_type not in self._available:
            raise WorkflowError(f"unknown task pool {task_type!r}")

    def allocate(self, task_type: str, n_slots: int) -> None:
        """Move ``n_slots`` from the unallocated pool to ``task_type``."""
        self._check_type(task_type)
        with self._cond:
            if n_slots > self._unallocated:
                raise WorkflowError(
                    f"cannot allocate {n_slots} slots; only "
                    f"{self._unallocated} unallocated"
                )
            self._unallocated -= n_slots
            self._allocated[task_type] += n_slots
            self._available[task_type] += n_slots
            self._cond.notify_all()

    def reallocate(self, src: str, dst: str, n_slots: int, timeout: float | None = None) -> bool:
        """Move idle capacity between pools (blocks until ``src`` has it)."""
        self._check_type(src)
        self._check_type(dst)
        if not self.acquire(src, n_slots, timeout=timeout):
            return False
        with self._cond:
            self._allocated[src] -= n_slots
            self._allocated[dst] += n_slots
            self._available[dst] += n_slots
            self._cond.notify_all()
        return True

    def acquire(self, task_type: str, n_slots: int, timeout: float | None = None) -> bool:
        """Check out ``n_slots`` of ``task_type``; nominal-second timeout."""
        self._check_type(task_type)
        with self._cond:
            if not get_clock().wait_for(
                self._cond, lambda: self._available[task_type] >= n_slots, timeout
            ):
                return False
            self._available[task_type] -= n_slots
            return True

    def release(self, task_type: str, n_slots: int = 1) -> None:
        self._check_type(task_type)
        with self._cond:
            self._available[task_type] += n_slots
            if self._available[task_type] > self._allocated[task_type]:
                raise WorkflowError(
                    f"pool {task_type!r} released more slots than allocated"
                )
            self._cond.notify_all()

    def available(self, task_type: str) -> int:
        self._check_type(task_type)
        with self._cond:
            return self._available[task_type]

    def allocated(self, task_type: str) -> int:
        self._check_type(task_type)
        with self._cond:
            return self._allocated[task_type]

    @property
    def unallocated(self) -> int:
        with self._cond:
            return self._unallocated


class BaseThinker:
    """Base class for steering policies.

    Subclass, decorate methods with the agent decorators, then ``start()``.
    The Thinker finishes when any critical agent returns (or ``done`` is set
    explicitly); ``join()`` waits for every agent thread.
    """

    def __init__(
        self,
        queues: ColmenaQueues,
        site: Site,
        resource_counter: ResourceCounter | None = None,
    ) -> None:
        self.queues = queues
        self.site = site
        self.resources = resource_counter
        self.done = threading.Event()
        self._events: dict[str, threading.Event] = {}
        self._events_lock = threading.Lock()
        self._threads: list[SiteThread] = []
        self._agent_errors: list[BaseException] = []

    # -- events ---------------------------------------------------------------
    def event(self, name: str) -> threading.Event:
        with self._events_lock:
            evt = self._events.get(name)
            if evt is None:
                evt = threading.Event()
                self._events[name] = evt
            return evt

    def set_event(self, name: str) -> None:
        self.event(name).set()

    # -- agent discovery & lifecycle ----------------------------------------------
    def _agents(self) -> list[tuple[Callable, dict]]:
        found = []
        for name in dir(type(self)):
            member = getattr(type(self), name, None)
            spec = getattr(member, _MARKER, None)
            if spec is not None:
                found.append((getattr(self, name), spec))
        if not found:
            raise WorkflowError(
                f"{type(self).__name__} defines no agents; decorate methods "
                "with @agent/@result_processor/@task_submitter/@event_responder"
            )
        return found

    def start(self) -> "BaseThinker":
        if self._threads:
            raise WorkflowError("thinker already started")
        for bound, spec in self._agents():
            thread = SiteThread(
                self.site,
                target=self._run_agent,
                args=(bound, spec),
                name=f"thinker-{bound.__name__}",
            )
            thread.start()
            self._threads.append(thread)
        return self

    def _run_agent(self, bound: Callable, spec: dict) -> None:
        try:
            bound()
        except Exception as exc:
            self._agent_errors.append(exc)
            self.done.set()
        else:
            if spec.get("critical"):
                self.done.set()

    def join(self, timeout: float | None = None) -> None:
        """Wait for all agents (``timeout`` is wall seconds, stdlib-style)."""
        for thread in self._threads:
            thread.join(timeout)

    def run(self) -> None:
        """Start, then block until every agent finishes."""
        self.start()
        self.join()

    @property
    def agent_errors(self) -> list[BaseException]:
        return list(self._agent_errors)
