"""Harness-side instrumentation: boundary spans, charge attribution, and a
per-thread call profiler.

The system is measured from outside.  :class:`BoundaryRecorder` replaces
chosen methods (the boundary table lives in ``adapters``) with wrappers that
count the call, remember which layer the thread is now inside, and record a
span — name, start, end, thread, enclosing span — for layers that emit none
of their own.  It also wraps the clock's ``sleep``, so every modelled charge
is credited to the innermost boundary active on the charging thread.
:class:`LayerProfiler` buckets every Python call and its CPU self time by the
source file it runs in.  Both keep their data in per-thread structures and
merge on read, so recording takes no lock on the hot path.

Nothing here imports ``repro``.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

__all__ = ["UNATTRIBUTED", "BoundaryRecorder", "LayerProfiler", "self_times"]

#: Layer name for a charge made while no boundary was active on the thread.
UNATTRIBUTED = "unattributed"


class _ThreadLog:
    """One thread's boundary stack and tallies."""

    __slots__ = ("name", "index", "stack", "calls", "names", "charged", "spans", "seq")

    def __init__(self, name: str, index: int) -> None:
        self.name = name
        #: Thread names repeat (every client calls its notifier the same),
        #: so span ids are built from this registration index instead.
        self.index = index
        #: (layer, span id or None for a root boundary), innermost last.
        self.stack: list[tuple[str, str | None]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.names: dict[str, int] = defaultdict(int)
        self.charged: dict[str, float] = defaultdict(float)
        self.spans: list[dict] = []
        self.seq = 0


class BoundaryRecorder:
    """Wraps layer-boundary methods and the clock's ``sleep``.

    ``now`` reads the nominal clock; ``trace_parent`` returns the id of the
    system's own active span on the calling thread (or ``None``), so harness
    spans can be hung under the trace the system already records.
    """

    def __init__(self, now, trace_parent=lambda: None) -> None:
        self._now = now
        self._trace_parent = trace_parent
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            with self._lock:
                log = _ThreadLog(threading.current_thread().name, len(self._logs))
                self._logs.append(log)
            self._local.log = log
        return log

    # -- installation --------------------------------------------------------
    def wrap(self, owner, attr: str, layer: str, name: str, kind: str = "call") -> None:
        """Replace ``owner.attr``.  ``kind`` is ``call`` (count + span),
        ``root`` (a thread's main loop: default layer only) or ``hold``
        (``call`` that also charges its first argument, a requested delay)."""
        original = getattr(owner, attr)
        recorder = self

        if kind == "root":

            @functools.wraps(original)
            def boundary(*args, **kwargs):
                log = recorder._log()
                log.stack.append((layer, None))
                try:
                    return original(*args, **kwargs)
                finally:
                    log.stack.pop()

        else:

            @functools.wraps(original)
            def boundary(*args, **kwargs):
                log = recorder._log()
                log.calls[layer] += 1
                log.names[name] += 1
                if kind == "hold":
                    delay = args[1] if len(args) > 1 else kwargs.get("delay", 0.0)
                    log.charged[layer] += max(0.0, float(delay))
                log.seq += 1
                span_id = f"t{log.index}.{log.seq}"
                parent = log.stack[-1][1] if log.stack else None
                trace_parent = recorder._trace_parent()
                log.stack.append((layer, span_id))
                start = recorder._now()
                try:
                    return original(*args, **kwargs)
                finally:
                    log.stack.pop()
                    log.spans.append(
                        {
                            "id": span_id,
                            "name": name,
                            "layer": layer,
                            "start": start,
                            "end": recorder._now(),
                            "thread": log.name,
                            "parent": parent,
                            "trace_parent": trace_parent,
                        }
                    )

        setattr(owner, attr, boundary)
        self._patched.append((owner, attr, original))

    def wrap_sleep(self, clock_class, caller_layer=lambda filename: None) -> None:
        """Credit each ``sleep(nominal_seconds)`` to the innermost active
        boundary — or to ``caller_layer(file of the calling frame)`` when
        that returns a layer (user compute sleeping inside a task body)."""
        original = clock_class.sleep
        recorder = self

        @functools.wraps(original)
        def sleep(clock, nominal_seconds):
            if nominal_seconds > 0:
                log = recorder._log()
                layer = caller_layer(sys._getframe(1).f_code.co_filename)
                if layer is None:
                    layer = log.stack[-1][0] if log.stack else UNATTRIBUTED
                log.charged[layer] += nominal_seconds
            return original(clock, nominal_seconds)

        clock_class.sleep = sleep
        self._patched.append((clock_class, "sleep", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reading ---------------------------------------------------------------
    def totals(self) -> dict:
        """``{"calls": {layer: n}, "names": {boundary: n}, "charged": {layer:
        nominal s}}`` summed over threads; subtract two readings to get one
        phase."""
        calls: dict[str, int] = defaultdict(int)
        names: dict[str, int] = defaultdict(int)
        charged: dict[str, float] = defaultdict(float)
        with self._lock:
            logs = list(self._logs)
        for log in logs:
            for layer, n in list(log.calls.items()):
                calls[layer] += n
            for name, n in list(log.names.items()):
                names[name] += n
            for layer, seconds in list(log.charged.items()):
                charged[layer] += seconds
        return {"calls": dict(calls), "names": dict(names), "charged": dict(charged)}

    def spans(self) -> list[dict]:
        with self._lock:
            logs = list(self._logs)
        return [span for log in logs for span in list(log.spans)]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id → self time: the span's duration minus the part of it covered
    by its children (spans naming it as ``parent``; the recorder only links
    spans of one thread, so coverage is same-thread by construction).
    Overlapping children are counted once and clipped to the parent."""
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start, end = max(start, cursor), min(end, span["end"])
            if end > start:
                covered += end - start
                cursor = end
        result[span["id"]] = (span["end"] - span["start"]) - covered
    return result


class _ThreadProfile:
    __slots__ = ("stack", "last", "calls", "self_s")

    def __init__(self) -> None:
        self.stack: list[str | None] = []
        self.last = time.thread_time()
        self.calls: dict[str | None, int] = defaultdict(int)
        self.self_s: dict[str | None, float] = defaultdict(float)


class LayerProfiler:
    """Counts Python calls and CPU self time per layer on every thread
    started after :meth:`install`.

    ``layer_of`` maps a source file name to a layer (``None`` = not the
    system's code).  Time is thread CPU time, so sleeping, waiting on a
    condition and waiting for the interpreter lock cost a layer nothing;
    time spent in C functions is charged to the Python frame that called
    them.
    """

    def __init__(self, layer_of) -> None:
        self._layer_of = layer_of
        self._code_layer: dict[object, str | None] = {}
        self._local = threading.local()
        self._profiles: list[_ThreadProfile] = []
        self._lock = threading.Lock()

    def install(self) -> None:
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)

    def uninstall(self) -> None:
        sys.setprofile(None)
        threading.setprofile(None)

    def _hook(self, frame, event, arg) -> None:
        if event != "call" and event != "return":
            return
        profile = getattr(self._local, "profile", None)
        if profile is None:
            profile = self._local.profile = _ThreadProfile()
            with self._lock:
                self._profiles.append(profile)
        stack = profile.stack
        if stack:
            profile.self_s[stack[-1]] += time.thread_time() - profile.last
        if event == "call":
            code = frame.f_code
            try:
                layer = self._code_layer[code]
            except KeyError:
                layer = self._code_layer[code] = self._layer_of(code.co_filename)
            profile.calls[layer] += 1
            stack.append(layer)
        elif stack:
            stack.pop()
        profile.last = time.thread_time()

    def totals(self) -> dict:
        """``{"calls": {layer: n}, "self_s": {layer: CPU s}}`` over threads,
        system layers only."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        with self._lock:
            profiles = list(self._profiles)
        for profile in profiles:
            for layer, n in list(profile.calls.items()):
                if layer is not None:
                    calls[layer] += n
            for layer, seconds in list(profile.self_s.items()):
                if layer is not None:
                    self_s[layer] += seconds
        return {"calls": dict(calls), "self_s": dict(self_s)}
