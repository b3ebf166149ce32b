"""Virtual-clock-aware distributed tracing: spans, a tracer, propagation.

The :class:`~repro.core.result.Result` ledger sees a task only at its
endpoints; everything in between — queue hops, the FaaS cloud round trip,
the push of a task to its endpoint, proxy resolution on a worker, a Globus
transfer — is invisible to it.  A :class:`Span` names one such interval:
it carries a ``trace_id`` (shared by every span of one task), its own
``span_id``, an optional ``parent_id``, nominal start/end timestamps from
:mod:`repro.net.clock`, the site the span was opened at, and free-form
tags.

Two recording styles cover every instrumentation point in the stack:

* **live spans** — ``with trace_span("worker.execute", parent=ctx):`` for
  intervals one thread observes end to end.  Live spans nest: a span opened
  while another is active on the same thread becomes its child, which is
  how a ``proxy.resolve`` deep inside a worker lands under
  ``worker.resolve_proxies`` without any plumbing.
* **reconstructed spans** — :func:`record_span` with explicit start/end,
  for hops whose two ends are stamped by different components (the
  timestamps already live on the Result ledger when the receiving side
  runs).

Trace context travels between components as a plain ``(trace_id,
span_id)`` tuple — small, pickleable, and cheap to thread through task
payloads and cloud dispatch records.

The whole API is **zero-overhead when disabled**: no tracer is installed
by default, ``trace_span`` returns a shared no-op context manager, and
``record_span`` returns ``None`` after one global read.
"""

from __future__ import annotations

import itertools
import threading
import uuid
from typing import Any

from repro.net.clock import Clock, get_clock
from repro.net.context import current_site

__all__ = [
    "Span",
    "Tracer",
    "TraceContext",
    "set_tracer",
    "get_tracer",
    "tracing_enabled",
    "trace_span",
    "record_span",
    "new_task_trace",
    "current_span",
    "current_context",
]

#: ``(trace_id, span_id)`` — the wire form of span parentage.
TraceContext = tuple[str, str]

_span_counter = itertools.count()
_tls = threading.local()


def _new_span_id() -> str:
    return f"s{next(_span_counter):06d}-{uuid.uuid4().hex[:6]}"


class Span:
    """One named, timed interval in a trace.

    A span is also its own context manager: entering pushes it onto the
    calling thread's span stack (so nested spans pick it up as parent) and
    exiting stamps ``end`` and hands the finished record to the tracer.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "end",
        "site",
        "tags",
        "_tracer",
    )

    def __init__(
        self,
        name: str,
        *,
        trace_id: str,
        span_id: str | None = None,
        parent_id: str | None = None,
        start: float | None = None,
        end: float | None = None,
        site: str | None = None,
        tags: dict[str, Any] | None = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id or _new_span_id()
        self.parent_id = parent_id
        self.start = start
        self.end = end
        self.site = site
        self.tags = tags or {}
        self._tracer = tracer

    # -- context --------------------------------------------------------------
    @property
    def context(self) -> TraceContext:
        """The ``(trace_id, span_id)`` tuple children parent to."""
        return (self.trace_id, self.span_id)

    @property
    def duration(self) -> float | None:
        if self.start is None or self.end is None:
            return None
        return self.end - self.start

    def set_tag(self, key: str, value: Any) -> "Span":
        self.tags[key] = value
        return self

    # -- live recording -------------------------------------------------------
    def __enter__(self) -> "Span":
        if self.start is None:
            clock = self._tracer.clock if self._tracer else get_clock()
            self.start = clock.now()
        stack = getattr(_tls, "stack", None)
        if stack is None:
            stack = _tls.stack = []
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = getattr(_tls, "stack", None)
        if stack and stack[-1] is self:
            stack.pop()
        if self.end is None:
            clock = self._tracer.clock if self._tracer else get_clock()
            self.end = clock.now()
        if exc_type is not None:
            self.tags.setdefault("error", repr(exc))
        if self._tracer is not None:
            self._tracer._store(self)

    # -- serialization ----------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "site": self.site,
            "tags": self.tags,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        return cls(
            data["name"],
            trace_id=data["trace_id"],
            span_id=data.get("span_id"),
            parent_id=data.get("parent_id"),
            start=data.get("start"),
            end=data.get("end"),
            site=data.get("site"),
            tags=data.get("tags") or {},
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dur = f"{self.duration:.4f}s" if self.duration is not None else "open"
        return f"Span({self.name!r}, trace={self.trace_id}, {dur})"


class _NoopSpan:
    """Shared do-nothing span: what instrumentation gets when tracing is off."""

    __slots__ = ()

    context = None
    trace_id = None
    span_id = None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def set_tag(self, key: str, value: Any) -> "_NoopSpan":
        return self


_NOOP_SPAN = _NoopSpan()


class Tracer:
    """Collects finished spans for one recorded campaign.

    Thread-safe and append-only; exporters read :meth:`spans` after the run.
    """

    def __init__(self, clock: Clock | None = None) -> None:
        self.clock = clock or get_clock()
        self._spans: list[Span] = []
        self._lock = threading.Lock()

    def _store(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    # -- recording ------------------------------------------------------------
    def span(
        self,
        name: str,
        *,
        parent: "TraceContext | Span | None" = None,
        **tags: Any,
    ) -> Span:
        """Open a live span (use as a context manager).

        ``parent`` may be a ``(trace_id, span_id)`` tuple, another
        :class:`Span`, or ``None`` — in which case the calling thread's
        innermost active span is the parent, or a fresh trace is started.
        """
        trace_id, parent_id = _resolve_parent(parent)
        site = current_site()
        return Span(
            name,
            trace_id=trace_id,
            parent_id=parent_id,
            site=site.name if site is not None else None,
            tags=tags,
            tracer=self,
        )

    def record(
        self,
        name: str,
        *,
        start: float,
        end: float,
        parent: "TraceContext | Span | None" = None,
        trace_id: str | None = None,
        span_id: str | None = None,
        **tags: Any,
    ) -> Span:
        """Record a finished span from explicit timestamps (ledger hops)."""
        if trace_id is None:
            trace_id, parent_id = _resolve_parent(parent)
        else:
            parent_id = None
            if parent is not None:
                parent_id = parent[1] if isinstance(parent, tuple) else parent.span_id
        site = current_site()
        span = Span(
            name,
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent_id,
            start=start,
            end=end,
            site=site.name if site is not None else None,
            tags=tags,
            tracer=self,
        )
        self._store(span)
        return span

    # -- access ------------------------------------------------------------------
    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


def _resolve_parent(
    parent: "TraceContext | Span | None",
) -> tuple[str, str | None]:
    """Turn a parent hint into (trace_id, parent_id)."""
    if parent is None:
        active = current_span()
        if active is not None:
            return active.trace_id, active.span_id
        return f"tr-{uuid.uuid4().hex[:10]}", None
    if isinstance(parent, Span):
        return parent.trace_id, parent.span_id
    return parent[0], parent[1]


# -- module-level API (the zero-overhead surface) ------------------------------

_tracer: Tracer | None = None
_tracer_lock = threading.Lock()


def set_tracer(tracer: Tracer | None) -> None:
    """Install (or remove, with ``None``) the process-wide tracer."""
    global _tracer
    with _tracer_lock:
        _tracer = tracer


def get_tracer() -> Tracer | None:
    return _tracer


def tracing_enabled() -> bool:
    return _tracer is not None


def trace_span(
    name: str, *, parent: "TraceContext | Span | None" = None, **tags: Any
):
    """Open a live span on the global tracer; no-op singleton when disabled."""
    tracer = _tracer
    if tracer is None:
        return _NOOP_SPAN
    return tracer.span(name, parent=parent, **tags)


def record_span(
    name: str,
    *,
    start: float | None,
    end: float | None,
    parent: "TraceContext | Span | None" = None,
    trace_id: str | None = None,
    span_id: str | None = None,
    **tags: Any,
) -> Span | None:
    """Record a reconstructed span on the global tracer (``None`` when
    disabled or when either timestamp is missing — failure paths may not
    have stamped both ends)."""
    tracer = _tracer
    if tracer is None or start is None or end is None:
        return None
    return tracer.record(
        name,
        start=start,
        end=end,
        parent=parent,
        trace_id=trace_id,
        span_id=span_id,
        **tags,
    )


def new_task_trace(task_id: str) -> TraceContext | None:
    """Allocate the trace context for one task: the trace id is the task id
    (ledger↔trace correlation for free) and the span id is pre-allocated for
    the root ``task`` span, which is recorded when the result returns."""
    if _tracer is None:
        return None
    return (task_id, _new_span_id())


def current_span() -> Span | None:
    """The calling thread's innermost active span, if any."""
    stack = getattr(_tls, "stack", None)
    if stack:
        return stack[-1]
    return None


def current_context() -> TraceContext | None:
    """The innermost active span's context, if any (for cross-thread
    hand-offs that should join the current trace)."""
    span = current_span()
    return span.context if span is not None else None
