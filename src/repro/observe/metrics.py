"""Process-wide metrics: counters, gauges, histograms with labels.

Service-side telemetry the Result ledger cannot express: queue depths at
the FaaS cloud, the endpoint's dispatch round sizes, result-store tier
hits, proxy cache hit rates, transfer concurrency-limit stalls.  Components
update metrics through the module-level helpers (:func:`counter_inc`,
:func:`gauge_set`, :func:`observe`), which are one-global-read no-ops when
no :class:`MetricsRegistry` is installed — the same zero-overhead contract
as the tracer.

Instruments are keyed by ``(name, labels)``, Prometheus-style, so one
metric name fans out per endpoint / topic / store / user without the call
sites managing registries themselves.
"""

from __future__ import annotations

import statistics
import threading
from typing import Any

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "set_metrics",
    "get_metrics",
    "metrics_enabled",
    "counter_inc",
    "gauge_set",
    "gauge_add",
    "observe",
]

LabelKey = tuple[tuple[str, Any], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted(labels.items()))


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError("counters only increase; use a Gauge")
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can move both ways (queue depth, active transfers)."""

    __slots__ = ("_value", "_max", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._max = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value
            self._max = max(self._max, value)

    def add(self, n: float = 1.0) -> None:
        with self._lock:
            self._value += n
            self._max = max(self._max, self._value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    @property
    def high_water(self) -> float:
        """The largest value ever set — e.g. peak queue depth."""
        with self._lock:
            return self._max


class Histogram:
    """Distribution of observed values (durations, batch sizes)."""

    __slots__ = ("_values", "_lock")

    def __init__(self) -> None:
        self._values: list[float] = []
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._values.append(float(value))

    def values(self) -> list[float]:
        with self._lock:
            return list(self._values)

    @property
    def count(self) -> int:
        with self._lock:
            return len(self._values)

    @property
    def sum(self) -> float:
        with self._lock:
            return sum(self._values)

    def summary(self) -> dict[str, float]:
        with self._lock:
            data = sorted(self._values)
        if not data:
            return {"count": 0, "mean": 0.0, "median": 0.0, "p95": 0.0, "max": 0.0}
        idx95 = min(len(data) - 1, int(round(0.95 * (len(data) - 1))))
        return {
            "count": len(data),
            "mean": statistics.fmean(data),
            "median": statistics.median(data),
            "p95": data[idx95],
            "max": data[-1],
        }


class MetricsRegistry:
    """Get-or-create instruments keyed by (name, labels)."""

    def __init__(self) -> None:
        self._counters: dict[tuple[str, LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, LabelKey], Histogram] = {}
        self._lock = threading.Lock()

    def _get(self, table: dict, cls, name: str, labels: dict[str, Any]):
        key = (name, _label_key(labels))
        with self._lock:
            instrument = table.get(key)
            if instrument is None:
                instrument = table[key] = cls()
            return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(self._counters, Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(self._gauges, Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get(self._histograms, Histogram, name, labels)

    # -- read side --------------------------------------------------------------
    def _items(self, table: dict) -> list[tuple[str, dict[str, Any], Any]]:
        with self._lock:
            snapshot = list(table.items())
        return [(name, dict(labels), inst) for (name, labels), inst in snapshot]

    def counters(self) -> list[tuple[str, dict[str, Any], Counter]]:
        return self._items(self._counters)

    def gauges(self) -> list[tuple[str, dict[str, Any], Gauge]]:
        return self._items(self._gauges)

    def histograms(self) -> list[tuple[str, dict[str, Any], Histogram]]:
        return self._items(self._histograms)

    def counter_total(self, name: str) -> float:
        """Sum of a counter across all label sets (0.0 if never touched)."""
        return sum(c.value for n, _, c in self.counters() if n == name)

    def snapshot(self) -> dict[str, Any]:
        """A plain-data dump of every instrument (JSON-friendly)."""
        out: dict[str, Any] = {"counters": [], "gauges": [], "histograms": []}
        for name, labels, counter in self.counters():
            out["counters"].append(
                {"name": name, "labels": labels, "value": counter.value}
            )
        for name, labels, gauge in self.gauges():
            out["gauges"].append(
                {
                    "name": name,
                    "labels": labels,
                    "value": gauge.value,
                    "high_water": gauge.high_water,
                }
            )
        for name, labels, hist in self.histograms():
            out["histograms"].append(
                {"name": name, "labels": labels, **hist.summary()}
            )
        return out

    def render(self) -> str:
        """Console summary, grouped by instrument kind."""

        def fmt_labels(labels: dict[str, Any]) -> str:
            if not labels:
                return ""
            inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            return "{" + inner + "}"

        lines = ["== metrics =="]
        for name, labels, counter in sorted(
            self.counters(), key=lambda item: (item[0], _label_key(item[1]))
        ):
            lines.append(f"counter  {name}{fmt_labels(labels)} = {counter.value:g}")
        for name, labels, gauge in sorted(
            self.gauges(), key=lambda item: (item[0], _label_key(item[1]))
        ):
            lines.append(
                f"gauge    {name}{fmt_labels(labels)} = {gauge.value:g} "
                f"(peak {gauge.high_water:g})"
            )
        for name, labels, hist in sorted(
            self.histograms(), key=lambda item: (item[0], _label_key(item[1]))
        ):
            s = hist.summary()
            lines.append(
                f"hist     {name}{fmt_labels(labels)} n={s['count']} "
                f"median={s['median']:.4g} p95={s['p95']:.4g} max={s['max']:.4g}"
            )
        return "\n".join(lines)


# -- module-level API (the zero-overhead surface) ------------------------------

_registry: MetricsRegistry | None = None
_registry_lock = threading.Lock()


def set_metrics(registry: MetricsRegistry | None) -> None:
    """Install (or remove, with ``None``) the process-wide registry."""
    global _registry
    with _registry_lock:
        _registry = registry


def get_metrics() -> MetricsRegistry | None:
    return _registry


def metrics_enabled() -> bool:
    return _registry is not None


def counter_inc(name: str, n: float = 1.0, **labels: Any) -> None:
    registry = _registry
    if registry is not None:
        registry.counter(name, **labels).inc(n)


def gauge_set(name: str, value: float, **labels: Any) -> None:
    registry = _registry
    if registry is not None:
        registry.gauge(name, **labels).set(value)


def gauge_add(name: str, n: float = 1.0, **labels: Any) -> None:
    registry = _registry
    if registry is not None:
        registry.gauge(name, **labels).add(n)


def observe(name: str, value: float, **labels: Any) -> None:
    registry = _registry
    if registry is not None:
        registry.histogram(name, **labels).observe(value)
