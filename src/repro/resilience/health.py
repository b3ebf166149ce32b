"""Endpoint health scoring and the three-state circuit breaker.

Gray failures — endpoints that are slow-but-alive — never trip the lease
machinery: the heartbeat thread keeps beating while the worker pool crawls,
so dispatch keeps flowing to a degraded endpoint until a human notices.
:class:`EndpointHealthTracker` closes that gap by folding three per-endpoint
signals into one multiplicative health score in ``[0, 1]``:

``score = latency_factor * error_factor * beat_factor``

* ``latency_factor`` — an EWMA of dispatch→result latency, compared against
  a baseline (explicit via :attr:`HealthPolicy.latency_baseline`, or the
  fleet-minimum EWMA otherwise): ``min(1, threshold * baseline / ewma)``.
  A 10x-slow endpoint against a 3x threshold scores ~0.3.
* ``error_factor`` — consecutive-failure count ``c`` maps to
  ``max(0, 1 - c / error_threshold)``; one success resets it.
* ``beat_factor`` — ``0.5 ** missed`` where ``missed`` is how many whole
  heartbeat periods have elapsed beyond the expected one (lease jitter).

A per-endpoint **circuit breaker** consumes the score:

* ``closed`` — dispatch flows; the score is evaluated on every consult and
  a score below :attr:`HealthPolicy.open_score` (once ``min_samples``
  latencies have been observed) trips the breaker **open**.
* ``open`` — the dequeue path sheds queued and in-flight work to healthy
  failover-group members; after :attr:`HealthPolicy.open_duration` nominal
  seconds the breaker moves to **half-open**.
* ``half-open`` — exactly :attr:`HealthPolicy.half_open_probes` probe tasks
  are admitted (deterministic counter, not a coin flip); a successful probe
  that scores healthy closes the breaker, a failed one re-opens it.

All mutating entry points take an explicit ``now`` (nominal seconds) so the
state machine is unit-testable without a running clock.  The tracker is a
leaf lock: it never calls back into cloud or client code while locked.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.observe import counter_inc

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
    "HealthPolicy",
    "EndpointHealthTracker",
]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


@dataclass(frozen=True)
class HealthPolicy:
    """Tuning for the health score and breaker state machine.

    ``latency_baseline`` is the latency (nominal seconds) considered
    healthy; when ``None`` the fleet-minimum EWMA stands in, so a lone
    endpoint is its own baseline and never trips on latency alone.
    """

    latency_alpha: float = 0.3
    latency_baseline: float | None = None
    latency_threshold: float = 3.0
    error_threshold: int = 3
    min_samples: int = 3
    open_score: float = 0.5
    open_duration: float = 30.0
    half_open_probes: int = 1
    heartbeat_tolerance: float = 1.5

    def __post_init__(self) -> None:
        if not 0.0 < self.latency_alpha <= 1.0:
            raise ValueError("latency_alpha must be in (0, 1]")
        if self.latency_threshold <= 0:
            raise ValueError("latency_threshold must be positive")
        if self.error_threshold < 1:
            raise ValueError("error_threshold must be >= 1")
        if not 0.0 <= self.open_score <= 1.0:
            raise ValueError("open_score must be in [0, 1]")
        if self.open_duration < 0:
            raise ValueError("open_duration must be non-negative")
        if self.half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")


@dataclass
class _EndpointHealth:
    """Mutable per-endpoint signal state (guarded by the tracker lock)."""

    ewma: float | None = None
    samples: int = 0
    consecutive_errors: int = 0
    last_beat: float | None = None
    beat_interval: float | None = None
    state: str = BREAKER_CLOSED
    opened_at: float = 0.0
    probes_used: int = 0
    opens: int = 0


class EndpointHealthTracker:
    """Per-endpoint health scores plus one circuit breaker per endpoint."""

    def __init__(self, policy: HealthPolicy | None = None) -> None:
        self.policy = policy or HealthPolicy()
        self._lock = threading.Lock()
        self._endpoints: dict[str, _EndpointHealth] = {}

    def _entry(self, endpoint_id: str) -> _EndpointHealth:
        entry = self._endpoints.get(endpoint_id)
        if entry is None:
            entry = self._endpoints[endpoint_id] = _EndpointHealth()
        return entry

    # -- signal intake ---------------------------------------------------------
    def record_result(
        self, endpoint_id: str, latency: float, success: bool, now: float
    ) -> None:
        """Fold one dispatch→result latency sample and its outcome in."""
        self.record_results(endpoint_id, [(latency, success, now)])

    def record_results(
        self, endpoint_id: str, samples: list[tuple[float, bool, float]]
    ) -> None:
        """Fold one report round's ``(latency, success, now)`` samples in,
        in member order, under one lock acquisition: EWMA, error streak and
        a half-open probe's close / re-open decision step exactly as they
        would one sample at a time."""
        policy = self.policy
        alpha = policy.latency_alpha
        moves: list[str] = []
        with self._lock:
            entry = self._entry(endpoint_id)
            for latency, success, now in samples:
                latency = max(0.0, latency)
                if entry.ewma is None:
                    entry.ewma = latency
                else:
                    entry.ewma += alpha * (latency - entry.ewma)
                entry.samples += 1
                if success:
                    entry.consecutive_errors = 0
                else:
                    entry.consecutive_errors += 1
                if entry.state != BREAKER_HALF_OPEN:
                    continue
                # A probe came back: close on a healthy outcome, re-open
                # otherwise.
                entry.probes_used = 0
                if success and self._score_locked(entry, now) >= policy.open_score:
                    entry.state = BREAKER_CLOSED
                    moves.append("resilience.breaker_closes")
                else:
                    entry.state = BREAKER_OPEN
                    entry.opened_at = now
                    moves.append("resilience.breaker_opens")
        for name in moves:
            counter_inc(name, endpoint=endpoint_id)

    def record_heartbeat(
        self, endpoint_id: str, now: float, interval: float
    ) -> None:
        """Note a heartbeat arrival; ``interval`` is the expected period."""
        with self._lock:
            entry = self._entry(endpoint_id)
            entry.last_beat = now
            entry.beat_interval = interval

    # -- scoring ---------------------------------------------------------------
    def _baseline_locked(self, entry: _EndpointHealth) -> float | None:
        if self.policy.latency_baseline is not None:
            return self.policy.latency_baseline
        candidates = [
            other.ewma
            for other in self._endpoints.values()
            if other.ewma is not None and other.samples >= self.policy.min_samples
        ]
        return min(candidates) if candidates else None

    def _score_locked(self, entry: _EndpointHealth, now: float) -> float:
        policy = self.policy
        latency_factor = 1.0
        if entry.ewma is not None and entry.samples >= policy.min_samples:
            baseline = self._baseline_locked(entry)
            if baseline is not None and entry.ewma > 0:
                latency_factor = min(
                    1.0, policy.latency_threshold * baseline / entry.ewma
                )
        error_factor = max(
            0.0, 1.0 - entry.consecutive_errors / policy.error_threshold
        )
        beat_factor = 1.0
        if entry.last_beat is not None and entry.beat_interval:
            overdue = (now - entry.last_beat) / entry.beat_interval
            missed = int(max(0.0, overdue - policy.heartbeat_tolerance))
            beat_factor = 0.5 ** missed
        return latency_factor * error_factor * beat_factor

    def score(self, endpoint_id: str, now: float) -> float:
        """The endpoint's current health in ``[0, 1]`` (1 = healthy)."""
        with self._lock:
            entry = self._endpoints.get(endpoint_id)
            if entry is None:
                return 1.0
            return self._score_locked(entry, now)

    # -- breaker state machine -------------------------------------------------
    def _evaluate_locked(self, endpoint_id: str, now: float) -> tuple[str, bool]:
        """Run passive transitions; returns ``(state, opened_now)``."""
        entry = self._entry(endpoint_id)
        opened = False
        if entry.state == BREAKER_CLOSED:
            if (
                entry.samples >= self.policy.min_samples
                and self._score_locked(entry, now) < self.policy.open_score
            ):
                entry.state = BREAKER_OPEN
                entry.opened_at = now
                entry.probes_used = 0
                entry.opens += 1
                opened = True
        elif entry.state == BREAKER_OPEN:
            if now - entry.opened_at >= self.policy.open_duration:
                entry.state = BREAKER_HALF_OPEN
                entry.probes_used = 0
        return entry.state, opened

    def evaluate(self, endpoint_id: str, now: float) -> str:
        """Advance passive transitions (trip / cool down) and return the
        breaker state.  Never consumes half-open probe budget."""
        with self._lock:
            state, opened = self._evaluate_locked(endpoint_id, now)
        if opened:
            counter_inc("resilience.breaker_opens", endpoint=endpoint_id)
        return state

    def admit(self, endpoint_id: str, now: float) -> bool:
        """Should a dispatch be handed to this endpoint right now?

        ``closed`` admits everything, ``open`` admits nothing, ``half-open``
        admits up to ``half_open_probes`` probes — a deterministic counter,
        so two identically-seeded runs admit identical probe sets."""
        probe = False
        with self._lock:
            state, opened = self._evaluate_locked(endpoint_id, now)
            entry = self._endpoints[endpoint_id]
            if state == BREAKER_HALF_OPEN:
                if entry.probes_used < self.policy.half_open_probes:
                    entry.probes_used += 1
                    probe = True
                admitted = probe
            else:
                admitted = state == BREAKER_CLOSED
        if opened:
            counter_inc("resilience.breaker_opens", endpoint=endpoint_id)
        if probe:
            counter_inc("resilience.probes", endpoint=endpoint_id)
        return admitted

    def state(self, endpoint_id: str) -> str:
        with self._lock:
            entry = self._endpoints.get(endpoint_id)
            return entry.state if entry is not None else BREAKER_CLOSED

    def snapshot(self) -> dict[str, dict]:
        """Per-endpoint signal dump for tables and debugging."""
        with self._lock:
            return {
                endpoint_id: {
                    "ewma": entry.ewma,
                    "samples": entry.samples,
                    "consecutive_errors": entry.consecutive_errors,
                    "state": entry.state,
                    "opens": entry.opens,
                }
                for endpoint_id, entry in sorted(self._endpoints.items())
            }
