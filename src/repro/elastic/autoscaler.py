"""The autoscaler control loop: demand signals in, grow/drain decisions out.

One :class:`Autoscaler` watches one endpoint and drives its
:class:`~repro.elastic.pool.ElasticWorkerPool`.  Demand is read from the
canonical signals the rest of the stack already exports — the endpoint's
:meth:`~repro.faas.endpoint.FaasEndpoint.utilization` snapshot (local queue
depth, active/idle workers) plus the cloud-side per-tenant backlog
(:meth:`FaasCloud.tenant_backlog`, summed across shards by the router) —
so the autoscaler never recomputes state the endpoint or control plane
already knows.

The loop is a periodic timer on the process reactor.  Scale-to-zero is
event-driven: the endpoint's own push receipt calls the autoscaler
(``FaasEndpoint.on_push``), so an idle endpoint costs nothing and no push
is delivered twice.  The first push received after going dormant
re-provisions the pool and arms time-to-first-task tracking
(``autoscale.time_to_first_task_s``).

Every decision is recorded (``autoscale.decisions{action=}``) and kept on
``Autoscaler.decisions`` for the CLI and benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.batch.reactor import get_reactor
from repro.net.clock import Clock, get_clock
from repro.observe import counter_inc, gauge_set
from repro.elastic.pool import ElasticWorkerPool

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faas.endpoint import FaasEndpoint

__all__ = ["AutoscalePolicy", "AutoscaleDecision", "Autoscaler", "render_pool_table"]


@dataclass(frozen=True)
class AutoscalePolicy:
    """Knobs for one endpoint's scaling loop (nominal seconds throughout)."""

    min_workers: int = 0
    max_workers: int = 8
    #: Queued+active tasks one worker is expected to absorb; demand above
    #: ``current * target_tasks_per_worker`` triggers a grow.
    target_tasks_per_worker: float = 2.0
    scale_up_step: int = 2
    scale_down_step: int = 1
    #: How long the pool must sit idle (no demand, no active work) before a
    #: shrink step, and before releasing everything (scale-to-zero).
    idle_grace: float = 10.0
    zero_grace: float = 30.0
    scale_to_zero: bool = True
    #: Loop period and the minimum spacing between grow decisions.
    interval: float = 2.0
    cooldown: float = 4.0
    #: Workers provisioned on the first push after going dormant.
    wake_workers: int = 1

    def __post_init__(self) -> None:
        if self.min_workers < 0 or self.max_workers < max(1, self.min_workers):
            raise ValueError("need 0 <= min_workers <= max_workers, max >= 1")
        if self.target_tasks_per_worker <= 0:
            raise ValueError("target_tasks_per_worker must be positive")
        if self.interval <= 0 or self.idle_grace < 0 or self.zero_grace < 0:
            raise ValueError("intervals must be positive, graces non-negative")


@dataclass
class AutoscaleDecision:
    at: float
    action: str  # "grow" | "shrink" | "to_zero" | "wake"
    reason: str
    workers: int  # pool size after the decision


class Autoscaler:
    """Control loop scaling one endpoint's elastic pool on demand signals."""

    def __init__(
        self,
        endpoint: "FaasEndpoint",
        *,
        policy: AutoscalePolicy | None = None,
        clock: Clock | None = None,
    ) -> None:
        pool = endpoint.pool
        if not isinstance(pool, ElasticWorkerPool):
            raise TypeError(
                f"autoscaler needs an ElasticWorkerPool, got {type(pool).__name__}"
            )
        self.endpoint = endpoint
        self.pool = pool
        self.policy = policy or AutoscalePolicy()
        self._clock = clock or get_clock()
        self._running = False
        self._timer = None
        self.decisions: list[AutoscaleDecision] = []
        self._last_grow_at: float | None = None
        self._idle_since: float | None = None
        self._dormant = False

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "Autoscaler":
        if self._running:
            return self
        self._running = True
        self.endpoint.on_push = self._on_push
        self._timer = get_reactor().call_every(self.policy.interval, self._tick)
        return self

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self.endpoint.on_push = None

    @property
    def last_decision(self) -> AutoscaleDecision | None:
        return self.decisions[-1] if self.decisions else None

    @property
    def wake_latencies(self) -> list[float]:
        return self.pool.wake_latencies

    # -- the loop (reactor callbacks) ----------------------------------------
    def _tick(self) -> bool:
        """One pass every ``policy.interval``; ``False`` disarms it."""
        if not self._running:
            return False
        self._evaluate()
        return True

    def _on_push(self) -> None:
        """The endpoint received a push (reactor): wake the pool if it is
        dormant."""
        if self._running and self._dormant:
            self._wake()

    def _demand(self) -> int:
        """Outstanding work visible anywhere: local pool queue + active
        closures + the cloud-side backlog across every tenant and shard."""
        util = self.endpoint.utilization()
        backlog = self.endpoint.cloud.queue_depth(self.endpoint.endpoint_id)
        return util.queue_depth + util.active + backlog

    def _evaluate(self) -> None:
        policy = self.policy
        now = self._clock.now()
        demand = self._demand()
        current = self.pool.size
        gauge_set("autoscale.demand", demand, endpoint=self.endpoint.name)
        if demand > 0:
            self._idle_since = None
        elif self._idle_since is None:
            self._idle_since = now

        desired = math.ceil(demand / policy.target_tasks_per_worker)
        desired = max(policy.min_workers, min(policy.max_workers, desired))

        if desired > current:
            if (
                self._last_grow_at is not None
                and now - self._last_grow_at < policy.cooldown
            ):
                return
            step = min(policy.scale_up_step, desired - current)
            self.pool.grow(step)
            self._last_grow_at = now
            self._record("grow", f"demand={demand} workers={current}->{current + step}")
            return

        if current == 0:
            self._dormant = True
            return
        if demand > 0 or self.pool.active_count > 0 or self._idle_since is None:
            return
        idle_for = now - self._idle_since
        zeroable = policy.scale_to_zero and policy.min_workers == 0
        # With scale-to-zero on, ordinary shrinks stop at one worker; the
        # final release is always an explicit "to_zero" after zero_grace.
        floor = 1 if zeroable else policy.min_workers
        if zeroable and idle_for >= policy.zero_grace:
            self.pool.drain(current)
            self._dormant = True
            self._record("to_zero", f"idle {idle_for:.1f}s, released {current} workers")
        elif current > floor and idle_for >= policy.idle_grace:
            step = min(policy.scale_down_step, current - floor)
            self.pool.drain(step)
            self._record("shrink", f"idle {idle_for:.1f}s workers={current}->{current - step}")

    def _wake(self) -> None:
        """First push after dormancy: re-provision and arm TTFT."""
        woke_at = self._clock.now()
        self._dormant = False
        self._idle_since = None
        self.pool.mark_wake(woke_at)
        step = max(1, min(self.policy.wake_workers, self.policy.max_workers))
        self.pool.grow(step)
        self._last_grow_at = woke_at
        counter_inc("autoscale.wakes", endpoint=self.endpoint.name)
        self._record("wake", f"push after dormancy, provisioning {step}")

    def _record(self, action: str, reason: str) -> None:
        decision = AutoscaleDecision(
            at=self._clock.now(),
            action=action,
            reason=reason,
            workers=self.pool.size,
        )
        self.decisions.append(decision)
        counter_inc(
            "autoscale.decisions", action=action, endpoint=self.endpoint.name
        )


def render_pool_table(autoscalers: list[Autoscaler]) -> str:
    """Fixed-width per-endpoint pool report (``repro.cli pools``)."""
    headers = (
        "endpoint",
        "workers",
        "active",
        "idle",
        "queue",
        "decisions",
        "last decision",
    )
    rows = []
    for scaler in autoscalers:
        util = scaler.endpoint.utilization()
        last = scaler.last_decision
        last_txt = "-" if last is None else f"{last.action}@{last.at:.1f}s ({last.reason})"
        rows.append(
            (
                scaler.endpoint.name,
                str(scaler.pool.size),
                str(util.active),
                str(util.idle),
                str(util.queue_depth),
                str(len(scaler.decisions)),
                last_txt,
            )
        )
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
