"""Tenants: identity scopes, quotas, rate limits, and usage accounting.

The funcX web service the paper builds on is one AWS-hosted deployment
serving *many* research campaigns at once.  This module gives the simulated
control plane the same first-class notion of a tenant:

* an **auth scope** per tenant, layered on :mod:`repro.faas.auth` — a token
  must carry ``tenant_scope(name)`` to act as that tenant;
* **quotas** — in-flight tasks, registered functions, queued argument
  bytes — checked at admission, so one campaign cannot exhaust the cloud;
* a **token-bucket rate limit** on submissions, producing HTTP-429-shaped
  :class:`~repro.exceptions.ThrottledError` responses with a
  ``retry_after`` hint the client SDK honors with backoff;
* a **weight** used by the endpoints' weighted-round-robin fair dequeue.

Validation happens at registration (charset/length), raising the targeted
:class:`~repro.exceptions.InvalidTenantError` /
:class:`~repro.exceptions.InvalidFunctionError` instead of surfacing later
as a ``KeyError`` deep inside a shard.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field

from repro.exceptions import (
    InvalidFunctionError,
    InvalidTenantError,
    TenantQuotaExceededError,
)
from repro.net.clock import Clock, get_clock
from repro.observe import counter_inc, gauge_set

__all__ = [
    "DEFAULT_TENANT",
    "tenant_scope",
    "validate_tenant_name",
    "validate_function_name",
    "TenantQuota",
    "TokenBucket",
    "Tenant",
    "TenantUsage",
    "TenantRegistry",
    "render_tenant_table",
]

DEFAULT_TENANT = "default"

#: Lowercase DNS-label-ish names: funcX tenant/group handles travel in URLs
#: and metric labels, so the charset is deliberately conservative.
_TENANT_NAME = re.compile(r"^[a-z0-9][a-z0-9._-]{0,63}$")
#: Function names follow Python identifier rules (they name callables).
_FUNCTION_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]{0,127}$")


def tenant_scope(name: str) -> str:
    """The OAuth-style scope a token must carry to act as tenant ``name``."""
    return f"urn:repro:scopes:tenant.{name}"


def validate_tenant_name(name: object) -> str:
    """Return ``name`` if it is a legal tenant name, else raise."""
    if not isinstance(name, str) or not _TENANT_NAME.match(name):
        raise InvalidTenantError(
            f"invalid tenant name {name!r}: must be 1-64 chars of "
            "[a-z0-9._-] starting with an alphanumeric"
        )
    return name


def validate_function_name(name: object) -> str:
    """Return ``name`` if it is a legal function name, else raise."""
    if not isinstance(name, str) or not _FUNCTION_NAME.match(name):
        raise InvalidFunctionError(
            f"invalid function name {name!r}: must be 1-128 chars of "
            "[A-Za-z0-9_.] starting with a letter or underscore"
        )
    return name


@dataclass(frozen=True)
class TenantQuota:
    """Hard per-tenant ceilings; ``None`` means unlimited."""

    max_in_flight: int | None = None  # submitted but not yet terminal
    max_functions: int | None = None  # registered function bodies
    max_queued_bytes: int | None = None  # argument bytes waiting in queues

    def __post_init__(self) -> None:
        for label, value in (
            ("max_in_flight", self.max_in_flight),
            ("max_functions", self.max_functions),
            ("max_queued_bytes", self.max_queued_bytes),
        ):
            if value is not None and value < 0:
                raise InvalidTenantError(f"{label} must be >= 0, got {value}")


class TokenBucket:
    """A clock-driven token bucket: ``rate`` tokens/nominal-second, holding
    at most ``burst``.  :meth:`acquire` is non-blocking — it either takes a
    token (returns 0.0) or returns the nominal seconds until one exists,
    which becomes the throttle response's ``retry_after`` hint."""

    def __init__(self, rate: float, burst: float, clock: Clock | None = None) -> None:
        if rate <= 0 or burst <= 0:
            raise InvalidTenantError(
                f"rate and burst must be positive, got rate={rate} burst={burst}"
            )
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock or get_clock()
        self._tokens = float(burst)
        self._stamp = self._clock.now()
        self._lock = threading.Lock()

    def _refill_locked(self) -> None:
        now = self._clock.now()
        self._tokens = min(self.burst, self._tokens + (now - self._stamp) * self.rate)
        self._stamp = now

    def acquire(self, tokens: float = 1.0) -> float:
        """Take ``tokens`` if available (returns 0.0) or return the nominal
        seconds until they will be."""
        with self._lock:
            self._refill_locked()
            if self._tokens >= tokens:
                self._tokens -= tokens
                return 0.0
            return (tokens - self._tokens) / self.rate

    def available(self) -> float:
        with self._lock:
            self._refill_locked()
            return self._tokens


@dataclass
class TenantUsage:
    """Live accounting for one tenant (guarded by the registry's lock)."""

    in_flight: int = 0
    queued_bytes: int = 0
    functions: int = 0
    submits: int = 0
    throttled: int = 0


@dataclass
class Tenant:
    """One tenant: fair-share weight, quotas, and its rate limiter."""

    name: str
    weight: int = 1
    quota: TenantQuota = field(default_factory=TenantQuota)
    bucket: TokenBucket | None = None
    usage: TenantUsage = field(default_factory=TenantUsage)


class TenantRegistry:
    """Thread-safe tenant directory + admission control.

    The router owns one registry; every shard holds a reference so that
    terminal transitions and dispatches (which happen inside shards) release
    the right usage immediately, without a round trip through the router.
    """

    def __init__(self, clock: Clock | None = None) -> None:
        self._clock = clock or get_clock()
        self._tenants: dict[str, Tenant] = {}
        self._lock = threading.Lock()
        # The default tenant always exists, unlimited and weight-1, so
        # single-tenant rigs (every pre-tenancy caller) work unchanged.
        self.create(DEFAULT_TENANT)

    # -- directory -----------------------------------------------------------
    def create(
        self,
        name: str,
        *,
        weight: int = 1,
        quota: TenantQuota | None = None,
        rate: float | None = None,
        burst: float | None = None,
    ) -> Tenant:
        """Register a tenant; ``rate`` (submits/nominal-second) enables the
        token bucket, with ``burst`` defaulting to 2 s worth of tokens."""
        validate_tenant_name(name)
        if weight < 1:
            raise InvalidTenantError(f"weight must be >= 1, got {weight}")
        bucket = None
        if rate is not None:
            bucket = TokenBucket(
                rate, burst if burst is not None else max(2.0 * rate, 1.0), self._clock
            )
        elif burst is not None:
            raise InvalidTenantError("burst requires a rate")
        tenant = Tenant(name=name, weight=weight, quota=quota or TenantQuota(), bucket=bucket)
        with self._lock:
            if name in self._tenants:
                raise InvalidTenantError(f"tenant {name!r} already exists")
            self._tenants[name] = tenant
        return tenant

    def get(self, name: str) -> Tenant:
        with self._lock:
            try:
                return self._tenants[name]
            except KeyError:
                raise InvalidTenantError(
                    f"unknown tenant {name!r}; create it on the router first"
                ) from None

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._tenants)

    def weight(self, name: str) -> int:
        with self._lock:
            tenant = self._tenants.get(name)
            return tenant.weight if tenant is not None else 1

    # -- admission -----------------------------------------------------------
    def admit_function(self, name: str) -> None:
        """Count a function registration against the tenant's quota."""
        tenant = self.get(name)
        with self._lock:
            quota = tenant.quota.max_functions
            if quota is not None and tenant.usage.functions >= quota:
                tenant.usage.throttled += 1
                counter_inc("cloud.throttled", tenant=name, reason="functions")
                raise TenantQuotaExceededError(
                    f"tenant {name!r} is at its registered-function quota "
                    f"({quota}); delete or reuse an existing function",
                    retry_after=0.0,
                )
            tenant.usage.functions += 1

    def admit_submit(self, name: str, nbytes: int) -> None:
        """Admission control for one submit: the batch of one, its refusal
        raised."""
        _, refusal = self.admit_batch(name, [nbytes])
        if refusal is not None:
            raise refusal

    def release_submit(self, name: str, nbytes: int) -> None:
        """Undo a reservation whose submit was rejected downstream."""
        self.release_batch(name, 1, nbytes)

    def admit_batch(
        self, name: str, sizes: list[int]
    ) -> tuple[int, TenantQuotaExceededError | None]:
        """Admission control for one submit call: rate limit, then quotas.

        ``sizes`` are the members' argument bytes, in order.  The call draws
        a single rate-bucket token however many tasks it carries, then
        reserves in-flight slots and queued bytes for the longest prefix of
        members that fits both quotas — a coalesced batch larger than the
        remaining headroom gets in piece by piece instead of never.
        Returns how many members were admitted (their usage is already
        reserved) and, when some were not, the retryable throttle error the
        rest come back with; a refused call counts once in
        ``usage.throttled`` / ``cloud.throttled{reason=}``."""
        tenant = self.get(name)
        if tenant.bucket is not None:
            wait = tenant.bucket.acquire()
            if wait > 0.0:
                with self._lock:
                    tenant.usage.throttled += 1
                counter_inc("cloud.throttled", tenant=name, reason="rate")
                return 0, TenantQuotaExceededError(
                    f"tenant {name!r} exceeded its submit rate "
                    f"({tenant.bucket.rate:.1f}/s); retry in {wait:.3f}s",
                    retry_after=wait,
                )
        with self._lock:
            usage, quota = tenant.usage, tenant.quota
            admitted = len(sizes)
            refusal = None
            if quota.max_in_flight is not None:
                admitted = max(0, min(admitted, quota.max_in_flight - usage.in_flight))
                if admitted < len(sizes):
                    reason = "in_flight"
                    refusal = (
                        f"tenant {name!r} has {usage.in_flight} tasks in flight; a "
                        f"batch of {len(sizes)} would exceed the quota "
                        f"({quota.max_in_flight}); {admitted} admitted, retry "
                        "the rest as they complete"
                    )
            if quota.max_queued_bytes is not None:
                fits, total = 0, usage.queued_bytes
                for nbytes in sizes[:admitted]:
                    if total + nbytes > quota.max_queued_bytes:
                        break
                    fits, total = fits + 1, total + nbytes
                if fits < admitted:
                    admitted = fits
                    reason = "queued_bytes"
                    refusal = (
                        f"tenant {name!r} would have "
                        f"{usage.queued_bytes + sum(sizes)} queued bytes (quota "
                        f"{quota.max_queued_bytes}); {admitted} admitted, retry "
                        "the rest as queued work drains"
                    )
            usage.in_flight += admitted
            usage.queued_bytes += sum(sizes[:admitted])
            usage.submits += admitted
            gauge_set("cloud.tenant_in_flight", usage.in_flight, tenant=name)
            if refusal is None:
                return admitted, None
            usage.throttled += 1
        counter_inc("cloud.throttled", tenant=name, reason=reason)
        return admitted, TenantQuotaExceededError(refusal, retry_after=0.0)

    def release_batch(self, name: str, n_tasks: int, total_bytes: int) -> None:
        """Undo (part of) a batch reservation rejected downstream."""
        with self._lock:
            tenant = self._tenants.get(name)
            if tenant is None:
                return
            tenant.usage.in_flight = max(0, tenant.usage.in_flight - n_tasks)
            tenant.usage.queued_bytes = max(
                0, tenant.usage.queued_bytes - total_bytes
            )
            tenant.usage.submits = max(0, tenant.usage.submits - n_tasks)

    # -- lifecycle notifications (called by shards) ---------------------------
    def tasks_dispatched(self, name: str, nbytes: int) -> None:
        """Arguments left a queue for an endpoint: queued bytes drop by the
        ``nbytes`` one applied record took out of ``name``'s queues."""
        with self._lock:
            tenant = self._tenants.get(name)
            if tenant is not None:
                tenant.usage.queued_bytes = max(0, tenant.usage.queued_bytes - nbytes)

    def task_requeued(self, name: str, nbytes: int) -> None:
        """A dispatched task went back to WAITING (crash/failover)."""
        with self._lock:
            tenant = self._tenants.get(name)
            if tenant is not None:
                tenant.usage.queued_bytes += nbytes

    def tasks_finished(self, name: str, n: int) -> None:
        """``n`` of ``name``'s tasks reached a terminal state: their
        in-flight headroom returns."""
        with self._lock:
            tenant = self._tenants.get(name)
            if tenant is not None:
                tenant.usage.in_flight = max(0, tenant.usage.in_flight - n)
                gauge_set("cloud.tenant_in_flight", tenant.usage.in_flight, tenant=name)

    # -- reporting -----------------------------------------------------------
    def snapshot(self) -> list[Tenant]:
        with self._lock:
            return [self._tenants[name] for name in sorted(self._tenants)]


def _limit(value: int | None) -> str:
    return "-" if value is None else str(value)


def render_tenant_table(registry: TenantRegistry) -> str:
    """A fixed-width per-tenant usage/quota table (the ``repro.cli tenants``
    output).  One row per tenant, sorted by name."""
    header = (
        "tenant",
        "weight",
        "rate/s",
        "in-flight",
        "fn",
        "queued-B",
        "submits",
        "throttled",
    )
    rows: list[tuple[str, ...]] = [header]
    for tenant in registry.snapshot():
        usage, quota = tenant.usage, tenant.quota
        rate = "-" if tenant.bucket is None else f"{tenant.bucket.rate:g}"
        rows.append(
            (
                tenant.name,
                str(tenant.weight),
                rate,
                f"{usage.in_flight}/{_limit(quota.max_in_flight)}",
                f"{usage.functions}/{_limit(quota.max_functions)}",
                f"{usage.queued_bytes}/{_limit(quota.max_queued_bytes)}",
                str(usage.submits),
                str(usage.throttled),
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)
