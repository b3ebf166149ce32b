"""The cloud half of the federated FaaS platform (the FuncX web service).

Responsibilities reproduced from §IV-B and §V-C1:

* **Function registry** — serialized function bodies registered once,
  referenced by id in every invocation.
* **Task queues per endpoint** — store-and-forward: tasks submitted while an
  endpoint is offline wait in its queue; results reported while the client
  is away wait in the client's completed queue.
* **Split payload store** — function arguments and results below 20 kB live
  in an ElastiCache-Redis-like store, larger ones in an S3-like store with
  higher latency and limited bandwidth.  This is why "Task Server-to-worker
  communication dominates the overall task lifetime" for by-value payloads
  (Fig. 3), and the 10 MB payload cap is enforced at submission.
* **Authentication** — every API call validates a scoped bearer token.

Latency accounting: the cloud's own compute is charged on the *calling*
thread (client or endpoint), which is where those costs land in reality —
the caller is blocked on the HTTPS response.

Multi-tenancy (``repro.tenancy``): a :class:`FaasCloud` doubles as the
**shard engine** behind :class:`repro.tenancy.CloudRouter`.  The hooks that
make one instance shardable are all constructor keywords with single-node
defaults — a shared :class:`~repro.bus.NotificationBus`, a shared
:class:`_CompletedFeed`, a locator prefix on the payload store, a task-id
namespace, a serialized per-shard admission cost, and a
:class:`~repro.tenancy.TenantRegistry` that usage events are reported to.
Task queues are per ``(endpoint, tenant)`` and drained weighted-round-robin
so one hot tenant cannot starve the rest of an endpoint's feed.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
import uuid
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from repro.bus import NotificationBus
from repro.chaos.plan import attempt_from_key, chaos_check
from repro.durable.journal import encode_payload
from repro.exceptions import (
    DeadlineExceededError,
    EndpointUnavailableError,
    LeaseExpiredError,
    PayloadTooLargeError,
    ReproError,
    ResultNotReadyError,
    TaskQuarantinedError,
    WorkflowError,
)
from repro.faas.auth import SCOPE_COMPUTE, AuthServer, Token
from repro.net.clock import Clock, get_clock
from repro.net.defaults import PaperConstants
from repro.net.topology import Network, Site
from repro.observe import TraceContext, counter_inc, gauge_set
from repro.resilience.health import BREAKER_OPEN
from repro.serialize import Payload, serialize
from repro.tenancy.tenant import (
    DEFAULT_TENANT,
    tenant_scope,
    validate_function_name,
    validate_tenant_name,
)

__all__ = [
    "TaskStatus",
    "TaskRecord",
    "TaskDispatch",
    "TaskSubmission",
    "FaasCloud",
    "task_topic",
    "result_topic",
]


def task_topic(endpoint_id: str) -> str:
    """Bus topic carrying task-available doorbells for one endpoint."""
    return f"tasks/{endpoint_id}"


def result_topic(client_id: str) -> str:
    """Bus topic carrying result notifications for one client."""
    return f"results/{client_id}"


class TaskStatus(str, Enum):
    WAITING = "WAITING"  # queued at the cloud, not yet fetched
    DISPATCHED = "DISPATCHED"  # fetched by the endpoint
    SUCCESS = "SUCCESS"
    FAILED = "FAILED"

    @property
    def terminal(self) -> bool:
        return self in (TaskStatus.SUCCESS, TaskStatus.FAILED)


@dataclass
class TaskRecord:
    task_id: str
    func_id: str
    endpoint_id: str
    client_id: str
    args_locator: str
    status: TaskStatus = TaskStatus.WAITING
    result_locator: str | None = None
    submitted_at: float = 0.0
    fetched_at: float | None = None
    completed_at: float | None = None
    trace_ctx: TraceContext | None = None
    #: Content-derived fault-injection key supplied by the client (rides the
    #: dispatch so endpoint/worker hooks key faults deterministically).
    chaos_key: str | None = None
    #: How many times this record went back to WAITING (crash reclaim or
    #: lease-expiry failover).
    requeues: int = 0
    #: Endpoints this task was reassigned *away from*; a result reported by
    #: one of them is a stale lease, not a protocol error.
    previous_endpoints: list[str] = field(default_factory=list)
    #: Advisory prefetch hints from the client, forwarded on dispatch so the
    #: executing endpoint can warm its site's proxy cache.
    prefetch: tuple = ()
    #: The tenant the task was submitted under (fair dequeue + quotas).
    tenant: str = DEFAULT_TENANT
    #: Size of the argument payload, kept for queued-bytes quota release.
    args_nbytes: int = 0
    #: Absolute nominal time after which the task's result is worthless;
    #: rides dispatch/retry/hedge so every layer can stop dead work early.
    deadline_at: float | None = None
    #: Content fingerprint (``func_id:args-digest``) for poison-task strike
    #: accounting: identical resubmissions share one fingerprint.
    fingerprint: str | None = None


@dataclass(frozen=True)
class TaskDispatch:
    """What an endpoint receives for one task: ids plus the args locator
    (payloads never ride the control message when they are large)."""

    task_id: str
    func_id: str
    args_locator: str
    trace_ctx: TraceContext | None = None
    chaos_key: str | None = None
    prefetch: tuple = ()
    tenant: str = DEFAULT_TENANT
    deadline_at: float | None = None


@dataclass(frozen=True)
class TaskSubmission:
    """One task inside a batched submit (client → cloud).

    The batch-level call carries the shared tenant and pays the shared
    costs (auth, admission, WAL append, doorbell); everything per-task —
    deadline, chaos key, prefetch hints — rides here so batching never
    erases per-task semantics."""

    func_id: str
    endpoint_id: str
    args_payload: Payload
    trace_ctx: TraceContext | None = None
    chaos_key: str | None = None
    prefetch: tuple = ()
    deadline_at: float | None = None


@dataclass
class _StoredObject:
    payload: Payload
    tier: str  # "redis" | "s3"
    chaos_exempt: bool = False


class _PayloadStore:
    """The ElastiCache/S3 split store for args and results."""

    def __init__(
        self,
        constants: PaperConstants,
        network: Network,
        clock: Clock,
        prefix: str = "",
    ) -> None:
        self._constants = constants
        self._network = network
        self._clock = clock
        # Shards prefix their locators (``s0/redis:...``) so a router can
        # resolve any locator to its owning shard; standalone clouds keep
        # the bare ``<tier>:<id>`` form.
        self._prefix = prefix
        self._objects: dict[str, _StoredObject] = {}
        self._lock = threading.Lock()

    def _charge_round(self, members: list[tuple[str, int]]) -> None:
        """Charge one round of ``(tier, nbytes)`` store ops.

        The ops of a round are pipelined (one MSET/MGET, one multi-object
        S3 request), so the round waits once per tier: the slowest of its
        redis members' latency draws, then the slowest S3 draw plus the
        summed bytes over the S3 bandwidth.  Every member still draws its
        own sample, in member order, so the seeded latency stream does not
        depend on how ops were grouped and a round of one charges what a
        lone op always has.  ``inline`` members ride the task message.
        """
        c = self._constants
        redis = s3 = None
        s3_bytes = 0
        for tier, nbytes in members:
            if tier == "redis":
                redis = max(redis or 0.0, self._network._sample(c.faas_redis_latency))
            elif tier == "s3":
                s3 = max(s3 or 0.0, self._network._sample(c.faas_s3_latency))
                s3_bytes += nbytes
        if redis is not None:
            self._clock.sleep(redis)
        if s3 is not None:
            self._clock.sleep(s3 + s3_bytes / c.faas_s3_bandwidth)

    def _tier(self, nbytes: int, borrowed: bool = False) -> str:
        c = self._constants
        if nbytes < c.faas_inline_threshold:
            return "inline"
        if borrowed and nbytes < c.faas_small_object_threshold:
            # Zero-copy fast path: a borrowed sub-20 kB payload rode the
            # carrying message inline, so the redis hop (and its second
            # serialize/deserialize) never happens.
            return "inline"
        if nbytes < c.faas_small_object_threshold:
            return "redis"
        return "s3"

    def write_round(self, members: list[tuple[Payload, bool]]) -> list[str]:
        """Store one round of ``(payload, chaos_exempt)`` members; returns
        their locators.  ``chaos_exempt`` marks payloads whose bytes are
        *not* content-deterministic (failure reports embed task ids and
        tracebacks); fault injection skips them so the fault ledger stays a
        pure function of the plan seed."""
        tiers = [
            self._tier(payload.nominal_size, payload.borrowed) for payload, _ in members
        ]
        self._charge_round(
            [(tier, payload.nominal_size) for tier, (payload, _) in zip(tiers, members)]
        )
        locators = []
        for tier, (payload, chaos_exempt) in zip(tiers, members):
            counter_inc("faas.store_writes", tier=tier)
            locator = f"{self._prefix}{tier}:{uuid.uuid4().hex}"
            with self._lock:
                self._objects[locator] = _StoredObject(payload, tier, chaos_exempt)
            locators.append(locator)
        return locators

    def write(self, payload: Payload, *, chaos_exempt: bool = False) -> str:
        """Store one payload: the round of one."""
        return self.write_round([(payload, chaos_exempt)])[0]

    def read_round(self, locators: list[str]) -> list:
        """Read one round of locators.  Returns a list aligned with them:
        the payload, or the :class:`WorkflowError` (unknown locator,
        injected ``cloud.store.read`` fault) that failed that member alone.
        """
        outcomes: list = [None] * len(locators)
        found: list[tuple[int, _StoredObject]] = []
        with self._lock:
            for i, locator in enumerate(locators):
                stored = self._objects.get(locator)
                if stored is None:
                    outcomes[i] = WorkflowError(f"unknown payload locator {locator!r}")
                else:
                    found.append((i, stored))
        self._charge_round(
            [(stored.tier, stored.payload.nominal_size) for _, stored in found]
        )
        for i, stored in found:
            counter_inc("faas.store_reads", tier=stored.tier)
            outcomes[i] = stored.payload
            if stored.chaos_exempt:
                continue
            # Fault keys derive from payload *content* so re-stored retries
            # of the same bytes count occurrences deterministically across
            # runs.
            spec = chaos_check(
                "cloud.store.read",
                hashlib.sha256(stored.payload.data).hexdigest()[:16],
                tier=stored.tier,
            )
            if spec is not None:
                if spec.delay:
                    self._clock.sleep(spec.delay)
                outcomes[i] = WorkflowError(
                    f"injected fault {spec.mode!r}: payload store read of "
                    f"{locators[i]!r} returned corrupt data"
                )
        return outcomes

    def read(self, locator: str) -> Payload:
        """Read one payload: the round of one, its error raised."""
        return sole(self.read_round([locator]))

    def adopt(self, locator: str, payload: Payload, *, chaos_exempt: bool = False) -> None:
        """Re-install an object under a locator minted before a crash.

        Used by journal replay: the tier is parsed back out of the locator
        (``<shard>/<tier>:<id>``) and no store latency is charged — the
        bytes come off the journal, whose read already paid the I/O.
        """
        tier = locator.rsplit("/", 1)[-1].split(":", 1)[0]
        with self._lock:
            self._objects[locator] = _StoredObject(payload, tier, chaos_exempt)

    def raw(self, locator: str) -> _StoredObject | None:
        """The stored object without charging I/O (snapshot capture)."""
        with self._lock:
            return self._objects.get(locator)


class _CompletedFeed:
    """Per-client completed-task queues (the poll half of result delivery).

    Extracted from :class:`FaasCloud` so a router can hand every shard the
    *same* feed: a client long-polling ``next_completed`` then sees results
    from all shards through one wait, exactly as if the cloud were one
    service.  ``cond`` doubles as the terminal-transition lock shards use
    for their exactly-once ``report_result`` dance."""

    def __init__(self, clock: Clock) -> None:
        self._clock = clock
        self.cond = threading.Condition()
        self._queues: dict[str, deque[str]] = {}

    def push_locked(self, client_id: str, task_id: str) -> None:
        """Append a completion; caller must hold :attr:`cond`."""
        self._queues.setdefault(client_id, deque()).append(task_id)
        self.cond.notify_all()

    def retire(self, client_id: str, task_id: str) -> None:
        """Drop a completion that was collected through another path."""
        with self.cond:
            queue = self._queues.get(client_id, ())
            if task_id in queue:
                queue.remove(task_id)

    def next_completed_batch(
        self, client_id: str, max_n: int, timeout: float | None
    ) -> list[str]:
        """One wait, up to ``max_n`` completions: a storm of results costs
        the poller one wakeup, not one per task.  A spurious or competing
        wakeup does not consume the budget: the wait loops on a deadline
        until a completion arrives or the full timeout elapses."""
        deadline = None if timeout is None else self._clock.now() + timeout
        with self.cond:
            queue = self._queues.setdefault(client_id, deque())
            while not queue:
                remaining = None
                if deadline is not None:
                    remaining = deadline - self._clock.now()
                    if remaining <= 0:
                        return []
                self.cond.wait(self._clock.wall_timeout(remaining))
            out: list[str] = []
            while queue and len(out) < max_n:
                out.append(queue.popleft())
            return out


def sole(outcomes: list):
    """The only member's outcome of a batch of one, its error raised."""
    (outcome,) = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


class _BatchOfOne:
    """The singular calls of the cloud API, for :class:`FaasCloud` and
    :class:`repro.tenancy.CloudRouter` alike: each is the batched call with
    one member, and raises what that member came back with.  Nothing is
    admitted, journaled, queued or published here."""

    def submit(
        self,
        token: Token,
        client_id: str,
        func_id: str,
        endpoint_id: str,
        args_payload: Payload,
        *,
        tenant: str = DEFAULT_TENANT,
        trace_ctx: TraceContext | None = None,
        chaos_key: str | None = None,
        prefetch: tuple = (),
        deadline_at: float | None = None,
    ) -> str:
        item = TaskSubmission(
            func_id,
            endpoint_id,
            args_payload,
            trace_ctx,
            chaos_key,
            prefetch,
            deadline_at,
        )
        return sole(self.submit_batch(token, client_id, [item], tenant=tenant))

    def report_result(
        self,
        token: Token,
        endpoint_id: str,
        task_id: str,
        success: bool,
        result_payload: Payload,
    ) -> None:
        sole(
            self.report_results(
                token, endpoint_id, [(task_id, success, result_payload)]
            )
        )

    def get_result_payload(
        self, token: Token, task_id: str
    ) -> tuple[TaskStatus, Payload]:
        return sole(self.get_result_payloads(token, [task_id]))

    def next_completed(self, client_id: str, timeout: float | None) -> str | None:
        """Block until some task of ``client_id`` completes; its id, or
        ``None`` once ``timeout`` has elapsed."""
        task_ids = self.next_completed_batch(client_id, 1, timeout)
        return task_ids[0] if task_ids else None


class FaasCloud(_BatchOfOne):
    """The hosted service: registry, queues, payload store, delivery."""

    def __init__(
        self,
        site: Site,
        network: Network,
        auth: AuthServer,
        constants: PaperConstants | None = None,
        clock: Clock | None = None,
        *,
        bus: NotificationBus | None = None,
        completed: "_CompletedFeed | None" = None,
        usage: object | None = None,
        shard_id: str = "",
        service_time: float = 0.0,
        store_prefix: str = "",
        task_namespace: str = "",
        on_enqueue: object | None = None,
        journal: object | None = None,
        health: object | None = None,
        poison: object | None = None,
    ) -> None:
        """Single-node cloud by default; the keyword block turns one
        instance into a shard behind :class:`repro.tenancy.CloudRouter`:

        ``bus`` / ``completed``
            Shared delivery fabric — all shards publish doorbells and
            completions into the same streams, so endpoints and clients
            subscribe once no matter how many shards exist.
        ``usage``
            A :class:`repro.tenancy.TenantRegistry`; dispatch / requeue /
            terminal transitions release the reservations the router made
            at admission (``None`` skips all usage accounting).
        ``service_time``
            Serialized per-submit admission cost in nominal seconds — the
            shard's finite control-plane capacity.  Aggregate admission
            throughput therefore scales with the number of shards.
        ``store_prefix`` / ``task_namespace``
            Disambiguate locators and task ids across shards so a router
            can route any id back to its owner.
        ``journal``
            A :class:`repro.durable.Journal` this instance writes through:
            admission, dispatch, re-home and result-uplink mutations (which
            carry the tenant-usage deltas) are appended — and their I/O cost
            charged, the fsync — *before* the in-memory mutation becomes
            visible, so a crash-discarded instance can be rebuilt from
            snapshot + log replay (:func:`repro.durable.recover_cloud`).
        ``health`` / ``poison``
            A :class:`repro.resilience.EndpointHealthTracker` and a
            :class:`repro.resilience.PoisonTracker`; shards behind one
            router share single instances so health signals and poison
            strikes accumulate fleet-wide.  ``None`` (the default) disables
            circuit breaking / quarantine entirely — the seed dispatch path
            is untouched.
        """
        self.site = site
        self.network = network
        self.auth = auth
        self.constants = constants or PaperConstants()
        self.clock = clock or get_clock()
        self.shard_id = shard_id
        self._shard_label = shard_id or "solo"
        self.usage = usage
        self._service_time = service_time
        self._admission_lock = threading.Lock()
        self._on_enqueue = on_enqueue
        self.store = _PayloadStore(
            self.constants, network, self.clock, prefix=store_prefix
        )
        # Push-notification bus: result notifications to clients, task-
        # available doorbells to endpoints.  The queues below stay the
        # ground truth; the bus only carries acked wakeups, so the poll
        # paths remain correct as a degraded fallback.
        self.bus = (
            bus
            if bus is not None
            else NotificationBus.for_cloud(self.clock, self.constants)
        )
        self._functions: dict[str, Payload] = {}
        self._function_tenants: dict[str, str] = {}
        self._endpoints: dict[str, Site] = {}
        self._endpoint_online: dict[str, bool] = {}
        self._tasks: dict[str, TaskRecord] = {}
        # endpoint id -> tenant -> FIFO of waiting task ids.  Draining is
        # weighted round-robin across the tenant queues (see
        # ``_pop_next_locked``), the per-endpoint fair-dequeue guarantee.
        self._queues: dict[str, dict[str, deque[str]]] = {}
        self._wrr_tenant: dict[str, str] = {}
        self._wrr_credit: dict[str, int] = {}
        self._queue_cond = threading.Condition()
        self._completed = completed if completed is not None else _CompletedFeed(
            self.clock
        )
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._task_namespace = task_namespace
        # Heartbeat leases: only endpoints that ever heartbeat hold a lease,
        # so direct-API test rigs without an agent process are never reaped.
        self._lease_expiry: dict[str, float] = {}
        self._failover_groups: dict[str, str | None] = {}
        self.health = health
        self.poison = poison
        self.journal = journal
        if journal is not None:
            journal.set_snapshot_provider(self.journal_state)

    # -- registry ------------------------------------------------------------
    def register_function(
        self,
        token: Token,
        payload: Payload,
        *,
        tenant: str = DEFAULT_TENANT,
        name: str | None = None,
        func_id: str | None = None,
    ) -> str:
        """Register a function body for ``tenant``.

        ``name`` (optional) is validated for charset/length and embedded in
        the function id for readability; ``func_id`` lets a router assign
        the id up front (it must, to consistent-hash the registration to
        the owning shard before the id exists anywhere)."""
        self.auth.validate(token, SCOPE_COMPUTE)
        validate_tenant_name(tenant)
        if tenant != DEFAULT_TENANT:
            self.auth.validate(token, tenant_scope(tenant))
        if name is not None:
            validate_function_name(name)
        if self.usage is not None:
            self.usage.admit_function(tenant)
        if func_id is None:
            stem = f"fn-{name}-" if name else "fn-"
            func_id = f"{stem}{uuid.uuid4().hex[:12]}"
        self.adopt_function(func_id, tenant, payload)
        return func_id

    def adopt_function(self, func_id: str, tenant: str, payload: Payload) -> None:
        """Install an already-admitted registration (shard rebalancing).

        Skips validation and quota accounting: the registration was
        admitted when the tenant first registered it; moving it to the
        partition's new owner must not charge the quota twice."""
        if self.journal is not None:
            self.journal.append(
                "func", func_id=func_id, tenant=tenant, payload=encode_payload(payload)
            )
        with self._lock:
            self._functions[func_id] = payload
            self._function_tenants[func_id] = tenant

    def get_function(
        self, token: Token, func_id: str, tenant: str = DEFAULT_TENANT
    ) -> Payload:
        """Fetch a function body.  Only :data:`SCOPE_COMPUTE` is required —
        endpoints execute for every tenant, so their tokens carry no tenant
        scopes — but the function must be visible to ``tenant``."""
        self.auth.validate(token, SCOPE_COMPUTE)
        with self._lock:
            payload = self._functions.get(func_id)
            owner = self._function_tenants.get(func_id, DEFAULT_TENANT)
        if payload is None or owner != tenant:
            raise WorkflowError(f"unknown function {func_id!r}")
        return payload

    def register_endpoint(
        self,
        token: Token,
        name: str,
        site: Site,
        *,
        failover_group: str | None = None,
    ) -> str:
        """Register an endpoint; endpoints sharing a ``failover_group`` are
        interchangeable targets, so tasks stranded on one whose lease
        expires are re-dispatched to a surviving member of the group."""
        self.auth.validate(token, SCOPE_COMPUTE)
        endpoint_id = f"ep-{name}-{uuid.uuid4().hex[:8]}"
        self.adopt_endpoint(endpoint_id, site, failover_group=failover_group)
        # Pre-create the bus stream so doorbells published before the agent
        # first connects are retained and replayed on its subscribe.  The
        # chaos label is the (stable) endpoint *name*, not the run-local id.
        self.bus.register_subscriber(
            task_topic(endpoint_id), endpoint_id, chaos_label=name
        )
        return endpoint_id

    def adopt_endpoint(
        self,
        endpoint_id: str,
        site: Site,
        *,
        failover_group: str | None = None,
    ) -> None:
        """Create queue/lease structures for an endpoint id assigned
        elsewhere.  A router adopts each endpoint into *every* shard (any
        partition may dispatch to any endpoint) while registering the bus
        subscriber exactly once itself."""
        if self.journal is not None:
            self.journal.append(
                "endpoint",
                endpoint_id=endpoint_id,
                site=site.name,
                failover_group=failover_group,
            )
        with self._lock:
            self._endpoints[endpoint_id] = site
            self._endpoint_online[endpoint_id] = False
            self._queues[endpoint_id] = {}
            self._failover_groups[endpoint_id] = failover_group

    def endpoint_site(self, endpoint_id: str) -> Site:
        with self._lock:
            try:
                return self._endpoints[endpoint_id]
            except KeyError:
                raise EndpointUnavailableError(
                    f"unknown endpoint {endpoint_id!r}"
                ) from None

    def set_endpoint_online(self, endpoint_id: str, online: bool) -> None:
        with self._queue_cond:
            self.endpoint_site(endpoint_id)
            self._endpoint_online[endpoint_id] = online
            self._queue_cond.notify_all()

    def endpoint_online(self, endpoint_id: str) -> bool:
        with self._lock:
            return self._endpoint_online.get(endpoint_id, False)

    # -- heartbeats and leases ------------------------------------------------
    def heartbeat(self, token: Token, endpoint_id: str) -> float:
        """Renew an endpoint's lease; returns the new expiry (nominal s).

        An endpoint that stops heartbeating — crash, reclaim, partition —
        has its lease expire after ``endpoint_lease_ttl``, at which point
        the cloud re-dispatches everything it held (see
        :meth:`expire_leases`).  This is the funcX liveness mechanism that
        makes federation survive endpoint loss without client involvement.
        """
        self.auth.validate(token, SCOPE_COMPUTE)
        self.endpoint_site(endpoint_id)
        expiry = self.clock.now() + self.constants.endpoint_lease_ttl
        with self._queue_cond:
            self._lease_expiry[endpoint_id] = expiry
            self._endpoint_online[endpoint_id] = True
            # Liveness checks ride every heartbeat: with bus-driven pickup a
            # healthy-but-idle endpoint no longer polls, so a peer's
            # heartbeat (not its long poll) is what reaps a dead member and
            # triggers failover.  The breaker shed sweep rides along for the
            # same reason — a bus-idle standby never fetches, so without
            # this a gray peer's backlog would strand until some poll.
            self._expire_leases_locked()
            self._shed_open_breakers_locked()
        if self.health is not None:
            # Heartbeat jitter is a gray-failure signal: a degraded agent
            # beats late long before it stops beating entirely.
            self.health.record_heartbeat(
                endpoint_id,
                self.clock.now(),
                self.constants.endpoint_heartbeat_period,
            )
        counter_inc("faas.heartbeats", endpoint=endpoint_id)
        return expiry

    def lease_valid(self, endpoint_id: str) -> bool:
        with self._queue_cond:
            expiry = self._lease_expiry.get(endpoint_id)
            return expiry is not None and expiry > self.clock.now()

    def release_lease(self, token: Token, endpoint_id: str) -> None:
        """Graceful shutdown: surrender the lease so the stop is not later
        mistaken for a crash (no failover is triggered)."""
        self.auth.validate(token, SCOPE_COMPUTE)
        with self._queue_cond:
            self._lease_expiry.pop(endpoint_id, None)

    def expire_leases(self) -> list[str]:
        """Reap endpoints whose lease lapsed; returns the reaped ids.

        Runs lazily on every submit/fetch (any surviving endpoint's long
        poll triggers it), so failover needs no dedicated reaper thread.
        """
        with self._queue_cond:
            return self._expire_leases_locked()

    def _group_members_locked(self, endpoint_id: str) -> list[str]:
        """Same-failover-group peers with live leases, sorted (self excluded)."""
        group = self._failover_groups.get(endpoint_id)
        if group is None:
            return []
        now = self.clock.now()
        return sorted(
            other_id
            for other_id, other_group in self._failover_groups.items()
            if other_id != endpoint_id
            and other_group == group
            and (expiry := self._lease_expiry.get(other_id)) is not None
            and expiry > now
        )

    def _healthy_target_locked(self, endpoint_id: str, now: float) -> str | None:
        """A live same-group peer whose breaker is not open, if any."""
        for other_id in self._group_members_locked(endpoint_id):
            if (
                self.health is None
                or self.health.evaluate(other_id, now) != BREAKER_OPEN
            ):
                return other_id
        return None

    def _shed_open_breakers_locked(self) -> None:
        """Move work away from endpoints whose circuit breaker is open.

        The gray twin of the lease-expiry sweep: a degraded endpoint still
        heartbeats (its lease never lapses), so any healthy peer's fetch or
        heartbeat re-homes its backlog and its in-flight stragglers onto a
        healthy group member (:meth:`_requeue_locked`); its eventual slow
        results arrive as stale-lease reports and are dropped.
        """
        if self.health is None:
            return
        now = self.clock.now()
        for endpoint_id in list(self._queues):
            if self.health.evaluate(endpoint_id, now) != BREAKER_OPEN:
                continue
            target = self._healthy_target_locked(endpoint_id, now)
            if target is not None:  # else nowhere healthier: leave it in place
                self._requeue_locked(endpoint_id, target, "resilience.sheds")

    # -- per-tenant queue helpers ---------------------------------------------
    def _tenant_queue_locked(self, endpoint_id: str, tenant: str) -> deque[str]:
        return self._queues[endpoint_id].setdefault(tenant, deque())

    def _depth_locked(self, endpoint_id: str) -> int:
        return sum(len(q) for q in self._queues[endpoint_id].values())

    def _queued_records_locked(self, endpoint_id: str) -> list[TaskRecord]:
        """Every WAITING record queued at an endpoint, per-tenant FIFO
        order, tenants in sorted order."""
        records: list[TaskRecord] = []
        for tenant in sorted(self._queues[endpoint_id]):
            records.extend(
                self._tasks[tid] for tid in self._queues[endpoint_id][tenant]
            )
        return records

    def _dequeue_locked(self, record: TaskRecord) -> bool:
        """Drop ``record``'s queued copy from its owner's queue; True when
        there was one."""
        queue = self._queues.get(record.endpoint_id, {}).get(record.tenant, ())
        if record.task_id not in queue:
            return False
        queue.remove(record.task_id)
        return True

    def _requeue_locked(
        self,
        source: str,
        target: str | None = None,
        counter: str | None = None,
        records: list[TaskRecord] | None = None,
    ) -> list[TaskRecord]:
        """Return what ``source`` holds to ``WAITING`` — the only place an
        existing record's status becomes ``WAITING``.  Returns the records.

        ``target`` ``None`` (or ``source``) requeues in place: its
        fetched-but-unfinished tasks go back to the *front* of its own
        queue, oldest first; what is still queued already sits where it
        belongs.  Any other ``target`` re-homes: in-flight and queued work
        alike leaves for the *back* of ``target``'s queue, and ``source``
        joins ``previous_endpoints`` so its late report reads as a stale
        lease, not a protocol error.

        A re-home changes who may report the task, so it is journaled: ONE
        ``rehome`` record per call, appended (its fsync charged) under
        ``_queue_cond`` before the move is visible, so WAL order is ledger
        order.  An in-place requeue is not: replay re-leases whatever was
        in flight, which is the same state.

        Copies that were DISPATCHED re-enter the tenant's queued-bytes
        quota; each task gets a fresh doorbell (the agent that lost it
        acked the original) and counts once under ``counter``.
        ``counter=None`` replays a journaled ``rehome`` of ``records`` into
        a rebuilt ledger: ownership effects only — the usage registry and
        the bus outlived the crash and already saw the live move.
        """
        target = target or source
        rehome = target != source
        if records is None:
            records = sorted(
                (
                    record
                    for record in self._tasks.values()
                    if record.endpoint_id == source
                    and record.status is TaskStatus.DISPATCHED
                ),
                key=lambda record: record.submitted_at,
            )
            if rehome:
                records += self._queued_records_locked(source)
        if not records:
            return records
        live = counter is not None
        if rehome and live and self.journal is not None:
            self.journal.append(
                "rehome",
                **{"from": source, "to": target},
                task_ids=[record.task_id for record in records],
                at=self.clock.now(),
            )
        # In place the oldest must end up in front, so appendleft newest first.
        for record in records if rehome else reversed(records):
            if record.status is not TaskStatus.DISPATCHED:
                self._dequeue_locked(record)  # the queued copy leaves with it
            elif live and self.usage is not None:
                self.usage.task_requeued(record.tenant, record.args_nbytes)
            record.status = TaskStatus.WAITING
            record.fetched_at = None
            record.requeues += 1
            queue = self._tenant_queue_locked(target, record.tenant)
            if rehome:
                if source not in record.previous_endpoints:
                    record.previous_endpoints.append(source)
                record.endpoint_id = target
                queue.append(record.task_id)
            else:
                queue.appendleft(record.task_id)
        if live:
            labels = (
                {"from_endpoint": source, "to_endpoint": target}
                if rehome
                else {"endpoint": source}
            )
            counter_inc(counter, len(records), shard=self._shard_label, **labels)
            for record in records:
                self._ring(task_topic(target), record)
            self._publish_depth_locked(source)
            if rehome:
                self._publish_depth_locked(target)
        self._queue_cond.notify_all()
        return records

    def _pop_next_locked(self, endpoint_id: str) -> str | None:
        """Weighted-round-robin pop across an endpoint's tenant queues.

        Each tenant gets up to ``weight`` consecutive tasks per turn of the
        rotation, so over any drain window a backlogged tenant receives at
        most ``weight / sum(weights of backlogged tenants)`` of the feed —
        the starvation bound the noisy-neighbor benchmark asserts."""
        queues = self._queues[endpoint_id]
        backlogged = sorted(tenant for tenant, q in queues.items() if q)
        if not backlogged:
            return None
        current = self._wrr_tenant.get(endpoint_id)
        credit = self._wrr_credit.get(endpoint_id, 0)
        if current is not None and credit > 0 and queues.get(current):
            self._wrr_credit[endpoint_id] = credit - 1
            return queues[current].popleft()
        # Advance the rotation: the first backlogged tenant strictly after
        # the current one in sorted order (wrapping), so a tenant whose
        # queue empties forfeits the rest of its turn.
        nxt = next(
            (t for t in backlogged if current is None or t > current),
            backlogged[0],
        )
        self._wrr_tenant[endpoint_id] = nxt
        weight = 1 if self.usage is None else self.usage.weight(nxt)
        self._wrr_credit[endpoint_id] = max(weight, 1) - 1
        return queues[nxt].popleft()

    def queue_depth(self, endpoint_id: str) -> int:
        """Tasks waiting in this cloud's queues for ``endpoint_id``, summed
        over tenants — the cloud half of the autoscaler's demand signal."""
        with self._queue_cond:
            if endpoint_id not in self._queues:
                return 0
            return self._depth_locked(endpoint_id)

    def tenant_backlog(self, endpoint_id: str) -> dict[str, int]:
        """Per-tenant waiting-task counts for ``endpoint_id`` (backlogged
        tenants only)."""
        with self._queue_cond:
            queues = self._queues.get(endpoint_id, {})
            return {tenant: len(q) for tenant, q in queues.items() if q}

    def _ring(self, topic: str, record: TaskRecord) -> None:
        """Publish one task's doorbell (or result notification) on ``topic``."""
        self.bus.publish(
            topic, record.task_id, chaos_key=record.chaos_key or record.task_id
        )

    def _publish_depth_locked(self, endpoint_id: str) -> None:
        gauge_set(
            "faas.queue_depth", self._depth_locked(endpoint_id), endpoint=endpoint_id
        )
        for tenant, queue in self._queues[endpoint_id].items():
            gauge_set(
                "cloud.tenant_queue_depth",
                len(queue),
                tenant=tenant,
                endpoint=endpoint_id,
                shard=self._shard_label,
            )

    def _expire_leases_locked(self) -> list[str]:
        now = self.clock.now()
        reaped = [
            endpoint_id
            for endpoint_id, expiry in self._lease_expiry.items()
            if expiry <= now
        ]
        for endpoint_id in reaped:
            del self._lease_expiry[endpoint_id]
            self._endpoint_online[endpoint_id] = False
            counter_inc("faas.lease_expiries", endpoint=endpoint_id)
            # A surviving group member inherits everything the dead endpoint
            # held; with no survivor its fetched work goes back on its own
            # queue (store-and-forward across a restart).
            peers = self._group_members_locked(endpoint_id)
            if peers:
                self._requeue_locked(endpoint_id, peers[0], "faas.failovers")
            else:
                self._requeue_locked(endpoint_id, None, "faas.requeues")
        return reaped

    # -- client side ------------------------------------------------------------
    def _admit_task(
        self, client_id: str, item: TaskSubmission, tenant: str
    ) -> tuple[str, str]:
        """Per-task admission checks: function/endpoint existence, deadline,
        poison quarantine, breaker steering, fault injection, and the
        payload cap.
        May re-steer the task; returns the (possibly new) endpoint id and
        the content fingerprint."""
        func_id, endpoint_id, args_payload = (
            item.func_id,
            item.endpoint_id,
            item.args_payload,
        )
        chaos_key, deadline_at = item.chaos_key, item.deadline_at
        self.endpoint_site(endpoint_id)
        with self._lock:
            known = (
                func_id in self._functions
                and self._function_tenants.get(func_id, DEFAULT_TENANT) == tenant
            )
        if not known:
            raise WorkflowError(f"unknown function {func_id!r}")
        if deadline_at is not None and deadline_at <= self.clock.now():
            raise DeadlineExceededError(
                f"task submitted after its own deadline ({deadline_at:.3f}s)"
            )
        # Content fingerprint for poison accounting: the chaos-key base is
        # already a digest of the argument bytes; derive one otherwise.
        fingerprint = (chaos_key or "").partition("#")[0]
        if not fingerprint:
            fingerprint = hashlib.sha256(args_payload.data).hexdigest()[:16]
        fingerprint = f"{func_id}:{fingerprint}"
        if self.poison is not None:
            if self.poison.is_quarantined(tenant, fingerprint):
                counter_inc("resilience.quarantine_refusals", tenant=tenant)
                raise TaskQuarantinedError(
                    f"fingerprint {fingerprint} is quarantined in tenant "
                    f"{tenant!r}'s dead-letter queue (it failed on "
                    f"{self.poison.policy.quorum} distinct endpoints); "
                    "`repro.cli deadletter retry|drop` releases it",
                    fingerprint=fingerprint,
                )
            # Steer a striked fingerprint's retry to an endpoint that has
            # not voted yet, so a true poison task reaches quorum instead
            # of failing forever on one endpoint.
            if endpoint_id in self.poison.strikes(fingerprint):
                with self._queue_cond:
                    candidates = self._group_members_locked(endpoint_id)
                untried = self.poison.untried_endpoint(fingerprint, candidates)
                if untried is not None:
                    counter_inc(
                        "resilience.poison_steered",
                        from_endpoint=endpoint_id,
                        to_endpoint=untried,
                    )
                    endpoint_id = untried
        if self.health is not None:
            # An open breaker turns submits away at admission — cheaper than
            # enqueueing onto a queue the shed sweep would drain anyway.
            now = self.clock.now()
            if self.health.evaluate(endpoint_id, now) == BREAKER_OPEN:
                with self._queue_cond:
                    target = self._healthy_target_locked(endpoint_id, now)
                if target is not None:
                    counter_inc(
                        "resilience.steered",
                        from_endpoint=endpoint_id,
                        to_endpoint=target,
                    )
                    endpoint_id = target
        spec = chaos_check(
            "cloud.submit",
            chaos_key or f"{client_id}|{func_id}",
            attempt=attempt_from_key(chaos_key),
            size=args_payload.nominal_size,
        )
        if spec is not None or args_payload.nominal_size > self.constants.faas_payload_cap:
            reason = (
                f"injected fault {spec.mode!r}: service rejected the payload"
                if spec is not None
                else "pass large data by reference instead"
            )
            raise PayloadTooLargeError(
                f"arguments are {args_payload.nominal_size} bytes; the service "
                f"caps payloads at {self.constants.faas_payload_cap} ({reason})"
            )
        return endpoint_id, fingerprint

    def submit_batch(
        self,
        token: Token,
        client_id: str,
        items: list[TaskSubmission],
        *,
        tenant: str = DEFAULT_TENANT,
    ) -> list:
        """Admit one API round trip's tasks — a coalesced batch, or one.

        The call pays the shared costs once — one auth/tenant check, one
        serialized admission charge, one WAL append, one queue wakeup, and
        one coalesced doorbell per destination endpoint — while every
        per-task check (:meth:`_admit_task`: function known, deadline,
        quarantine, breaker steering, fault injection, payload cap) runs
        per item.  A payload the sender marked borrowed rode this message
        and lands in the ``inline`` tier if it is small enough; the cloud
        never decides that itself.  Returns a list aligned with ``items``:
        a task id where admission succeeded, the raising
        :class:`ReproError` where it did not, so the client can split
        rejects back into singles.
        """
        self.auth.validate(token, SCOPE_COMPUTE)
        validate_tenant_name(tenant)
        if tenant != DEFAULT_TENANT:
            self.auth.validate(token, tenant_scope(tenant))
        self.expire_leases()
        results: list = [None] * len(items)
        admitted: list[tuple[int, TaskSubmission, str, str]] = []
        for i, item in enumerate(items):
            try:
                endpoint_id, fingerprint = self._admit_task(client_id, item, tenant)
            except ReproError as exc:
                results[i] = exc
                continue
            admitted.append((i, item, endpoint_id, fingerprint))
        if not admitted:
            return results
        # The shard's control plane admits one call at a time: this
        # serialized charge is the finite capacity that makes aggregate
        # admission throughput scale with the shard count, and a batch pays
        # it once — the amortization that lifts sustained tasks/sec.
        if self._service_time > 0.0:
            with self._admission_lock:
                self.clock.sleep(self._service_time)
        # One pipelined store round for the call's argument writes.
        locators = self.store.write_round(
            [(item.args_payload, False) for _i, item, _endpoint, _fp in admitted]
        )
        records: list[TaskRecord] = []
        for (i, item, endpoint_id, fingerprint), args_locator in zip(admitted, locators):
            task_id = f"task-{self._task_namespace}{next(self._ids):08d}"
            records.append(
                TaskRecord(
                    task_id=task_id,
                    func_id=item.func_id,
                    endpoint_id=endpoint_id,
                    client_id=client_id,
                    args_locator=args_locator,
                    submitted_at=self.clock.now(),
                    trace_ctx=item.trace_ctx,
                    chaos_key=item.chaos_key,
                    prefetch=tuple(item.prefetch),
                    tenant=tenant,
                    args_nbytes=item.args_payload.nominal_size,
                    deadline_at=item.deadline_at,
                    fingerprint=fingerprint,
                )
            )
            results[i] = task_id
        # WAL fsync point: ONE append makes the whole admission (task
        # identities + argument bytes + locators) durable before any task
        # becomes visible in a queue, and each task doc inside it replays
        # individually (see recover_cloud) — a crash between this append
        # and the queue fan-out below leaves journaled-but-never-queued
        # tasks, which replay admits into WAITING queues exactly once.
        if self.journal is not None:
            self.journal.append(
                "submit",
                client_id=client_id,
                tenant=tenant,
                tasks=[
                    {
                        "task_id": record.task_id,
                        "func_id": record.func_id,
                        "endpoint_id": record.endpoint_id,
                        "locator": record.args_locator,
                        "args": encode_payload(item.args_payload),
                        "chaos_key": record.chaos_key,
                        "submitted_at": record.submitted_at,
                        "deadline_at": record.deadline_at,
                        "fingerprint": record.fingerprint,
                    }
                    for record, (_i, item, _endpoint, _fp) in zip(records, admitted)
                ],
            )
        by_endpoint: dict[str, list[TaskRecord]] = {}
        for record in records:
            by_endpoint.setdefault(record.endpoint_id, []).append(record)
        with self._queue_cond:
            for record in records:
                self._tasks[record.task_id] = record
                self._tenant_queue_locked(record.endpoint_id, tenant).append(
                    record.task_id
                )
            for endpoint_id in by_endpoint:
                self._publish_depth_locked(endpoint_id)
            self._queue_cond.notify_all()
        counter_inc(
            "cloud.submits", len(records), tenant=tenant, shard=self._shard_label
        )
        counter_inc("cloud.batch_submits", tenant=tenant, shard=self._shard_label)
        # One coalesced doorbell per destination endpoint, *after* the
        # enqueue so a subscriber that fetches on it always finds the tasks
        # queued: the payload is the comma-joined id list.
        for endpoint_id in sorted(by_endpoint):
            group = by_endpoint[endpoint_id]
            self.bus.publish(
                task_topic(endpoint_id),
                ",".join(r.task_id for r in group),
                chaos_key=group[0].chaos_key or group[0].task_id,
            )
        if self._on_enqueue is not None:
            self._on_enqueue()
        return results

    def task(self, task_id: str) -> TaskRecord:
        with self._lock:
            try:
                return self._tasks[task_id]
            except KeyError:
                raise WorkflowError(f"unknown task {task_id!r}") from None

    def task_records(self) -> list[TaskRecord]:
        """Every task record the cloud has seen (audit/invariant checks)."""
        with self._queue_cond:
            return list(self._tasks.values())

    def get_result_payloads(self, token: Token, task_ids: list[str]) -> list:
        """Collect the results of several tasks in one API call.

        One auth check covers the call; everything else is per task — the
        store read (tier charge, ``cloud.store.read`` fault hook) and the
        outcome.  Returns a list aligned with ``task_ids``, shaped like
        :meth:`submit_batch`'s: ``(status, payload)`` where the read
        succeeded, the raising :class:`ReproError` (unknown id, no result
        yet, corrupt read) where it did not, so one bad member never fails
        its batch-mates.
        """
        self.auth.validate(token, SCOPE_COMPUTE)
        outcomes: list = [None] * len(task_ids)
        ready: list[tuple[int, TaskRecord]] = []
        for i, task_id in enumerate(task_ids):
            try:
                record = self.task(task_id)
                if not record.status.terminal or record.result_locator is None:
                    raise ResultNotReadyError(f"task {task_id} has no result yet")
            except ReproError as exc:
                outcomes[i] = exc
                continue
            # The result is being collected: retire its poll-fallback entry
            # so a client that was notified over the bus never re-sees it
            # while draining the completed queue in fallback mode.
            self._completed.retire(record.client_id, task_id)
            ready.append((i, record))
        # One pipelined store round for the call's result reads.
        reads = self.store.read_round([record.result_locator for _, record in ready])
        for (i, record), read in zip(ready, reads):
            outcomes[i] = read if isinstance(read, Exception) else (record.status, read)
        return outcomes

    def next_completed_batch(
        self, client_id: str, max_n: int = 32, timeout: float | None = None
    ) -> list[str]:
        """Block until some task of ``client_id`` completes, then drain up
        to ``max_n`` completions in the one wakeup.

        This is the poll half of the delivery hybrid — the fallback path a
        client uses while its bus subscription is lapsed (the push half is
        the ``results/<client_id>`` bus topic).  When the feed is shared
        across shards, one wait covers all of them."""
        return self._completed.next_completed_batch(client_id, max_n, timeout)

    # -- endpoint side -------------------------------------------------------------
    def fetch_tasks(
        self,
        token: Token,
        endpoint_id: str,
        max_tasks: int,
        timeout: float | None,
    ) -> list[TaskDispatch]:
        """Long-poll for work (models the AMQP delivery to the endpoint).

        Draining is weighted round-robin across the endpoint's tenant
        queues, so a tenant flooding the feed gets at most its weight share
        of every delivery round while backlogs compete.

        The long-poll wait is a deadline loop clamped to the remaining
        budget: wakeups for *other* endpoints' queues (every enqueue
        notifies the shared condition) re-enter the wait with whatever
        budget is left instead of consuming — or overshooting — the whole
        timeout on a single un-clamped sleep."""
        self.auth.validate(token, SCOPE_COMPUTE)
        deadline = None if timeout is None else self.clock.now() + timeout
        out: list[TaskDispatch] = []
        expired: list[TaskRecord] = []
        with self._queue_cond:
            self._expire_leases_locked()
            self._endpoint_online[endpoint_id] = True
            # Any healthy endpoint's fetch sweeps work away from gray peers
            # — the breaker analogue of the lazy lease reaper above.
            self._shed_open_breakers_locked()
            if self.health is not None and not self.health.admit(
                endpoint_id, self.clock.now()
            ):
                # Breaker open: nothing for this endpoint this round.  Hold
                # the long poll open so the agent's cadence is unchanged.
                if timeout is not None and timeout > 0:
                    self._queue_cond.wait(self.clock.wall_timeout(timeout))
                return []
            while not self._depth_locked(endpoint_id):
                remaining = None
                if deadline is not None:
                    remaining = deadline - self.clock.now()
                    if remaining <= 0:
                        break
                self._queue_cond.wait(
                    None if remaining is None else self.clock.wall_timeout(remaining)
                )
            while len(out) < max_tasks:
                task_id = self._pop_next_locked(endpoint_id)
                if task_id is None:
                    break
                record = self._tasks[task_id]
                if self.usage is not None:  # its bytes left the queue either way
                    self.usage.task_dispatched(record.tenant, record.args_nbytes)
                if (
                    record.deadline_at is not None
                    and self.clock.now() >= record.deadline_at
                ):
                    # The deadline already passed while the task queued:
                    # fail it here instead of shipping dead work.
                    expired.append(record)
                    continue
                record.status = TaskStatus.DISPATCHED
                record.fetched_at = self.clock.now()
                out.append(
                    TaskDispatch(
                        record.task_id,
                        record.func_id,
                        record.args_locator,
                        record.trace_ctx,
                        record.chaos_key,
                        record.prefetch,
                        record.tenant,
                        record.deadline_at,
                    )
                )
            self._publish_depth_locked(endpoint_id)
        for record in expired:
            counter_inc("resilience.deadline_expired", endpoint=endpoint_id)
            self._fail_task_cloudside(
                record,
                f"DeadlineExceededError: task {record.task_id} missed its "
                f"deadline ({record.deadline_at:.3f}s) while queued",
            )
        # Dispatch fsync point (outside the queue lock: the charge must not
        # serialize other endpoints' fetches): the lease is durable before
        # the endpoint receives the batch, so a crash-rebuilt shard re-leases
        # these tasks instead of losing track of who holds them.
        if self.journal is not None and out:
            self.journal.append(
                "dispatch",
                endpoint_id=endpoint_id,
                task_ids=[d.task_id for d in out],
                at=self.clock.now(),
            )
        return out

    def republish_doorbells(self) -> int:
        """Re-ring the doorbell for every task still queued at this shard.

        Used after a shard outage: doorbells delivered while the admission
        tier was down were acked against empty fetches (the router skipped
        the dark shard), so the queued backlog has no wakeup left.  Returns
        the number of doorbells published."""
        with self._queue_cond:
            queued = [
                (endpoint_id, record)
                for endpoint_id in self._queues
                for record in self._queued_records_locked(endpoint_id)
            ]
            if queued:
                self._queue_cond.notify_all()
        for endpoint_id, record in queued:
            self._ring(task_topic(endpoint_id), record)
        if queued and self._on_enqueue is not None:
            self._on_enqueue()
        return len(queued)

    def requeue_dispatched(self, token: Token, endpoint_id: str) -> list[str]:
        """Re-queue tasks an endpoint fetched but never finished.

        Called when an endpoint restarts after a crash: anything it held in
        DISPATCHED state goes back to the front of its queue, preserving
        the store-and-forward guarantee of §IV-A3 even across endpoint
        process loss (the argument payloads still live in the cloud store).
        Returns the re-queued task ids, oldest first.
        """
        self.auth.validate(token, SCOPE_COMPUTE)
        self.endpoint_site(endpoint_id)
        with self._queue_cond:
            stranded = self._requeue_locked(endpoint_id, None, "faas.requeues")
        return [record.task_id for record in stranded]

    def _fail_task_cloudside(self, record: TaskRecord, message: str) -> bool:
        """Terminally fail a task from inside the cloud (deadline expiry,
        hedge-loser cancellation) with a fabricated failure result.

        Uses the same exactly-once dance as :meth:`report_results`: the
        terminal transition happens under the completed-feed lock, a copy
        that already went terminal wins, and the journal records the
        fabricated result so a crash-rebuilt shard agrees the task is done.
        """
        payload = serialize({"success": False, "error": message, "traceback": None})
        locator = self.store.write(payload, chaos_exempt=True)
        self._journal_results(record.endpoint_id, [(record, False, locator, payload)])
        with self._completed.cond:
            if record.status.terminal:
                return False
            record.result_locator = locator
            record.status = TaskStatus.FAILED
            record.completed_at = self.clock.now()
            self._completed.push_locked(record.client_id, record.task_id)
        if self.usage is not None:
            self.usage.task_finished(record.tenant)
        self._ring(result_topic(record.client_id), record)
        return True

    def cancel_task(self, token: Token, task_id: str) -> bool:
        """Best-effort cancel of a *still-queued* task; True when it was
        dequeued before any endpoint fetched it.

        The hedged-execution loser path: when the first copy of a task
        wins, the client cancels the other leg.  Only WAITING tasks can be
        cancelled — once DISPATCHED the work is already running somewhere
        and the report/duplicate machinery reconciles it instead (that is
        the ``wasted`` hedge outcome).  A cancelled task goes terminal
        through the standard exactly-once transition, so the ledger never
        double-counts a hedged pair."""
        self.auth.validate(token, SCOPE_COMPUTE)
        with self._queue_cond:
            record = self._tasks.get(task_id)
            removed = (
                record is not None
                and record.status is TaskStatus.WAITING
                and self._dequeue_locked(record)
            )
            if removed:
                self._publish_depth_locked(record.endpoint_id)
        if not removed:
            return False
        if self.usage is not None:
            # The queued copy's argument bytes no longer wait in a queue.
            self.usage.task_dispatched(record.tenant, record.args_nbytes)
        counter_inc("resilience.cancels", endpoint=record.endpoint_id)
        self._fail_task_cloudside(
            record,
            f"CancelledError: task {task_id} cancelled while queued "
            "(hedged duplicate lost the race)",
        )
        return True

    def _check_reporter(self, record: TaskRecord, endpoint_id: str) -> bool:
        """Validate a result report; True means "accept", False "drop".

        A second report for an already-terminal task is dropped, not an
        error (a crash-requeued task can legitimately run twice; exactly
        one terminal transition survives).  A report from an endpoint the
        task was failed *away from* is a stale lease.  Anything else
        claiming someone else's task is a protocol violation.
        """
        if record.status.terminal:
            counter_inc("faas.duplicate_results", endpoint=endpoint_id)
            return False
        if record.endpoint_id != endpoint_id:
            if endpoint_id in record.previous_endpoints:
                counter_inc("faas.stale_results", endpoint=endpoint_id)
                raise LeaseExpiredError(
                    f"endpoint {endpoint_id} reported task {record.task_id} "
                    f"after its lease expired; the task now belongs to "
                    f"{record.endpoint_id}"
                )
            raise WorkflowError(
                f"endpoint {endpoint_id} reported a result for task "
                f"{record.task_id} assigned to {record.endpoint_id}"
            )
        return True

    def _journal_results(
        self, endpoint_id: str, results: list[tuple[TaskRecord, bool, str, Payload]]
    ) -> None:
        """Result-uplink fsync point: the outcomes (and their bytes) are
        durable before any terminal transition or client notification.

        ONE append covers every ``(record, success, locator, payload)`` of
        the uplink, and each doc replays individually on recovery.  A crash
        after this append but before the bus publish is the classic
        lost-notification window — replay applies the journaled results and
        re-notifies, and the client's pending-table dedupe makes the
        duplicates harmless.  A duplicate report that loses the terminal
        re-check leaves an extra result doc; replay keeps the first."""
        if self.journal is None:
            return
        at = self.clock.now()
        self.journal.append(
            "result",
            endpoint_id=endpoint_id,
            results=[
                {
                    "task_id": record.task_id,
                    "success": success,
                    "locator": locator,
                    "payload": encode_payload(payload),
                    "exempt": not success,
                    "at": at,
                }
                for record, success, locator, payload in results
            ],
        )

    def _finalize_result(
        self, record: TaskRecord, endpoint_id: str, success: bool, locator: str
    ) -> bool:
        """Apply a journaled result: drop requeued copies, make the terminal
        transition exactly once, and feed health/poison/usage accounting.
        Returns False when a competing copy won the re-check (duplicate
        dropped); the caller publishes the result doorbell on True."""
        task_id = record.task_id
        # A requeued copy of this task may still sit in a queue (report
        # racing a reclaim): drop it so the work is not executed again.
        # Only the task's current owner may do that: once a failover or a
        # breaker shed has re-homed the task, the queued copy *is* the live
        # task and this reporter a stale lease (the re-check below refuses
        # it) — dropping the copy would leave the task WAITING in no queue.
        with self._queue_cond:
            removed = record.endpoint_id == endpoint_id and self._dequeue_locked(
                record
            )
            if removed:
                self._publish_depth_locked(endpoint_id)
        if removed and self.usage is not None:
            # The queued copy's argument bytes no longer wait in a queue.
            self.usage.task_dispatched(record.tenant, record.args_nbytes)
        with self._completed.cond:
            # Re-check: another copy of the task may have completed while
            # this thread was paying the store write.
            if not self._check_reporter(record, endpoint_id):
                return False
            record.result_locator = locator
            record.status = TaskStatus.SUCCESS if success else TaskStatus.FAILED
            record.completed_at = self.clock.now()
            self._completed.push_locked(record.client_id, task_id)
        if self.health is not None:
            # Dispatch→result latency plus the outcome feed the endpoint's
            # health score (the EWMA/consecutive-error breaker inputs).
            started = record.fetched_at or record.submitted_at
            self.health.record_result(
                endpoint_id,
                max(0.0, record.completed_at - started),
                success,
                record.completed_at,
            )
        if self.poison is not None and record.fingerprint is not None:
            if success:
                self.poison.note_success(record.fingerprint)
            else:
                entry = self.poison.note_failure(
                    record.tenant,
                    record.fingerprint,
                    endpoint_id,
                    func_id=record.func_id,
                    task_id=record.task_id,
                    args_locator=record.args_locator,
                    client_id=record.client_id,
                    error=(
                        f"task {task_id} failed terminally on endpoint "
                        f"{endpoint_id}"
                    ),
                    now=record.completed_at,
                )
                if entry is not None:
                    counter_inc("resilience.quarantined", tenant=record.tenant)
                    # Quarantine is durable: a crash-rebuilt shard must keep
                    # refusing the fingerprint, or the poison task resumes
                    # burning retry budget after every recovery.
                    if self.journal is not None:
                        self.journal.append(
                            "deadletter", op="add", entry=entry.to_record()
                        )
        if self.usage is not None:
            self.usage.task_finished(record.tenant)
        return True

    def report_results(
        self,
        token: Token,
        endpoint_id: str,
        results: list[tuple[str, bool, Payload]],
    ) -> list:
        """Uplink one API round trip's results — a drained backlog, or one.

        Pays one auth check and ONE WAL append for the whole call (each
        result doc inside it replays individually) and coalesces the result
        doorbells per destination client.  A payload the sender marked
        borrowed rode this message and skips the redis hop if it is small
        enough; the cloud never decides that itself.  Returns a list
        aligned with ``results``: ``None`` for accepted or
        duplicate-dropped reports, the per-task :class:`ReproError` (e.g.
        :class:`LeaseExpiredError` for a stale lease) otherwise.
        """
        self.auth.validate(token, SCOPE_COMPUTE)
        outcomes: list = [None] * len(results)
        live: list[tuple[int, TaskRecord]] = []  # (index in ``results``, record)
        for i, (task_id, _success, _payload) in enumerate(results):
            try:
                record = self.task(task_id)
                with self._completed.cond:
                    if not self._check_reporter(record, endpoint_id):
                        continue
            except ReproError as exc:
                outcomes[i] = exc
                continue
            live.append((i, record))
        if not live:
            return outcomes
        # One pipelined store round for the call's result writes.
        locators = self.store.write_round(
            [(results[i][2], not results[i][1]) for i, _ in live]
        )
        accepted = [
            (record, results[i][1], locator, results[i][2])
            for (i, record), locator in zip(live, locators)
        ]
        self._journal_results(endpoint_id, accepted)
        notify: dict[str, list[TaskRecord]] = {}
        for (i, _), (record, success, locator, _payload) in zip(live, accepted):
            try:
                if self._finalize_result(record, endpoint_id, success, locator):
                    notify.setdefault(record.client_id, []).append(record)
            except ReproError as exc:
                outcomes[i] = exc
        # One coalesced result doorbell per client (comma-joined ids).
        for client_id in sorted(notify):
            group = notify[client_id]
            self.bus.publish(
                result_topic(client_id),
                ",".join(r.task_id for r in group),
                chaos_key=group[0].chaos_key or group[0].task_id,
            )
        return outcomes

    # -- dead-letter queue ------------------------------------------------------
    def deadletters(self, tenant: str | None = None) -> list:
        """The quarantined entries (all tenants, or one)."""
        if self.poison is None:
            return []
        return self.poison.entries(tenant)

    def _deadletter_release(self, tenant: str, fingerprint: str, counter: str):
        """Take an entry out of quarantine, durably: a crash-rebuilt shard
        must not re-install it.  Returns the entry, or ``None``."""
        if self.poison is None:
            return None
        entry = self.poison.remove(tenant, fingerprint)
        if entry is not None:
            counter_inc(counter, tenant=tenant)
            if self.journal is not None:
                self.journal.append("deadletter", op="drop", entry=entry.to_record())
        return entry

    def deadletter_drop(self, token: Token, tenant: str, fingerprint: str):
        """Discard a quarantined entry for good (operator gave up on it).
        Returns the removed entry, or ``None`` if nothing matched."""
        self.auth.validate(token, SCOPE_COMPUTE)
        return self._deadletter_release(
            tenant, fingerprint, "resilience.deadletter_drops"
        )

    def deadletter_retry(
        self, token: Token, tenant: str, fingerprint: str, endpoint_id: str
    ) -> str | None:
        """Release a quarantine and resubmit the stored task to
        ``endpoint_id`` with a fresh strike slate.  Returns the new task id,
        or ``None`` if nothing matched."""
        self.auth.validate(token, SCOPE_COMPUTE)
        entry = self._deadletter_release(
            tenant, fingerprint, "resilience.deadletter_retries"
        )
        if entry is None:
            return None
        args_payload = self.store.read(entry.args_locator)
        return self.submit(
            token,
            entry.client_id,
            entry.func_id,
            endpoint_id,
            args_payload,
            tenant=tenant,
        )

    # -- durability ------------------------------------------------------------
    @staticmethod
    def task_id_index(task_id: str) -> int:
        """The numeric suffix of a task id (``task-s2-00000042`` -> 42)."""
        return int(task_id.rsplit("-", 1)[-1])

    def journal_state(self) -> dict:
        """A full-state snapshot document for journal compaction.

        Everything replay would otherwise reconstruct from the log:
        registered functions, adopted endpoints, and every task record with
        its argument (and, when terminal, result) payload bytes.  Applied
        by :func:`repro.durable.recover_cloud` before the log suffix.
        """
        with self._lock:
            functions = [
                {
                    "func_id": func_id,
                    "tenant": self._function_tenants.get(func_id, DEFAULT_TENANT),
                    "payload": encode_payload(payload),
                }
                for func_id, payload in sorted(self._functions.items())
            ]
            endpoints = [
                {
                    "endpoint_id": endpoint_id,
                    "site": site.name,
                    "failover_group": self._failover_groups.get(endpoint_id),
                }
                for endpoint_id, site in sorted(self._endpoints.items())
            ]
        tasks = []
        next_id = 0
        with self._queue_cond:
            records = sorted(self._tasks.values(), key=lambda r: r.task_id)
        for record in records:
            next_id = max(next_id, self.task_id_index(record.task_id) + 1)
            doc = {
                "task_id": record.task_id,
                "func_id": record.func_id,
                "endpoint_id": record.endpoint_id,
                "client_id": record.client_id,
                "locator": record.args_locator,
                "status": record.status.value,
                "tenant": record.tenant,
                "chaos_key": record.chaos_key,
                "submitted_at": record.submitted_at,
                "fetched_at": record.fetched_at,
                "completed_at": record.completed_at,
                "requeues": record.requeues,
                "previous_endpoints": list(record.previous_endpoints),
                "deadline_at": record.deadline_at,
                "fingerprint": record.fingerprint,
            }
            args = self.store.raw(record.args_locator)
            if args is not None:
                doc["args"] = encode_payload(args.payload)
            if record.result_locator is not None:
                doc["result_locator"] = record.result_locator
                stored = self.store.raw(record.result_locator)
                if stored is not None:
                    doc["result"] = encode_payload(stored.payload)
                    doc["result_exempt"] = stored.chaos_exempt
            tasks.append(doc)
        return {
            "functions": functions,
            "endpoints": endpoints,
            "tasks": tasks,
            "next_id": next_id,
            # A shared tracker may hold entries owned by sibling shards;
            # replaying them is idempotent (keyed by tenant+fingerprint).
            "deadletters": [
                entry.to_record() for entry in self.deadletters()
            ],
        }
