"""The cloud half of the federated FaaS platform (the FuncX web service).

Responsibilities reproduced from §IV-B and §V-C1:

* **Function registry** — serialized function bodies registered once,
  referenced by id in every invocation.
* **Task queues per endpoint** — store-and-forward: tasks submitted while an
  endpoint is offline wait in its queue; results reported while the client
  is away wait as unacked doorbells on the client's result topic.
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
defaults — a shared :class:`Fabric` (the bus and the one
:class:`EndpointTable`), a locator prefix on the payload store, a
task-id namespace, a serialized per-shard admission slot, and a
:class:`~repro.tenancy.TenantRegistry` that usage events are reported to.
Task queues are per ``(endpoint, tenant)`` and drained weighted-round-robin
so one hot tenant cannot starve the rest of an endpoint's feed.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import threading
import uuid
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from repro.batch.round import Round
from repro.bus import NotificationBus
from repro.chaos.plan import attempt_from_key, chaos_check, chaos_enabled
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
from repro.faas.ledger import (
    Deadletter,
    Dispatch,
    Effects,
    Func,
    Ledger,
    Rehome,
    Result,
    ResultDoc,
    Submit,
    TaskDispatch,
    TaskRecord,
    TaskStatus,
    task_id_index,
)
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
    "Push",
    "EndpointTable",
    "Fabric",
    "FaasCloud",
    "task_topic",
    "result_topic",
]


def task_topic(endpoint_id: str) -> str:
    """Bus topic carrying the tasks pushed to one endpoint."""
    return f"tasks/{endpoint_id}"


def result_topic(client_id: str) -> str:
    """Bus topic carrying result notifications for one client."""
    return f"results/{client_id}"


#: Why :meth:`FaasCloud._place` moved work, in the order the rule weighs it.
_WHY = ("reaped", "open", "struck")
#: The counter a placement bumps: per steered task at admission, per moved
#: task in a sweep (``None``: a fresh reap with nowhere to go, in place).
_STEERED = {
    "reaped": "faas.failovers",
    "open": "resilience.steered",
    "struck": "resilience.poison_steered",
}
_SWEPT = {None: "faas.requeues", "reaped": "faas.failovers", "open": "resilience.sheds"}


@dataclass(frozen=True)
class TaskSubmission:
    """One task inside a batched submit (client → cloud).

    The batch-level call carries the shared tenant and pays the shared
    costs (auth, admission, WAL append, push); everything per-task —
    deadline, chaos key, prefetch hints — rides here so batching never
    erases per-task semantics."""

    func_id: str
    endpoint_id: str
    args_payload: Payload
    trace_ctx: TraceContext | None = None
    chaos_key: str | None = None
    prefetch: tuple = ()
    deadline_at: float | None = None


class Push(NamedTuple):
    """One task envelope: dispatches leased to an endpoint, and the credit
    epoch they were leased under (see :class:`EndpointTable`)."""

    epoch: int
    dispatches: list[TaskDispatch]


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
        # the bare ``<tier>:<id>`` form.  The id is this instance's epoch,
        # drawn once, and a serial: a store rebuilt from a journal adopts
        # the locators its predecessor minted and never mints one again.
        self._prefix = prefix
        self._epoch = uuid.uuid4().hex[:8]
        self._serial = itertools.count()
        self._objects: dict[str, _StoredObject] = {}
        self._lock = threading.Lock()

    def _draw_round(
        self, members: list[tuple[str, int]]
    ) -> tuple[list[float], list[float]]:
        """Draw one round of ``(tier, nbytes)`` store ops: ``(offsets,
        charges)``.

        Every member draws its own latency sample, in member order, so the
        seeded latency stream does not depend on how ops were grouped, and
        lands at its own lone charge: its draw, plus its own bytes over the
        S3 bandwidth for an S3 op (``inline`` members ride the message and
        land at once).  The ops are pipelined (one MSET/MGET, one
        multi-object S3 request), so the round as a whole costs one wait per
        tier -- ``charges``: the slowest redis draw, then the slowest S3 draw
        plus the summed S3 bytes over the bandwidth.  The slowest member
        lands exactly when the round ends, so a round of one lands when a
        lone op always has and no member lands before its lone charge.
        """
        c = self._constants
        landings: list[float] = []
        redis = s3 = None
        s3_bytes = 0
        for tier, nbytes in members:
            if tier == "redis":
                draw = self._network._sample(c.faas_redis_latency)
                redis = max(redis or 0.0, draw)
                landings.append(draw)
            elif tier == "s3":
                draw = self._network._sample(c.faas_s3_latency)
                s3 = max(s3 or 0.0, draw)
                s3_bytes += nbytes
                landings.append(draw + nbytes / c.faas_s3_bandwidth)
            else:
                landings.append(0.0)
        charges = [] if redis is None else [redis]
        if s3 is not None:
            charges.append(s3 + s3_bytes / c.faas_s3_bandwidth)
        if charges:
            slowest = max(range(len(landings)), key=landings.__getitem__)
            landings[slowest] = sum(charges)
        return landings, charges

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

    def write_round(self, members: list[tuple[Payload, bool]]) -> Round:
        """Store one round of ``(payload, chaos_exempt)`` members, drawn now
        (:meth:`_draw_round`): each landing files its members and answers
        their locators.  ``chaos_exempt`` marks payloads whose bytes are
        *not* content-deterministic (failure reports embed task ids and
        tracebacks); fault injection skips them so the fault ledger stays a
        pure function of the plan seed."""
        tiers = [
            self._tier(payload.nominal_size, payload.borrowed) for payload, _ in members
        ]
        offsets, charges = self._draw_round(
            [(tier, payload.nominal_size) for tier, (payload, _) in zip(tiers, members)]
        )

        def land(indexes: list[int]) -> list[str]:
            locators = []
            written: dict[str, int] = {}
            with self._lock:
                for i in indexes:
                    tier, (payload, chaos_exempt) = tiers[i], members[i]
                    written[tier] = written.get(tier, 0) + 1
                    locator = f"{self._prefix}{tier}:{self._epoch}.{next(self._serial):x}"
                    self._objects[locator] = _StoredObject(payload, tier, chaos_exempt)
                    locators.append(locator)
            for tier, n in written.items():
                counter_inc("faas.store_writes", n, tier=tier)
            return locators

        return Round.grouped([None] * len(members), charges, offsets, land)

    def write(self, payload: Payload, *, chaos_exempt: bool = False) -> str:
        """Store one payload: the round of one."""
        return sole(self.write_round([(payload, chaos_exempt)]).wait(self._clock))

    def read_round(self, locators: list[str]) -> Round:
        """Read one round of locators: a settled round whose answer is, per
        member, the payload or the :class:`WorkflowError` (unknown locator,
        injected ``cloud.store.read`` fault) that failed that member alone,
        delivered at that member's own landing (:meth:`_draw_round`).
        Counters and the fault hook fire now, once per member, in member
        order; an unknown locator is never charged for and lands at once.
        An injected fault's delay that outlasts the round is one more
        charge: the round ends when its last member lands."""
        answer: list = [None] * len(locators)
        offsets = [0.0] * len(locators)
        found: list[tuple[int, _StoredObject]] = []
        with self._lock:
            for i, locator in enumerate(locators):
                stored = self._objects.get(locator)
                if stored is None:
                    answer[i] = WorkflowError(f"unknown payload locator {locator!r}")
                else:
                    found.append((i, stored))
        landings, charges = self._draw_round(
            [(stored.tier, stored.payload.nominal_size) for _, stored in found]
        )
        read: dict[str, int] = {}
        for (i, stored), at in zip(found, landings):
            read[stored.tier] = read.get(stored.tier, 0) + 1
            answer[i], offsets[i] = stored.payload, at
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
                offsets[i] += spec.delay
                answer[i] = WorkflowError(
                    f"injected fault {spec.mode!r}: payload store read of "
                    f"{locators[i]!r} returned corrupt data"
                )
        for tier, n in read.items():
            counter_inc("faas.store_reads", n, tier=tier)
        late = max(offsets, default=0.0) - sum(charges)
        if late > 0:
            charges.append(late)
        return Round.settled(answer, charges, offsets)

    def read(self, locator: str) -> Payload:
        """Read one payload: the round of one, its error raised."""
        return sole(self.read_round([locator]).wait(self._clock))

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


class Registration(NamedTuple):
    site: str  # the site's name
    failover_group: str | None


@dataclass
class _Credit:
    """At most ``window`` dispatches pushed and not returned, ``held`` now;
    a reset starts a new ``epoch``, and what an older one returns is void."""

    token: Token
    window: int
    held: int
    epoch: int


class EndpointTable:
    """The fleet's endpoint state, held once: each endpoint's registration,
    heartbeat lease, reap and push credit.  funcX holds these service-wide
    and partitions only the task queues; here every shard of a router reads
    this one table, and a shard crash cannot destroy it, so a rebuilt shard
    sees it as it was.  Nothing in it is journaled.

    Only endpoints that ever heartbeat hold a lease and only attached agents
    grant credit, so direct-API rigs are never reaped or pushed to.
    ``lock`` is a leaf: a shard reads the table holding its ledger lock, and
    the table calls nothing."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self._registrations: dict[str, Registration] = {}
        self._leases: dict[str, float] = {}
        #: Reaped endpoint -> the serial of its reap: its lease lapsed and it
        #: has not heartbeat or fetched since.  A lease given back by a
        #: graceful stop is gone, not lapsed: not here.
        self.reaps: dict[str, int] = {}
        self._credit: dict[str, _Credit] = {}
        self._serial = itertools.count(1)

    def register(self, endpoint_id: str, site: str, failover_group: str | None) -> None:
        with self.lock:
            self._registrations[endpoint_id] = Registration(site, failover_group)

    def registration(self, endpoint_id: str) -> Registration | None:
        return self._registrations.get(endpoint_id)

    def ids(self) -> list[str]:
        """Every registered endpoint, in registration order."""
        with self.lock:
            return list(self._registrations)

    def lease(self, endpoint_id: str) -> float | None:
        """When ``endpoint_id``'s lease expires (nominal s); ``None`` if it
        holds none."""
        return self._leases.get(endpoint_id)

    def renew(self, endpoint_id: str, expiry: float) -> None:
        """Lease ``endpoint_id`` until ``expiry``; it is reaped no longer."""
        with self.lock:
            self._leases[endpoint_id] = expiry
            self.reaps.pop(endpoint_id, None)

    def release(self, endpoint_id: str) -> None:
        with self.lock:
            self._leases.pop(endpoint_id, None)
            self.reaps.pop(endpoint_id, None)
            self._credit.pop(endpoint_id, None)

    def reap(self, now: float) -> list[str]:
        """Drop every lapsed lease, each a new reap; returns the endpoints
        that held them."""
        with self.lock:
            lapsed = [e for e, expiry in self._leases.items() if expiry <= now]
            for endpoint_id in lapsed:
                del self._leases[endpoint_id]
                self.reaps[endpoint_id] = next(self._serial)
            return lapsed

    # -- push credit ----------------------------------------------------------------
    def grant(self, endpoint_id: str, token: Token, window: int) -> None:
        """An agent attached with a credit window of ``window`` dispatches
        (``0`` withdraws it)."""
        with self.lock:
            credit = self._credit.setdefault(
                endpoint_id, _Credit(token, window, 0, next(self._serial))
            )
            credit.token, credit.window = token, window

    def credit(self, endpoint_id: str) -> int:
        """How many dispatches may be pushed to ``endpoint_id`` now (none
        while it is reaped)."""
        credit = self._credit.get(endpoint_id)
        if credit is None or endpoint_id in self.reaps:
            return 0
        return max(0, credit.window - credit.held)

    def reserve(self, endpoint_id: str) -> tuple[Token, int, int] | None:
        """Take all of ``endpoint_id``'s credit for one push: ``(token, n,
        epoch)``, or ``None`` when it has none."""
        with self.lock:
            if not (n := self.credit(endpoint_id)):
                return None
            credit = self._credit[endpoint_id]
            credit.held += n
            return credit.token, n, credit.epoch

    def settle(self, endpoint_id: str, n: int, epoch: int) -> None:
        """``n`` credit of ``epoch`` is free again (void if the epoch has
        been reset since)."""
        with self.lock:
            credit = self._credit.get(endpoint_id)
            if credit is not None and credit.epoch == epoch:
                credit.held -= n

    def reset(self, endpoint_id: str) -> None:
        """Void everything pushed to ``endpoint_id`` so far."""
        with self.lock:
            credit = self._credit.get(endpoint_id)
            if credit is not None:
                credit.held, credit.epoch = 0, next(self._serial)

    def live_peers(self, endpoint_id: str, now: float) -> list[str]:
        """Same-failover-group peers with live leases, sorted (self excluded)."""
        with self.lock:
            me = self._registrations.get(endpoint_id)
            group = None if me is None else me.failover_group
            if group is None:
                return []
            return sorted(
                other_id
                for other_id, other in self._registrations.items()
                if other_id != endpoint_id
                and other.failover_group == group
                and self._leases.get(other_id, now) > now
            )


@dataclass(frozen=True)
class Fabric:
    """What every shard of a fleet shares and no shard crash destroys: the
    bus (task envelopes, result doorbells) and the endpoint table, so
    endpoints and clients subscribe once and an endpoint is registered,
    leased, reaped and credited once, however many shards exist.  ``front`` is the API the fleet's agents
    talk to (a router; ``None``: each cloud is its own), whose
    ``fetch_tasks`` every push leases through."""

    bus: NotificationBus
    endpoints: EndpointTable = field(default_factory=EndpointTable)
    front: object | None = None


def sole(outcomes: list):
    """The only member's outcome of a batch of one, its error raised."""
    (outcome,) = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


class _BatchOfOne:
    """The singular calls of the cloud API, for :class:`FaasCloud` and
    :class:`repro.tenancy.CloudRouter` alike: each is the batched call with
    one member, and raises what that member came back with; and the batched
    calls, each one of the subclass's rounds (``submit_round``,
    ``report_round``, ``download_round``) landed on the calling thread or
    the reactor (:meth:`_land`).  Nothing is admitted, journaled, queued or
    published here."""

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

    def submit_batch(
        self,
        token: Token,
        client_id: str,
        items: list[TaskSubmission],
        *,
        tenant: str = DEFAULT_TENANT,
        then: Callable[[list], object] | None = None,
    ) -> list | None:
        """Admit one API round trip's tasks: the ``submit_round`` of this
        call, landed.  The answer is a list aligned with ``items`` -- a task
        id where admission succeeded, the raising :class:`ReproError` where
        it did not -- and arrives when the slowest argument write lands;
        each member is queued at its own."""
        return self._land(self.submit_round(token, client_id, items, tenant=tenant), then)

    def report_results(
        self,
        token: Token,
        endpoint_id: str,
        results: list[tuple[str, bool, Payload]],
        *,
        then: Callable[[list], object] | None = None,
    ) -> list | None:
        """Uplink one API round trip's results: the ``report_round`` of this
        call, landed.  The answer is aligned with ``results``: ``None`` for
        an accepted or duplicate-dropped report, the per-task
        :class:`ReproError` (e.g. :class:`LeaseExpiredError` for a stale
        lease) otherwise."""
        return self._land(self.report_round(token, endpoint_id, results), then)

    def get_result_payloads(self, token: Token, task_ids: list[str]) -> list:
        """Collect several tasks' results in one API call: the
        ``download_round`` of this call, waited for on the calling thread.
        Returns a list aligned with ``task_ids`` -- ``(status, payload)``
        where the read succeeded, the raising :class:`ReproError` (unknown
        id, no result yet, corrupt read) where it did not."""
        return self.download_round(token, task_ids).wait(self.clock)

    def _land(self, round_: Round, then: Callable[[list], object] | None) -> list | None:
        """The caller waits for the answer, or ``then(answer)`` runs on the
        reactor after the last landing and the call returns at once."""
        return round_.wait(self.clock) if then is None else round_.arm(then)

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


class _EndpointCalls:
    """The endpoint registry's calls and the task push, answered alike by
    :class:`FaasCloud` and :class:`repro.tenancy.CloudRouter` from the
    fabric's one :class:`EndpointTable`."""

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
        self.fabric.endpoints.register(endpoint_id, site.name, failover_group)
        # Pre-create the bus stream so tasks pushed before the agent first
        # connects are retained and replayed on its subscribe.  The chaos
        # label is the (stable) endpoint *name*, not the run-local id.
        self.bus.register_subscriber(
            task_topic(endpoint_id), endpoint_id, chaos_label=name
        )
        return endpoint_id

    def endpoint_site(self, endpoint_id: str) -> Site:
        registration = self.fabric.endpoints.registration(endpoint_id)
        if registration is None:
            raise EndpointUnavailableError(f"unknown endpoint {endpoint_id!r}")
        return self.network.site(registration.site)

    def release_lease(self, token: Token, endpoint_id: str) -> None:
        """Graceful shutdown: surrender the lease (so the stop is not later
        mistaken for a crash) and the credit; what never reached the agent
        is requeued."""
        self.auth.validate(token, SCOPE_COMPUTE)
        self.fabric.endpoints.release(endpoint_id)
        self.requeue_dispatched(token, endpoint_id)

    # -- the task push ------------------------------------------------------------
    def grant_credit(self, token: Token, endpoint_id: str, window: int) -> None:
        """An agent attaches with a credit window of ``window`` dispatches
        and what waits is pushed at once; ``0`` withdraws it (a paused or
        stopping agent)."""
        self.auth.validate(token, SCOPE_COMPUTE)
        self.fabric.endpoints.grant(endpoint_id, token, window)
        self._push(endpoint_id)

    def return_credit(self, token: Token, endpoint_id: str, n: int, epoch: int) -> None:
        """The agent has ``n`` dispatches of credit ``epoch`` in hand: that
        credit is free again, and what waits is pushed."""
        self.auth.validate(token, SCOPE_COMPUTE)
        self.fabric.endpoints.settle(endpoint_id, n, epoch)
        self._push(endpoint_id)

    def _push(self, endpoint_id: str) -> None:
        """When ``endpoint_id`` has credit and work waits, lease the next
        tasks (``fetch_tasks``, journaled before it is visible) and publish
        them on its task topic as one :class:`Push`.  A dequeue that raises
        leaves the tasks waiting for the next push."""
        table = self.fabric.endpoints
        if not self.queue_depth(endpoint_id) or not (grant := table.reserve(endpoint_id)):
            return
        token, n, epoch = grant
        dispatches: list[TaskDispatch] = []
        try:
            dispatches = self.fetch_tasks(token, endpoint_id, n)
        except Exception:  # noqa: BLE001 - the tasks stay WAITING
            counter_inc("faas.push_errors", endpoint=endpoint_id)
        table.settle(endpoint_id, n - len(dispatches), epoch)
        if dispatches:
            first = dispatches[0]
            self.bus.publish(
                task_topic(endpoint_id),
                Push(epoch, dispatches),
                chaos_key=first.chaos_key or first.task_id,
            )

    def requeue_dispatched(self, token: Token, endpoint_id: str) -> list[str]:
        """Re-queue tasks leased to an endpoint that it never finished.

        Called when an endpoint restarts after a crash, and when one stops:
        what was pushed to it is void (:meth:`_void`), and what it held in
        DISPATCHED state, on every shard, goes back to the front of its
        queue (or to a peer, where ``_place`` says so) and is pushed again,
        preserving the store-and-forward guarantee of §IV-A3 even across
        endpoint process loss.  Returns the re-queued task ids, oldest first
        per shard.
        """
        self.auth.validate(token, SCOPE_COMPUTE)
        self.endpoint_site(endpoint_id)
        self._void(endpoint_id)
        moved: list[str] = []
        for shard in self._all_shards():  # each places it alike, from one table
            task_ids, target = shard._requeue_held(endpoint_id)
            moved += task_ids
        if moved:
            self._push(target)
        return moved

    def _void(self, endpoint_id: str) -> None:
        """Take back everything pushed to ``endpoint_id``: reset its credit
        and discard its unacked pushes (the requeue and reap own them)."""
        self.fabric.endpoints.reset(endpoint_id)
        self.bus.discard(task_topic(endpoint_id), endpoint_id)


class FaasCloud(_BatchOfOne, _EndpointCalls):
    """The hosted service: registry, queues, payload store, delivery."""

    def __init__(
        self,
        site: Site,
        network: Network,
        auth: AuthServer,
        constants: PaperConstants | None = None,
        clock: Clock | None = None,
        *,
        fabric: Fabric | None = None,
        usage: object | None = None,
        shard_id: str = "",
        service_time: float = 0.0,
        store_prefix: str = "",
        task_namespace: str = "",
        journal: object | None = None,
        health: object | None = None,
        poison: object | None = None,
    ) -> None:
        """Single-node cloud by default; the keyword block turns one
        instance into a shard behind :class:`repro.tenancy.CloudRouter`:

        ``fabric``
            What the shards share and a shard crash leaves standing: every
            shard pushes tasks and rings completions on the same bus, so
            endpoints and clients subscribe once, and
            reads and writes the same :class:`EndpointTable`, so an endpoint
            is registered, leased, reaped and credited once for the whole
            fleet.
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
            every ledger record is appended — and its I/O cost charged, the
            fsync — *before* :attr:`ledger` applies it, so a crash-discarded
            instance can be rebuilt from snapshot + log replay
            (:func:`repro.durable.recover_cloud`).
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
        #: When the admission slots taken so far are all served (nominal s).
        self._admitting_until = 0.0
        self._horizon_lock = threading.Lock()
        self.store = _PayloadStore(
            self.constants, network, self.clock, prefix=store_prefix
        )
        self.fabric = fabric or Fabric(
            NotificationBus.for_cloud(self.clock, self.constants)
        )
        # Push-notification bus: result notifications to clients, leased
        # tasks to endpoints.  The ledger stays the ground truth.
        self.bus = self.fabric.bus
        #: Whose ``fetch_tasks`` a push leases through (see :class:`Fabric`).
        self._front = self.fabric.front or self
        #: Tasks, queues and ownership — changed only by the records
        #: :meth:`_commit` hands it (see :mod:`repro.faas.ledger`).
        self.ledger = Ledger(
            task_namespace, None if usage is None else usage.weight
        )
        #: Endpoint -> the reap whose fetched work this instance has moved.
        self._moved: dict[str, int] = {}
        self.health = health
        self.poison = poison
        self.journal = journal
        if journal is not None:
            journal.set_snapshot_provider(self.journal_state)

    # -- the live path of every ledger record ----------------------------------
    def _journal(self, record) -> None:
        """The WAL fsync point — the only ``journal.append`` of ledger
        records.  ``rehome`` reaches it holding the ledger lock (WAL order
        is ledger order for ownership); every other kind outside it, so the
        charge never serializes other endpoints' calls."""
        if self.journal is not None and record.journaled:
            self.journal.append(record.kind, **record.to_doc())

    def _apply(self, record, **live) -> Effects:
        """Apply ``record`` and mirror what must stay ordered with the
        ledger — usage deltas and depth gauges — before the lock is
        released."""
        with self.ledger.lock:
            effects = self.ledger.apply(record, **live)
            if self.usage is not None:
                for method, args in effects.usage:
                    getattr(self.usage, method)(*args)
            for endpoint_id, tenants in effects.depths.items():
                gauge_set(
                    "faas.queue_depth",
                    sum(depth for _, depth in tenants),
                    endpoint=endpoint_id,
                )
                for tenant, depth in tenants:
                    gauge_set(
                        "cloud.tenant_queue_depth",
                        depth,
                        tenant=tenant,
                        endpoint=endpoint_id,
                        shard=self._shard_label,
                    )
        return effects

    def _ring(self, topic: str, tasks: list[TaskRecord]) -> None:
        """One doorbell for ``tasks``: the payload is the comma-joined ids."""
        self.bus.publish(
            topic,
            ",".join([task.task_id for task in tasks]),
            chaos_key=tasks[0].chaos_key or tasks[0].task_id,
        )

    def _announce(self, effects: Effects) -> None:
        """Ring the result doorbells of applied effects, coalesced per
        client — always *after* the apply, so a subscriber that acts on one
        finds the ledger changed."""
        by_client: dict[str, list[TaskRecord]] = {}
        for task in effects.completions:
            by_client.setdefault(task.client_id, []).append(task)
        for client_id in sorted(by_client):
            self._ring(result_topic(client_id), by_client[client_id])

    def _commit(self, record) -> Effects:
        """WAL first, then the one transition function, then its effects."""
        self._journal(record)
        effects = self._apply(record)
        self._announce(effects)
        return effects

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
        self._commit(Func(func_id, tenant, payload))

    def _function(self, func_id: str, tenant: str) -> Payload:
        func = self.ledger.functions.get(func_id)
        if func is None or func.tenant != tenant:
            raise WorkflowError(f"unknown function {func_id!r}")
        return func.payload

    def get_function(
        self, token: Token, func_id: str, tenant: str = DEFAULT_TENANT
    ) -> Payload:
        """Fetch a function body.  Only :data:`SCOPE_COMPUTE` is required —
        endpoints execute for every tenant, so their tokens carry no tenant
        scopes — but the function must be visible to ``tenant``."""
        self.auth.validate(token, SCOPE_COMPUTE)
        return self._function(func_id, tenant)

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
        self.fabric.endpoints.renew(endpoint_id, expiry)
        # The failover sweep rides every heartbeat: an idle endpoint calls
        # nothing else, so a peer's heartbeat is what reaps a dead member,
        # sheds a gray one and drains a reaped one's queue.
        self.expire_leases()
        if self.health is not None:
            # Heartbeat jitter is a gray-failure signal: a degraded agent
            # beats late long before it stops beating entirely.
            self.health.record_heartbeat(
                endpoint_id,
                self.clock.now(),
                self.constants.endpoint_heartbeat_period,
            )
        counter_inc("faas.heartbeats", endpoint=endpoint_id)
        # The beat is a push too: an endpoint back from a reap, a half-open
        # breaker's probe, work a raising dequeue left behind.
        self._front._push(endpoint_id)
        return expiry

    def _place(
        self, endpoint_id: str, now: float, strikes: tuple[str, ...] = ()
    ) -> tuple[str, str | None]:
        """The one placement rule: where work for ``endpoint_id`` goes, as
        ``(target, why)``.

        The candidates are the endpoint and its live failover-group peers,
        sorted.  Each ranks by ``(reaped, breaker open, in ``strikes`` -- the
        endpoints that voted against the task's fingerprint)`` and the
        lowest wins, the endpoint itself on a tie.
        So a reaped endpoint's work goes to a live peer, an open breaker's
        to a healthy one, and a struck fingerprint to a peer that has not
        voted, never back onto a voter while an untried eligible peer
        exists.  Everything else stays: never-leased rigs, gracefully
        stopped endpoints, a group that is down as a whole.  ``why`` is the
        first of :data:`_WHY` the move fixes (``None`` when the work
        stays).  A live, closed, unstruck endpoint never looks at a peer.

        The sweeps hold the ledger lock across placing and moving.
        Admission does not: a member reaped between its placement and its
        commit leaves a queue the next sweep drains."""
        table, health = self.fabric.endpoints, self.health

        def rank(candidate: str) -> tuple[bool, bool, bool]:
            return (
                candidate in table.reaps,
                health is not None and health.evaluate(candidate, now) == BREAKER_OPEN,
                candidate in strikes,
            )

        target, here = endpoint_id, rank(endpoint_id)
        best = here
        if any(here):
            for peer in table.live_peers(endpoint_id, now):
                if (score := rank(peer)) < best:
                    target, best = peer, score
                    if not any(best):
                        break
        if target == endpoint_id:
            return endpoint_id, None
        return target, next(why for why, b, h in zip(_WHY, best, here) if b < h)

    def expire_leases(self) -> list[str]:
        """The failover sweep, run by every submit, fetch and heartbeat (no
        reaper thread); returns the endpoints whose lease it reaped.  The
        fleet's table reaps each lapse once, and the reaping sweep voids
        what was pushed to the endpoint; this instance then moves its own
        share of each endpoint's work where :meth:`_place` puts it, as one
        ``rehome``, and pushes it there.  The first sweep to see a reap
        moves the leased work too (in place when no peer is live), a later
        one only a queue.
        """
        now = self.clock.now()
        ledger, table = self.ledger, self.fabric.endpoints
        moved_to: list[str] = []
        with ledger.lock:
            reaped = table.reap(now)
            for endpoint_id in reaped:
                self._void(endpoint_id)
            for source in table.ids():
                target, why = self._place(source, now)
                reap = table.reaps.get(source)
                fresh = reap is not None and self._moved.get(source) != reap
                if fresh:
                    self._moved[source] = reap
                # An earlier reap moves only a queue: a depth is O(1), a walk
                # for leased work is O(tasks).
                if why == "open" or fresh or (why and ledger.depth(source)):
                    if self._requeue(source, target, _SWEPT[why]):
                        moved_to.append(target)
        for endpoint_id in reaped:
            counter_inc("faas.lease_expiries", endpoint=endpoint_id)
        for endpoint_id in moved_to:
            self._front._push(endpoint_id)
        return reaped

    def _requeue(self, source: str, target: str | None, counter: str) -> list[str]:
        """Return what ``source`` holds to ``WAITING`` at ``target`` (``None``:
        in place) as ONE :class:`~repro.faas.ledger.Rehome` record; returns
        the moved task ids, counted under ``counter``.

        A re-home changes who may report the task, so it is journaled — its
        fsync paid under the ledger lock, before the move is visible.  The
        no-fault sweep that runs on every submit, fetch and heartbeat holds
        nothing and commits nothing.  The caller pushes the moved work once
        the ledger lock is released."""
        target = target or source
        with self.ledger.lock:
            record = Rehome(
                source,
                target,
                self.ledger.held_by(source, target != source),
                self.clock.now(),
            )
            if not record.task_ids:
                return []
            self._commit(record)
        labels = (
            {"from_endpoint": source, "to_endpoint": target}
            if target != source
            else {"endpoint": source}
        )
        counter_inc(counter, len(record.task_ids), shard=self._shard_label, **labels)
        return record.task_ids

    def queue_depth(self, endpoint_id: str) -> int:
        """Tasks waiting in this cloud's queues for ``endpoint_id``, summed
        over tenants — the cloud half of the autoscaler's demand signal."""
        return self.ledger.depth(endpoint_id)

    def tenant_backlog(self, endpoint_id: str) -> dict[str, int]:
        """Per-tenant waiting-task counts for ``endpoint_id`` (backlogged
        tenants only)."""
        with self.ledger.lock:
            queues = self.ledger.queues.get(endpoint_id, {})
            return {tenant: len(q) for tenant, q in queues.items() if q}

    # -- client side ------------------------------------------------------------
    def _admit_round(
        self, client_id: str, items: list[TaskSubmission], tenant: str
    ) -> tuple[list, list[tuple[int, TaskSubmission, str, str]]]:
        """The per-task admission checks of one submit round: function and
        endpoint known, deadline, poison quarantine, placement
        (:meth:`_place`), fault injection, and the payload cap.

        What is the same for every member is decided once per round: each
        distinct endpoint and function is looked up once, the poison
        tracker is read once, and each endpoint is placed once -- except for
        a member whose fingerprint has strikes, which is placed on its own.
        The steering counters still count every member.  Returns the
        outcomes aligned with ``items`` (the refusing :class:`ReproError`, or
        ``None``) and the admitted members as ``(index, item, placed
        endpoint id, content fingerprint)``."""
        now = self.clock.now()
        unknown_endpoints: dict[str, ReproError] = {}
        for endpoint_id in {item.endpoint_id for item in items}:
            try:
                self.endpoint_site(endpoint_id)
            except ReproError as exc:
                unknown_endpoints[endpoint_id] = exc
        unknown_functions: dict[str, ReproError] = {}
        for func_id in {item.func_id for item in items}:
            try:
                self._function(func_id, tenant)
            except ReproError as exc:
                unknown_functions[func_id] = exc
        # Content fingerprint for poison accounting: the chaos-key base is
        # already a digest of the argument bytes; derive one otherwise.
        fingerprints = [
            f"{item.func_id}:"
            + (
                (item.chaos_key or "").partition("#")[0]
                or hashlib.sha256(item.args_payload.data).hexdigest()[:16]
            )
            for item in items
        ]
        quarantined, struck = (set(), {})
        if self.poison is not None:
            quarantined, struck = self.poison.screen(tenant, fingerprints)
        chaos = chaos_enabled()
        cap = self.constants.faas_payload_cap
        placed: dict[str, tuple[str, str | None]] = {}
        results: list = [None] * len(items)
        admitted: list[tuple[int, TaskSubmission, str, str]] = []
        for i, (item, fingerprint) in enumerate(zip(items, fingerprints)):
            endpoint_id, size = item.endpoint_id, item.args_payload.nominal_size
            refusal = unknown_endpoints.get(endpoint_id) or unknown_functions.get(
                item.func_id
            )
            if refusal is not None:
                results[i] = refusal
                continue
            if item.deadline_at is not None and item.deadline_at <= now:
                results[i] = DeadlineExceededError(
                    f"task submitted after its own deadline ({item.deadline_at:.3f}s)"
                )
                continue
            if fingerprint in quarantined:
                counter_inc("resilience.quarantine_refusals", tenant=tenant)
                results[i] = TaskQuarantinedError(
                    f"fingerprint {fingerprint} is quarantined in tenant "
                    f"{tenant!r}'s dead-letter queue (it failed on "
                    f"{self.poison.policy.quorum} distinct endpoints); "
                    "`repro.cli deadletter retry|drop` releases it",
                    fingerprint=fingerprint,
                )
                continue
            strikes = struck.get(fingerprint)
            if strikes:
                target, why = self._place(endpoint_id, now, strikes)
            else:
                target, why = placed.get(endpoint_id) or placed.setdefault(
                    endpoint_id, self._place(endpoint_id, now)
                )
            if why is not None:
                counter_inc(_STEERED[why], from_endpoint=endpoint_id, to_endpoint=target)
            spec = None
            if chaos:
                spec = chaos_check(
                    "cloud.submit",
                    item.chaos_key or f"{client_id}|{item.func_id}",
                    attempt=attempt_from_key(item.chaos_key),
                    size=size,
                )
            if spec is not None or size > cap:
                reason = (
                    f"injected fault {spec.mode!r}: service rejected the payload"
                    if spec is not None
                    else "pass large data by reference instead"
                )
                results[i] = PayloadTooLargeError(
                    f"arguments are {size} bytes; the service caps payloads at "
                    f"{cap} ({reason})"
                )
                continue
            admitted.append((i, item, target, fingerprint))
        return results, admitted

    def submit_round(
        self,
        token: Token,
        client_id: str,
        items: list[TaskSubmission],
        *,
        tenant: str = DEFAULT_TENANT,
    ) -> Round:
        """One API round trip's admission -- a coalesced batch, or one --
        as a :class:`Round` (:meth:`submit_batch` lands it).

        The call pays the shared costs once — one auth/tenant check, one
        admission slot, one pipelined store round — and the per-task checks
        (:meth:`_admit_round`) run now, each decided once for what the
        members share; a refused member is settled now.  Each member is
        queued when its own argument write lands, after the admission slot:
        the members that land together commit as one ``submit`` record --
        WAL append, queue, then a push to each destination endpoint -- so
        no task waits for a slower batch-mate.  A payload the sender
        borrowed rode this message (``inline`` if small enough).  The answer
        is a task id where admission succeeded, the raising
        :class:`ReproError` where it did not, so the client can split
        rejects back into singles.
        """
        self.auth.validate(token, SCOPE_COMPUTE)
        validate_tenant_name(tenant)
        if tenant != DEFAULT_TENANT:
            self.auth.validate(token, tenant_scope(tenant))
        self.expire_leases()
        results, admitted = self._admit_round(client_id, items, tenant)
        if not admitted:
            return Round.settled(results)
        charges: list[float] = []
        slot = 0.0
        if self._service_time > 0.0:
            # The shard's control plane admits one call at a time: this
            # serialized slot is the finite capacity that makes aggregate
            # admission throughput scale with the shard count, and a batch
            # takes one — the amortization that lifts sustained tasks/sec.
            # Rounds queue behind a busy-until horizon rather than a lock,
            # so a round waiting on a reactor timer holds its place without
            # holding a thread.
            now = self.clock.now()
            with self._horizon_lock:
                self._admitting_until = (
                    max(now, self._admitting_until) + self._service_time
                )
                slot = self._admitting_until - now
            charges.append(slot)
        # One pipelined store round for the call's argument writes.
        writes = self.store.write_round(
            [(item.args_payload, False) for _i, item, _endpoint, _fp in admitted]
        )
        charges += writes.charges
        counter_inc("cloud.batch_submits", tenant=tenant, shard=self._shard_label)

        def commit(members: list[int], land) -> list[str]:
            locators = land()
            task_ids = self.ledger.next_task_ids(len(members))
            submitted_at = self.clock.now()
            tasks = []
            for j, args_locator, task_id in zip(members, locators, task_ids):
                _i, item, endpoint_id, fingerprint = admitted[j]
                tasks.append(
                    TaskRecord(
                        task_id=task_id,
                        func_id=item.func_id,
                        endpoint_id=endpoint_id,
                        client_id=client_id,
                        args_locator=args_locator,
                        submitted_at=submitted_at,
                        trace_ctx=item.trace_ctx,
                        chaos_key=item.chaos_key,
                        prefetch=tuple(item.prefetch),
                        tenant=tenant,
                        args_nbytes=item.args_payload.nominal_size,
                        deadline_at=item.deadline_at,
                        fingerprint=fingerprint,
                    )
                )
            # ONE record makes the group's admission (task identities +
            # argument bytes + locators) durable before any of its tasks
            # becomes visible in a queue; a crash between its append and its
            # apply leaves journaled-but-never-queued tasks, which replay
            # admits exactly once.
            effects = self._commit(
                Submit(tasks, [admitted[j][1].args_payload for j in members])
            )
            counter_inc("cloud.submits", len(tasks), tenant=tenant, shard=self._shard_label)
            for endpoint_id, _queued in effects.queued:
                self._front._push(endpoint_id)
            return [task.task_id for task in tasks]

        landings = []
        for at, group, land in writes.landings:
            queue_group = functools.partial(commit, group, land)
            landings.append((slot + at, [admitted[j][0] for j in group], queue_group))
        return Round(results, charges, landings)

    def task(self, task_id: str) -> TaskRecord:
        try:
            return self.ledger.tasks[task_id]
        except KeyError:
            raise WorkflowError(f"unknown task {task_id!r}") from None

    def task_records(self) -> list[TaskRecord]:
        """Every task record the cloud has seen (audit/invariant checks)."""
        with self.ledger.lock:
            return list(self.ledger.tasks.values())

    def download_round(self, token: Token, task_ids: list[str]) -> Round:
        """Collect the results of several tasks in one API call: a settled
        :class:`Round` -- the reads are decided now and each member is
        delivered at its own read landing.

        One auth check covers the call; everything else is per task — the
        store read (tier charge, ``cloud.store.read`` fault hook) and the
        outcome.  The answer is aligned with ``task_ids``, shaped like
        :meth:`submit_batch`'s: ``(status, payload)`` where the read
        succeeded, the raising :class:`ReproError` (unknown id, no result
        yet, corrupt read) where it did not, so one bad member never fails
        its batch-mates.
        """
        self.auth.validate(token, SCOPE_COMPUTE)
        outcomes: list = [None] * len(task_ids)
        ready: list[tuple[int, TaskRecord]] = []
        tasks = self.ledger.tasks
        for i, task_id in enumerate(task_ids):
            record = tasks.get(task_id)
            if record is None:
                outcomes[i] = WorkflowError(f"unknown task {task_id!r}")
            elif not record.status.terminal or record.result_locator is None:
                outcomes[i] = ResultNotReadyError(f"task {task_id} has no result yet")
            else:
                ready.append((i, record))
        # One pipelined store round for the call's result reads.
        reads = self.store.read_round([record.result_locator for _, record in ready])
        offsets = [0.0] * len(task_ids)
        for (i, record), read, at in zip(ready, reads.answer, reads.offsets()):
            outcomes[i] = read if isinstance(read, Exception) else (record.status, read)
            offsets[i] = at
        return Round.settled(outcomes, reads.charges, offsets)

    # -- endpoint side -------------------------------------------------------------
    def fetch_tasks(
        self, token: Token, endpoint_id: str, max_tasks: int
    ) -> list[TaskDispatch]:
        """Lease up to ``max_tasks`` of what waits in the endpoint's queue;
        empty when nothing does.  Never blocks.  This is the dequeue every
        push (:meth:`_push`) runs; an attached agent never calls it.

        Draining is weighted round-robin across the endpoint's tenant
        queues, so a tenant flooding the feed gets at most its weight share
        of every delivery round while backlogs compete.  A reaped endpoint
        gets nothing until it heartbeats again: only a heartbeat renews a
        lease."""
        self.auth.validate(token, SCOPE_COMPUTE)
        self.expire_leases()
        ledger = self.ledger
        with ledger.lock:
            if endpoint_id in self.fabric.endpoints.reaps:
                return []
            if self.health is not None and not self.health.admit(
                endpoint_id, self.clock.now()
            ):
                return []  # breaker open: nothing for this endpoint this round
            record = Dispatch(endpoint_id, self.clock.now())
            effects = self._apply(record, limit=max_tasks)
        for task in effects.expired.values():
            # The deadline passed while the task queued: fail it here
            # instead of shipping dead work.
            if self._fail_queued(
                task,
                f"DeadlineExceededError: task {task.task_id} missed its "
                f"deadline ({task.deadline_at:.3f}s) while queued",
            ):
                counter_inc("resilience.deadline_expired", endpoint=endpoint_id)
        # Dispatch fsync point (outside the ledger lock: the charge must not
        # serialize other endpoints' fetches): the lease is durable before
        # the push publishes it, so a crash-rebuilt shard re-leases these
        # tasks instead of losing track of who holds them.
        self._journal(record)
        return [task.dispatch() for task in effects.tasks]

    def _all_shards(self) -> list["FaasCloud"]:
        return [self]

    def _requeue_held(self, endpoint_id: str) -> tuple[list[str], str]:
        """Move what ``endpoint_id`` holds here where :meth:`_place` puts
        it, in place when it stays; returns the moved ids and where."""
        with self.ledger.lock:
            target, why = self._place(endpoint_id, self.clock.now())
            return self._requeue(endpoint_id, target, _SWEPT[why]), target

    def _fail_queued(self, task: TaskRecord, message: str) -> bool:
        """Terminally fail a still-queued task from inside the cloud
        (deadline expiry, hedge-loser cancellation) with a fabricated
        failure result — an ordinary ``result`` record on its owner's
        behalf whose precondition, "still WAITING in its owner's queue",
        the ledger checks in the same step that dequeues it.  Journaled
        once accepted (see :meth:`Ledger.apply_result`).  False when the
        task got away first."""
        payload = serialize({"success": False, "error": message, "traceback": None})
        locator = self.store.write(payload, chaos_exempt=True)
        doc = ResultDoc(task.task_id, False, locator, payload, self.clock.now())
        with self.ledger.lock:  # whoever owns it *now* is the one it fails for
            record = Result(task.endpoint_id, [doc])
            effects = self._apply(record, queued_only=True)
        if effects.verdicts[0] is not None:
            return False
        self._journal(record)
        self._announce(effects)
        return True

    def cancel_task(self, token: Token, task_id: str) -> bool:
        """Best-effort cancel of a *still-queued* task; True when it was
        failed before any endpoint fetched it.

        The hedged-execution loser path: when the first copy of a task
        wins, the client cancels the other leg.  Only WAITING tasks can be
        cancelled — once DISPATCHED the work is already running somewhere
        and the report/duplicate machinery reconciles it instead (that is
        the ``wasted`` hedge outcome).  A cancelled task goes terminal
        through the one terminal transition, so the ledger never
        double-counts a hedged pair."""
        self.auth.validate(token, SCOPE_COMPUTE)
        task = self.ledger.tasks.get(task_id)
        # Preview, so a hopeless cancel pays no store write and no fsync.
        if task is None or task.status is not TaskStatus.WAITING:
            return False
        cancelled = self._fail_queued(
            task,
            f"CancelledError: task {task_id} cancelled while queued "
            "(hedged duplicate lost the race)",
        )
        if cancelled:
            counter_inc("resilience.cancels", endpoint=task.endpoint_id)
        return cancelled

    def _refusal(self, verdict: str, task_id: str, endpoint_id: str):
        """Count a refused report; its per-task outcome: ``None`` for a
        dropped duplicate, the :class:`ReproError` otherwise."""
        if verdict == "unknown":
            return WorkflowError(f"unknown task {task_id!r}")
        if verdict == "duplicate":
            counter_inc("faas.duplicate_results", endpoint=endpoint_id)
            return None
        owner = self.ledger.tasks[task_id].endpoint_id
        if verdict == "stale":
            counter_inc("faas.stale_results", endpoint=endpoint_id)
            return LeaseExpiredError(
                f"endpoint {endpoint_id} reported task {task_id} after its "
                f"lease expired; the task now belongs to {owner}"
            )
        return WorkflowError(
            f"endpoint {endpoint_id} reported a result for task {task_id} "
            f"assigned to {owner}"
        )

    def _score_results(self, tasks: list[TaskRecord], endpoint_id: str) -> None:
        """Feed one report round's accepted results into health and poison
        accounting, in member order: one call into each tracker for the
        round, plus its own call for a failure's strike."""
        if self.health is not None and tasks:
            # Dispatch→result latency plus the outcome feed the endpoint's
            # health score (the EWMA/consecutive-error breaker inputs).
            self.health.record_results(
                endpoint_id,
                [
                    (
                        task.completed_at - (task.fetched_at or task.submitted_at),
                        task.status is TaskStatus.SUCCESS,
                        task.completed_at,
                    )
                    for task in tasks
                ],
            )
        if self.poison is None:
            return
        cleared: list[str] = []
        for task in tasks:
            if task.fingerprint is None:
                continue
            if task.status is TaskStatus.SUCCESS:
                cleared.append(task.fingerprint)
                continue
            # The successes before a failure clear their strikes first.
            if cleared:
                self.poison.note_successes(cleared)
                cleared = []
            entry = self.poison.note_failure(
                task.tenant,
                task.fingerprint,
                endpoint_id,
                func_id=task.func_id,
                task_id=task.task_id,
                args_locator=task.args_locator,
                client_id=task.client_id,
                error=f"task {task.task_id} failed terminally on endpoint {endpoint_id}",
                now=task.completed_at,
            )
            if entry is not None:
                counter_inc("resilience.quarantined", tenant=task.tenant)
                # Quarantine is durable: a crash-rebuilt shard must keep
                # refusing the fingerprint, or the poison task resumes
                # burning retry budget after every recovery.
                self._commit(Deadletter("add", entry.to_record()))
        if cleared:
            self.poison.note_successes(cleared)

    def report_round(
        self,
        token: Token,
        endpoint_id: str,
        results: list[tuple[str, bool, Payload]],
    ) -> Round:
        """Uplink one API round trip's results — a drained backlog, or one —
        as a :class:`Round` with one landing, when the round's result writes
        have all landed (:meth:`report_results` lands it).

        Pays one auth check and ONE WAL append for the whole call (each
        result doc inside it replays individually) and coalesces the result
        doorbells per destination client.  A payload the sender borrowed
        rode this message (``inline`` if small enough).  The answer is
        ``None`` for accepted or duplicate-dropped reports, the per-task
        :class:`ReproError` (e.g. :class:`LeaseExpiredError` for a stale
        lease) otherwise.
        """
        self.auth.validate(token, SCOPE_COMPUTE)
        outcomes: list = [None] * len(results)
        ledger = self.ledger
        # Preview, so a report the ledger would refuse pays no store write.
        live = []
        for i, (task_id, _success, _payload) in enumerate(results):
            verdict = ledger.report_verdict(ledger.tasks.get(task_id), endpoint_id)
            if verdict is None:
                live.append(i)
            else:
                outcomes[i] = self._refusal(verdict, task_id, endpoint_id)
        if not live:
            return Round.settled(outcomes)
        # One pipelined store round for the call's result writes, filed
        # together when the slowest has landed.
        writes = self.store.write_round(
            [(results[i][2], not results[i][1]) for i in live]
        )

        def commit() -> list:
            locators = [None] * len(live)
            for _at, members, land in writes.landings:
                for j, locator in zip(members, land()):
                    locators[j] = locator
            at = self.clock.now()
            record = Result(
                endpoint_id,
                [
                    ResultDoc(results[i][0], results[i][1], locator, results[i][2], at)
                    for i, locator in zip(live, locators)
                ],
            )
            # Result-uplink fsync point: the outcomes (and their bytes) are
            # durable before any terminal transition or client notification.
            # A crash after the append but before the bus publish is the
            # classic lost-notification window — replay applies the journaled
            # results and re-notifies; the client's pending-table dedupe makes
            # the duplicates harmless.
            self._journal(record)
            effects = self._apply(record)
            # The verdict is taken again under the lock: another copy may
            # have completed, or the task been re-homed, while the round paid
            # the store write and the fsync.
            for i, verdict in zip(live, effects.verdicts):
                if verdict is not None:
                    outcomes[i] = self._refusal(verdict, results[i][0], endpoint_id)
            self._score_results(effects.completions, endpoint_id)
            self._announce(effects)
            return [outcomes[i] for i in live]

        return Round(outcomes, writes.charges, [(sum(writes.charges), live, commit)])

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
            self._commit(Deadletter("drop", entry.to_record()))
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
    task_id_index = staticmethod(task_id_index)

    def journal_state(self) -> dict:
        """A full-state snapshot document for journal compaction: the
        ledger's functions, quarantine verdicts and every task, plus the
        stored argument and result bytes those tasks point at.
        :func:`repro.durable.recover_cloud` applies it before the log suffix.
        """
        ledger = self.ledger
        with ledger.lock:  # payload bytes are encoded outside
            functions = [ledger.functions[k] for k in sorted(ledger.functions)]
            deadletters = [ledger.deadletters[k] for k in sorted(ledger.deadletters)]
            tasks = [ledger.tasks[k].to_doc() for k in sorted(ledger.tasks)]
        payloads = []
        for doc in tasks:
            for locator in (doc["args_locator"], doc.get("result_locator")):
                stored = locator and self.store.raw(locator)
                if stored:
                    payloads.append(
                        {
                            "locator": locator,
                            "payload": encode_payload(stored.payload),
                            "exempt": stored.chaos_exempt,
                        }
                    )
        return {
            "functions": [func.to_doc() for func in functions],
            "deadletters": deadletters,
            "tasks": tasks,
            "payloads": payloads,
        }
