"""The front door of the sharded control plane.

:class:`CloudRouter` speaks the same API as
:class:`repro.faas.cloud.FaasCloud`, so existing clients and endpoints work
against it unchanged, but behind it state is partitioned across N
:class:`~repro.tenancy.shard.CloudShard` services by consistent hashing
over ``(tenant, function)`` — the Function-Delivery-Network shape: one
submit touches exactly one shard (registry check, payload write, queue
append all live together), and aggregate admission throughput scales with
the shard count because each shard's serialized admission cost is paid
independently.

The router is also where multi-tenancy is *enforced*:

* every submit passes the tenant's token-bucket rate limit and quotas
  (:meth:`TenantRegistry.admit_batch`) before touching a shard, raising
  HTTP-429-shaped retryable :class:`~repro.exceptions.ThrottledError`
  subclasses the client SDK backs off on;
* the ``cloud.shard.drop`` chaos hook fires here — at admission, on the
  content-derived submit key — opening a bounded outage window during
  which that shard's partitions throttle while its durable state
  (queues, payload store, task records) survives untouched.

Routing back is prefix-based, no lookup tables: shard ``s2`` mints task
ids ``task-s2-...`` and payload locators ``s2/redis:...``, so any id
resolves to its owner by parsing alone.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
import uuid
from typing import TYPE_CHECKING

from repro.bus import NotificationBus
from repro.chaos.plan import chaos_check
from repro.chaos.policy import RetryPolicy
from repro.exceptions import ReproError, ShardUnavailableError, WorkflowError
from repro.faas.auth import SCOPE_COMPUTE, AuthServer, Token
from repro.faas.cloud import (
    TaskDispatch,
    TaskRecord,
    TaskSubmission,
    _BatchOfOne,
    _CompletedFeed,
    task_topic,
)
from repro.net.clock import Clock, get_clock
from repro.net.defaults import ROUTER_FETCH_POLL, PaperConstants
from repro.net.topology import Network, Site
from repro.observe import counter_inc
from repro.serialize import Payload
from repro.tenancy.hashring import HashRing, partition_key
from repro.tenancy.shard import CloudShard
from repro.tenancy.tenant import (
    DEFAULT_TENANT,
    Tenant,
    TenantQuota,
    TenantRegistry,
    tenant_scope,
    validate_function_name,
    validate_tenant_name,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.durable import RecoveryReport

__all__ = ["CloudRouter"]

#: Nominal seconds between re-polls of the shard set while a fetch
#: long-poll waits for work (a doorbell via ``_wake`` cuts this short).
#: Named in ``repro.net.defaults`` alongside the client-loop intervals.
_FETCH_POLL = ROUTER_FETCH_POLL


class _RoutedStore:
    """Locator-prefix routing facade over the shards' payload stores.

    Endpoints read argument payloads through ``cloud.store`` directly; with
    shards, the locator's ``<shard>/`` prefix says which store owns the
    bytes.  Writes happen inside shard code paths only, never through the
    facade."""

    def __init__(self, router: "CloudRouter") -> None:
        self._router = router

    def _shard_store(self, locator: str):
        shard_id, sep, _ = locator.partition("/")
        if not sep:
            raise WorkflowError(
                f"locator {locator!r} carries no shard prefix; it was not "
                "minted by this router"
            )
        return self._router.shard(shard_id).store

    def read(self, locator: str) -> Payload:
        return self._shard_store(locator).read(locator)

    def delete(self, locator: str) -> None:
        self._shard_store(locator).delete(locator)

    def write(self, payload: Payload, *, chaos_exempt: bool = False) -> str:
        raise WorkflowError(
            "the routed store is read-only; payloads are written by the "
            "owning shard during submit/report"
        )


class CloudRouter(_BatchOfOne):
    """N shards behind one ``FaasCloud``-shaped API."""

    def __init__(
        self,
        site: Site,
        network: Network,
        auth: AuthServer,
        constants: PaperConstants | None = None,
        clock: Clock | None = None,
        *,
        n_shards: int = 2,
        registry: TenantRegistry | None = None,
        journal_factory: object | None = None,
        health_policy: object | None = None,
        poison_policy: object | None = None,
    ) -> None:
        """``journal_factory`` (shard_id -> :class:`repro.durable.Journal`)
        gives every shard a write-ahead journal; with one attached,
        :meth:`crash_shard` can discard a shard's entire in-memory state and
        rebuild it from snapshot + log replay with zero lost tasks.

        ``health_policy`` / ``poison_policy`` (a
        :class:`repro.resilience.HealthPolicy` /
        :class:`repro.resilience.PoisonPolicy`) turn on circuit breaking and
        poison-task quarantine: the router builds ONE tracker per kind and
        hands it to every shard, so health signals and poison strikes
        accumulate fleet-wide no matter which shard observes them."""
        if n_shards < 1:
            raise WorkflowError(f"n_shards must be >= 1, got {n_shards}")
        self.site = site
        self.network = network
        self.auth = auth
        self.constants = constants or PaperConstants()
        self.clock = clock or get_clock()
        self.registry = registry if registry is not None else TenantRegistry(self.clock)
        # One delivery fabric for every shard: a single bus (doorbells,
        # result notifications) and a single completed feed (client polls).
        self.bus = NotificationBus(
            clock=self.clock,
            redelivery=RetryPolicy(
                max_attempts=6,
                base_delay=self.constants.bus_redelivery_base,
                max_delay=self.constants.bus_redelivery_max,
            ),
            lease_ttl=self.constants.bus_lease_ttl,
            window=self.constants.bus_redelivery_window,
        )
        self._completed = _CompletedFeed(self.clock)
        self.store = _RoutedStore(self)
        self._lock = threading.Lock()
        # Doorbell for fetch long-polls: bumped whenever any shard enqueues.
        self._wake = threading.Condition()
        self._wake_seq = 0
        self._fetch_rotation = itertools.count()
        self._ring = HashRing()
        self._shards: dict[str, CloudShard] = {}
        #: func_id -> (tenant, payload); kept so registrations can follow
        #: their partition when the ring changes (see :meth:`add_shard`).
        self._registrations: dict[str, tuple[str, Payload]] = {}
        self._endpoints: dict[str, tuple[Site, str | None]] = {}
        #: shard id -> nominal time its outage window ends.
        self._outages: dict[str, float] = {}
        self._journal_factory = journal_factory
        if health_policy is not None:
            from repro.resilience import EndpointHealthTracker

            self.health = EndpointHealthTracker(health_policy)
        else:
            self.health = None
        if poison_policy is not None:
            from repro.resilience import PoisonTracker

            self.poison = PoisonTracker(poison_policy)
        else:
            self.poison = None
        for _ in range(n_shards):
            self._add_shard_locked()

    # -- shard set ------------------------------------------------------------
    def _build_shard(self, shard_id: str, journal: object | None) -> CloudShard:
        return CloudShard(
            shard_id,
            self.site,
            self.network,
            self.auth,
            self.constants,
            self.clock,
            bus=self.bus,
            completed=self._completed,
            registry=self.registry,
            on_enqueue=self._notify_enqueue,
            journal=journal,
            health=self.health,
            poison=self.poison,
        )

    def _add_shard_locked(self) -> str:
        shard_id = f"s{len(self._shards)}"
        journal = (
            self._journal_factory(shard_id) if self._journal_factory is not None else None
        )
        shard = self._build_shard(shard_id, journal)
        self._shards[shard_id] = shard
        self._ring.add_node(shard_id)
        return shard_id

    def crash_shard(self, shard_id: str) -> "RecoveryReport":
        """Hard-crash one shard: discard its entire in-memory state and
        rebuild a replacement from its journal (snapshot + log replay).

        Unlike an outage window — where the old instance's state survives
        untouched — nothing of the old object is reused except the journal
        itself and the shared fabric (bus, completed feed, usage registry).
        Returns the replay's :class:`~repro.durable.RecoveryReport`.
        """
        from repro.durable import recover_cloud

        with self._lock:
            old = self._shards.get(shard_id)
        if old is None:
            raise WorkflowError(f"unknown shard {shard_id!r}")
        if old.journal is None:
            raise WorkflowError(
                f"shard {shard_id} has no journal; its state is unrecoverable "
                "(construct the router with journal_factory=...)"
            )
        fresh = self._build_shard(shard_id, old.journal)
        report = recover_cloud(fresh)
        with self._lock:
            self._shards[shard_id] = fresh
        # Re-leased doorbells were published during replay; wake any fetch
        # long-polls so they notice the rebuilt queues immediately.
        self._notify_enqueue()
        return report

    def add_shard(self) -> str:
        """Grow the shard set by one; registrations whose partition moved
        follow their key to the new owner (about ``1/(N+1)`` of them, the
        consistent-hashing guarantee).  Outstanding tasks stay where they
        are — task ids route by prefix, not by ring."""
        with self._lock:
            before = {
                func_id: self._ring.node_for(partition_key(tenant, func_id))
                for func_id, (tenant, _) in self._registrations.items()
            }
            shard_id = self._add_shard_locked()
            moved = 0
            for func_id, (tenant, payload) in self._registrations.items():
                owner = self._ring.node_for(partition_key(tenant, func_id))
                if owner != before[func_id]:
                    self._shards[owner].adopt_function(func_id, tenant, payload)
                    moved += 1
            for endpoint_id, (site, group) in self._endpoints.items():
                self._shards[shard_id].adopt_endpoint(
                    endpoint_id, site, failover_group=group
                )
        counter_inc("cloud.shards_added", shard=shard_id, moved=moved)
        return shard_id

    @property
    def shard_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._shards)

    def shard(self, shard_id: str) -> CloudShard:
        with self._lock:
            try:
                return self._shards[shard_id]
            except KeyError:
                raise WorkflowError(f"unknown shard {shard_id!r}") from None

    def _shard_for_partition(self, tenant: str, func_id: str) -> str:
        with self._lock:
            return self._ring.node_for(partition_key(tenant, func_id))

    def _shard_for_task(self, task_id: str) -> CloudShard:
        # task ids look like ``task-s3-00000042``.
        parts = task_id.split("-")
        if len(parts) >= 3:
            with self._lock:
                shard = self._shards.get(parts[1])
            if shard is not None:
                return shard
        raise WorkflowError(f"unknown task {task_id!r}")

    def _notify_enqueue(self) -> None:
        with self._wake:
            self._wake_seq += 1
            self._wake.notify_all()

    # -- tenants --------------------------------------------------------------
    def create_tenant(
        self,
        name: str,
        *,
        weight: int = 1,
        quota: TenantQuota | None = None,
        rate: float | None = None,
        burst: float | None = None,
    ) -> Tenant:
        return self.registry.create(
            name, weight=weight, quota=quota, rate=rate, burst=burst
        )

    # -- outages --------------------------------------------------------------
    def _begin_outage(self, shard_id: str) -> float:
        window = self.constants.shard_outage_window
        with self._lock:
            self._outages[shard_id] = self.clock.now() + window
        return window

    def _recover_outages(self) -> None:
        """Clear elapsed outage windows; a recovering shard re-rings the
        doorbells for its queued backlog (the originals were acked against
        empty fetches while the router skipped the dark shard)."""
        now = self.clock.now()
        with self._lock:
            recovered = [
                shard_id
                for shard_id, until in self._outages.items()
                if until <= now
            ]
            for shard_id in recovered:
                del self._outages[shard_id]
        for shard_id in recovered:
            counter_inc("cloud.shard_recoveries", shard=shard_id)
            self.shard(shard_id).republish_doorbells()

    def _check_available(self, shard_id: str) -> None:
        with self._lock:
            until = self._outages.get(shard_id)
        if until is None:
            return
        remaining = until - self.clock.now()
        if remaining <= 0:
            self._recover_outages()
            return
        raise ShardUnavailableError(
            f"shard {shard_id} is restarting; retry in {remaining:.3f}s",
            retry_after=remaining,
        )

    def _dark_shards(self) -> set[str]:
        now = self.clock.now()
        with self._lock:
            return {sid for sid, until in self._outages.items() if until > now}

    # -- registry -------------------------------------------------------------
    def register_function(
        self,
        token: Token,
        payload: Payload,
        *,
        tenant: str = DEFAULT_TENANT,
        name: str | None = None,
        func_id: str | None = None,
    ) -> str:
        """Register a function for ``tenant`` on the shard owning its
        partition.  The id is minted *here* — it must exist before the
        ring can place the registration."""
        self.auth.validate(token, SCOPE_COMPUTE)
        validate_tenant_name(tenant)
        if tenant != DEFAULT_TENANT:
            self.auth.validate(token, tenant_scope(tenant))
        if name is not None:
            validate_function_name(name)
        if func_id is None:
            stem = f"fn-{name}-" if name else "fn-"
            func_id = f"{stem}{uuid.uuid4().hex[:12]}"
        shard_id = self._shard_for_partition(tenant, func_id)
        self._check_available(shard_id)
        result = self.shard(shard_id).register_function(
            token, payload, tenant=tenant, name=name, func_id=func_id
        )
        with self._lock:
            self._registrations[func_id] = (tenant, payload)
        return result

    def get_function(
        self, token: Token, func_id: str, tenant: str = DEFAULT_TENANT
    ) -> Payload:
        shard_id = self._shard_for_partition(tenant, func_id)
        return self.shard(shard_id).get_function(token, func_id, tenant)

    # -- endpoints ------------------------------------------------------------
    def register_endpoint(
        self,
        token: Token,
        name: str,
        site: Site,
        *,
        failover_group: str | None = None,
    ) -> str:
        """Adopt the endpoint into *every* shard (any partition may
        dispatch to any endpoint) with one shared bus subscription."""
        self.auth.validate(token, SCOPE_COMPUTE)
        endpoint_id = f"ep-{name}-{uuid.uuid4().hex[:8]}"
        with self._lock:
            self._endpoints[endpoint_id] = (site, failover_group)
            shards = list(self._shards.values())
        for shard in shards:
            shard.adopt_endpoint(endpoint_id, site, failover_group=failover_group)
        self.bus.register_subscriber(
            task_topic(endpoint_id), endpoint_id, chaos_label=name
        )
        return endpoint_id

    def _any_shard(self) -> CloudShard:
        with self._lock:
            return next(iter(self._shards.values()))

    def _all_shards(self) -> list[CloudShard]:
        with self._lock:
            return list(self._shards.values())

    def endpoint_site(self, endpoint_id: str) -> Site:
        return self._any_shard().endpoint_site(endpoint_id)

    def set_endpoint_online(self, endpoint_id: str, online: bool) -> None:
        for shard in self._all_shards():
            shard.set_endpoint_online(endpoint_id, online)

    def endpoint_online(self, endpoint_id: str) -> bool:
        return self._any_shard().endpoint_online(endpoint_id)

    def heartbeat(self, token: Token, endpoint_id: str) -> float:
        expiry = 0.0
        for shard in self._all_shards():
            expiry = max(expiry, shard.heartbeat(token, endpoint_id))
        return expiry

    def lease_valid(self, endpoint_id: str) -> bool:
        return self._any_shard().lease_valid(endpoint_id)

    def release_lease(self, token: Token, endpoint_id: str) -> None:
        for shard in self._all_shards():
            shard.release_lease(token, endpoint_id)

    def expire_leases(self) -> list[str]:
        reaped: list[str] = []
        for shard in self._all_shards():
            reaped.extend(shard.expire_leases())
        return sorted(set(reaped))

    # -- client side ----------------------------------------------------------
    def _shard_faults(
        self, shard_id: str, item: TaskSubmission, client_id: str, tenant: str
    ) -> None:
        """The admission-time shard fault hooks, for one member of a submit.

        Keyed on the member's content-derived chaos key, attempt suffix
        stripped: every resubmission of the same task is the *same* event,
        so the client's throttle-retry loop cannot re-fire the fault and
        the ledger stays deterministic."""
        base_key = item.chaos_key or f"{client_id}|{item.func_id}"
        base_key = base_key.split("#a", 1)[0]
        spec = chaos_check("cloud.shard.drop", base_key, shard=shard_id, tenant=tenant)
        if spec is not None:
            window = self._begin_outage(shard_id)
            counter_inc("cloud.shard_outages", shard=shard_id)
            raise ShardUnavailableError(
                f"injected fault {spec.mode!r}: shard {shard_id} dropped at "
                f"admission; retry in {window:.3f}s",
                retry_after=window,
            )
        # Harder than a drop: the shard process dies and its in-memory state
        # is *discarded*.  The replacement is rebuilt synchronously from the
        # shard's write-ahead journal; the member itself throttles (it was
        # never admitted) and the client's backoff retries it against the
        # recovered shard.  Same attempt-stripped key: one crash per task.
        spec = chaos_check("cloud.shard.crash", base_key, shard=shard_id, tenant=tenant)
        if spec is not None:
            counter_inc("cloud.shard_crashes", shard=shard_id)
            report = self.crash_shard(shard_id)
            raise ShardUnavailableError(
                f"injected fault {spec.mode!r}: shard {shard_id} crashed at "
                f"admission and was rebuilt from its journal "
                f"({report.replayed} records, {report.recovery_s:.3f}s); "
                "retry now",
                retry_after=max(spec.delay, 0.05),
            )

    def submit_batch(
        self,
        token: Token,
        client_id: str,
        items: list[TaskSubmission],
        *,
        tenant: str = DEFAULT_TENANT,
    ) -> list:
        """Admission: tenant auth → shard health → rate/quota → shard.

        One auth, then per member the shard fault hooks
        (:meth:`_shard_faults`; a member they hit comes back throttled and
        its batch-mates go on), then one quota reservation and one shard
        call per shard group (functions hash to shards, so a mixed batch
        scatters into per-shard sub-batches).  The reservation of a member
        the shard rejects downstream is released, so a payload-cap
        rejection does not leak in-flight headroom.  Returns task ids or
        per-task errors aligned with ``items``, like
        :meth:`FaasCloud.submit_batch`.
        """
        self.auth.validate(token, SCOPE_COMPUTE)
        validate_tenant_name(tenant)
        if tenant != DEFAULT_TENANT:
            self.auth.validate(token, tenant_scope(tenant))
        self._recover_outages()
        results: list = [None] * len(items)
        groups: dict[str, list[int]] = {}
        for i, item in enumerate(items):
            shard_id = self._shard_for_partition(tenant, item.func_id)
            try:
                self._shard_faults(shard_id, item, client_id, tenant)
            except ShardUnavailableError as exc:
                results[i] = exc
                continue
            groups.setdefault(shard_id, []).append(i)
        for shard_id in sorted(groups):
            indexes = groups[shard_id]
            group_items = [items[i] for i in indexes]
            total_bytes = sum(it.args_payload.nominal_size for it in group_items)
            try:
                self._check_available(shard_id)
                # One reservation covers the whole sub-batch (one rate
                # token; all members' in-flight slots, atomically).
                self.registry.admit_batch(tenant, len(indexes), total_bytes)
            except ReproError as exc:
                for i in indexes:
                    results[i] = exc
                continue
            try:
                shard_results = self.shard(shard_id).submit_batch(
                    token, client_id, group_items, tenant=tenant
                )
            except BaseException:
                self.registry.release_batch(tenant, len(indexes), total_bytes)
                raise
            rejected = rejected_bytes = 0
            for i, res in zip(indexes, shard_results):
                results[i] = res
                if isinstance(res, Exception):
                    rejected += 1
                    rejected_bytes += items[i].args_payload.nominal_size
            if rejected:
                self.registry.release_batch(tenant, rejected, rejected_bytes)
            # The mid-batch crash window: the shard has fsync'd ONE WAL
            # record for the whole batch and populated its queues, but no
            # caller has seen a task id yet.  Key the fault on a digest of
            # the batch's attempt-stripped member keys so identical runs
            # crash on the identical batch.
            member_keys = sorted(
                (it.chaos_key or f"{client_id}|{it.func_id}").split("#a", 1)[0]
                for it in group_items
            )
            digest = hashlib.sha256("|".join(member_keys).encode()).hexdigest()[:16]
            spec = chaos_check(
                "cloud.batch.flush", digest, shard=shard_id, tenant=tenant
            )
            if spec is not None:
                counter_inc("cloud.batch_crashes", shard=shard_id)
                # The rebuilt shard replays the batch record per task —
                # the ids already in ``results`` stay valid.
                self.crash_shard(shard_id)
        return results

    def task(self, task_id: str) -> TaskRecord:
        return self._shard_for_task(task_id).task(task_id)

    def task_records(self) -> list[TaskRecord]:
        records: list[TaskRecord] = []
        for shard in self._all_shards():
            records.extend(shard.task_records())
        return records

    def queue_depth(self, endpoint_id: str) -> int:
        """Waiting tasks for ``endpoint_id`` summed over every shard."""
        return sum(shard.queue_depth(endpoint_id) for shard in self._all_shards())

    def tenant_backlog(self, endpoint_id: str) -> dict[str, int]:
        """Per-tenant waiting-task counts for ``endpoint_id`` merged across
        shards — the flattened demand signal autoscalers subscribe to."""
        merged: dict[str, int] = {}
        for shard in self._all_shards():
            for tenant, depth in shard.tenant_backlog(endpoint_id).items():
                merged[tenant] = merged.get(tenant, 0) + depth
        return merged

    def get_result_payloads(self, token: Token, task_ids: list[str]) -> list:
        """Batched result read: scatter the ids to their owning shards (one
        shard call, hence one auth check, per group) and merge the per-task
        outcomes back into a list aligned with ``task_ids``, like
        :meth:`FaasCloud.get_result_payloads`.  An id no shard owns, or a
        shard whose call fails, fails only its own members.

        Never gated on outages: results live in durable shard state — the
        write-ahead journal holds every result's bytes, so even a
        state-destroying crash rebuilds them (see ``crash_shard``) — and
        the data plane stays up while the admission tier restarts.
        """
        outcomes: list = [None] * len(task_ids)
        groups: dict[str, list[int]] = {}
        for i, task_id in enumerate(task_ids):
            try:
                shard = self._shard_for_task(task_id)
            except WorkflowError as exc:
                outcomes[i] = exc
                continue
            groups.setdefault(shard.shard_id, []).append(i)
        for shard_id in sorted(groups):
            indexes = groups[shard_id]
            try:
                shard_outcomes = self.shard(shard_id).get_result_payloads(
                    token, [task_ids[i] for i in indexes]
                )
            except ReproError as exc:
                shard_outcomes = [exc] * len(indexes)
            for i, outcome in zip(indexes, shard_outcomes):
                outcomes[i] = outcome
        return outcomes

    def next_completed_batch(
        self, client_id: str, max_n: int = 32, timeout: float | None = None
    ) -> list[str]:
        """One wait covers completions from every shard (shared feed)."""
        return self._completed.next_completed_batch(client_id, max_n, timeout)

    # -- endpoint side --------------------------------------------------------
    def fetch_tasks(
        self,
        token: Token,
        endpoint_id: str,
        max_tasks: int,
        timeout: float | None,
    ) -> list[TaskDispatch]:
        """Scatter-gather long-poll across the shard set.

        Each round drains shards non-blockingly, starting from a rotating
        offset so no shard's queues get systematic priority; shards inside
        an outage window are skipped (their backlog is re-announced on
        recovery).  Between rounds the call waits on the router doorbell,
        bumped by any shard's enqueue."""
        deadline = None if timeout is None else self.clock.now() + timeout
        out: list[TaskDispatch] = []
        while True:
            with self._wake:
                seq = self._wake_seq
            self._recover_outages()
            dark = self._dark_shards()
            with self._lock:
                order = sorted(self._shards)
            live = [sid for sid in order if sid not in dark]
            if live:
                offset = next(self._fetch_rotation) % len(live)
                for shard_id in live[offset:] + live[:offset]:
                    got = self.shard(shard_id).fetch_tasks(
                        token, endpoint_id, max_tasks - len(out), 0.0
                    )
                    out.extend(got)
                    if len(out) >= max_tasks:
                        break
            if out:
                return out
            remaining = None
            if deadline is not None:
                remaining = deadline - self.clock.now()
                if remaining <= 0:
                    return out
            interval = _FETCH_POLL if remaining is None else min(remaining, _FETCH_POLL)
            with self._wake:
                if self._wake_seq == seq:
                    self._wake.wait(self.clock.wall_timeout(interval))

    def requeue_dispatched(self, token: Token, endpoint_id: str) -> list[str]:
        requeued: list[str] = []
        for shard in self._all_shards():
            requeued.extend(shard.requeue_dispatched(token, endpoint_id))
        return requeued

    def report_results(
        self,
        token: Token,
        endpoint_id: str,
        results: list[tuple[str, bool, Payload]],
    ) -> list:
        """Uplink: scatter the results to their owning shards (one shard
        call per group), merging the per-task outcomes back into a list
        aligned with ``results``.

        Like the result read, reporting is never outage-gated: the endpoint
        uplink must keep draining even while admission throttles."""
        outcomes: list = [None] * len(results)
        groups: dict[str, list[int]] = {}
        for i, (task_id, _success, _payload) in enumerate(results):
            shard = self._shard_for_task(task_id)
            groups.setdefault(shard.shard_id, []).append(i)
        for shard_id in sorted(groups):
            indexes = groups[shard_id]
            shard_outcomes = self.shard(shard_id).report_results(
                token, endpoint_id, [results[i] for i in indexes]
            )
            for i, outcome in zip(indexes, shard_outcomes):
                outcomes[i] = outcome
        return outcomes

    def cancel_task(self, token: Token, task_id: str) -> bool:
        """Cancel a still-queued task on its owning shard (hedge losers)."""
        return self._shard_for_task(task_id).cancel_task(token, task_id)

    # -- dead-letter queue -----------------------------------------------------
    def deadletters(self, tenant: str | None = None) -> list:
        """Quarantined entries — one shared tracker, so any shard's view is
        the fleet view."""
        if self.poison is None:
            return []
        return self.poison.entries(tenant)

    def deadletter_drop(self, token: Token, tenant: str, fingerprint: str):
        """Route the drop to the entry's owning shard so the release lands
        in the same journal that recorded the quarantine."""
        if self.poison is None:
            return None
        entry = self.poison.entry(tenant, fingerprint)
        if entry is None:
            return None
        shard_id = self._shard_for_partition(tenant, entry.func_id)
        return self.shard(shard_id).deadletter_drop(token, tenant, fingerprint)

    def deadletter_retry(
        self, token: Token, tenant: str, fingerprint: str, endpoint_id: str
    ) -> str | None:
        """Release + resubmit through the entry's owning shard so the fresh
        task id routes back correctly."""
        if self.poison is None:
            return None
        entry = self.poison.entry(tenant, fingerprint)
        if entry is None:
            return None
        shard_id = self._shard_for_partition(tenant, entry.func_id)
        return self.shard(shard_id).deadletter_retry(
            token, tenant, fingerprint, endpoint_id
        )
