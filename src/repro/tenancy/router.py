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

import functools
import hashlib
import itertools
import threading
import uuid
from typing import TYPE_CHECKING, Callable

from repro.batch.reactor import get_reactor
from repro.batch.round import Round
from repro.bus import NotificationBus
from repro.chaos.plan import chaos_check, chaos_enabled
from repro.exceptions import ReproError, ShardUnavailableError, WorkflowError
from repro.faas.auth import SCOPE_COMPUTE, AuthServer, Token
from repro.faas.cloud import (
    Fabric,
    TaskDispatch,
    TaskRecord,
    TaskSubmission,
    _BatchOfOne,
    _EndpointCalls,
    sole,
)
from repro.net.clock import Clock, get_clock
from repro.net.defaults import PaperConstants
from repro.net.topology import Network, Site
from repro.observe import counter_inc
from repro.resilience import EndpointHealthTracker, PoisonTracker
from repro.serialize import Payload
from repro.tenancy.hashring import HashRing, partition_key
from repro.tenancy.shard import CloudShard
from repro.tenancy.tenant import (
    DEFAULT_TENANT,
    Tenant,
    TenantRegistry,
    tenant_scope,
    validate_function_name,
    validate_tenant_name,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.durable import RecoveryReport

__all__ = ["CloudRouter"]

class _RoutedStore:
    """Locator-prefix routing facade over the shards' payload stores.

    Endpoints read argument payloads through ``cloud.store`` directly; with
    shards, the locator's ``<shard>/`` prefix says which store owns the
    bytes.  Writes happen inside shard code paths only, never through the
    facade."""

    def __init__(self, router: "CloudRouter") -> None:
        self._router = router

    def _owners(self, locators: list[str]) -> list:
        """Each locator's owning shard id -- its ``<shard>/`` prefix -- or
        the :class:`WorkflowError` of a locator no shard owns."""
        shards = self._router._shards
        owners: list = []
        for locator in locators:
            shard_id, sep, _ = locator.partition("/")
            if sep and shard_id in shards:
                owners.append(shard_id)
            elif sep:
                owners.append(WorkflowError(f"unknown shard {shard_id!r}"))
            else:
                owners.append(
                    WorkflowError(
                        f"locator {locator!r} carries no shard prefix; it was not "
                        "minted by this router"
                    )
                )
        return owners

    def read(self, locator: str) -> Payload:
        return sole(self.read_round([locator]).wait(self._router.clock))

    def read_round(self, locators: list[str]) -> Round:
        """One store round per owning shard store, paid one after another;
        a locator no shard owns fails alone, at once."""
        return self._router._scatter(
            self._owners(locators),
            lambda shard_id, indexes: self._router.shard(shard_id).store.read_round(
                [locators[i] for i in indexes]
            ),
        )

    def write(self, payload: Payload, *, chaos_exempt: bool = False) -> str:
        raise WorkflowError(
            "the routed store is read-only; payloads are written by the "
            "owning shard during submit/report"
        )


class CloudRouter(_BatchOfOne, _EndpointCalls):
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
        # One fabric for every shard: a single bus and endpoint table,
        # neither of which a shard crash destroys.
        bus = NotificationBus.for_cloud(self.clock, self.constants)
        self.fabric = Fabric(bus, front=self)
        self.bus = self.fabric.bus
        self.store = _RoutedStore(self)
        self._lock = threading.Lock()
        self._fetch_rotation = itertools.count()
        self._ring = HashRing()
        self._shards: dict[str, CloudShard] = {}
        #: func_id -> (tenant, payload); kept so registrations can follow
        #: their partition when the ring changes (see :meth:`add_shard`).
        self._registrations: dict[str, tuple[str, Payload]] = {}
        #: ``(tenant, func_id) -> shard id`` for registered partitions: a
        #: submit routes each partition once, by dict read after its first.
        #: Only :meth:`add_shard` changes the ring, and it clears this.
        self._routes: dict[tuple[str, str], str] = {}
        #: shard id -> nominal time its outage window ends.
        self._outages: dict[str, float] = {}
        self._journal_factory = journal_factory
        self.health = (
            EndpointHealthTracker(health_policy) if health_policy is not None else None
        )
        self.poison = (
            PoisonTracker(poison_policy) if poison_policy is not None else None
        )
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
            fabric=self.fabric,
            registry=self.registry,
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
        itself, the fabric (bus, endpoint table) and the usage registry.
        Returns the replay's :class:`~repro.durable.RecoveryReport`.
        """
        from repro.durable import recover_cloud

        old = self.shard(shard_id)
        if old.journal is None:
            raise WorkflowError(
                f"shard {shard_id} has no journal; its state is unrecoverable "
                "(construct the router with journal_factory=...)"
            )
        fresh = self._build_shard(shard_id, old.journal)
        report = recover_cloud(fresh)
        with self._lock:
            self._shards[shard_id] = fresh
        for endpoint_id in self.fabric.endpoints.ids():  # the re-leased work
            self._push(endpoint_id)
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
            self._routes.clear()
            moved = 0
            for func_id, (tenant, payload) in self._registrations.items():
                owner = self._ring.node_for(partition_key(tenant, func_id))
                if owner != before[func_id]:
                    self._shards[owner].adopt_function(func_id, tenant, payload)
                    moved += 1
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
        shard_id = self._routes.get((tenant, func_id))
        if shard_id is None:
            with self._lock:
                shard_id = self._ring.node_for(partition_key(tenant, func_id))
                if self._registrations.get(func_id, (None,))[0] == tenant:
                    self._routes[tenant, func_id] = shard_id
        return shard_id

    def _task_owners(self, task_ids: list[str]) -> list:
        """Each task id's owning shard id -- ids look like
        ``task-s3-00000042``, so routing back is parsing -- or the
        :class:`WorkflowError` of an id no shard owns."""
        shards = self._shards
        return [
            shard_id
            if (shard_id := task_id.partition("-")[2].partition("-")[0]) in shards
            else WorkflowError(f"unknown task {task_id!r}")
            for task_id in task_ids
        ]

    def _shard_for_task(self, task_id: str) -> CloudShard:
        (owner,) = self._task_owners([task_id])
        if isinstance(owner, ReproError):
            raise owner
        return self.shard(owner)

    # -- tenants --------------------------------------------------------------
    def create_tenant(self, name: str, **settings) -> Tenant:
        """See :meth:`TenantRegistry.create`."""
        return self.registry.create(name, **settings)

    # -- outages --------------------------------------------------------------
    def _begin_outage(self, shard_id: str) -> float:
        """Darken ``shard_id``'s admission for one outage window, ended by
        a reactor timer at its deadline (:meth:`_end_outage`)."""
        window = self.constants.shard_outage_window
        until = self.clock.now() + window
        with self._lock:
            self._outages[shard_id] = until
        get_reactor().call_at(
            until, functools.partial(self._end_outage, shard_id, until)
        )
        return window

    def _end_outage(self, shard_id: str, until: float) -> None:
        """Clear the window ending at ``until`` -- unless a later drop has
        extended it, whose own timer clears it -- and push every endpoint
        what waits (pushes skipped the dark shard meanwhile)."""
        with self._lock:
            if self._outages.get(shard_id) != until:
                return
            del self._outages[shard_id]
        counter_inc("cloud.shard_recoveries", shard=shard_id)
        for endpoint_id in self.fabric.endpoints.ids():
            self._push(endpoint_id)

    def _outage_left(self, shard_id: str) -> float:
        """Nominal seconds until ``shard_id``'s outage ends; not positive
        once it is up, even before the timer has cleared the window."""
        return self._outages.get(shard_id, 0.0) - self.clock.now()

    def _check_available(self, shard_id: str) -> None:
        remaining = self._outage_left(shard_id)
        if remaining > 0:
            raise ShardUnavailableError(
                f"shard {shard_id} is restarting; retry in {remaining:.3f}s",
                retry_after=remaining,
            )

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
    def heartbeat(self, token: Token, endpoint_id: str) -> float:
        """One shard takes the beat -- it validates, renews the lease in the
        fleet's one table, records health, counts and pushes, once -- and
        every other shard then sweeps, so a dead endpoint's work moves within
        one heartbeat whichever shard holds it.  Returns the new expiry."""
        first, *rest = self._all_shards()
        expiry = first.heartbeat(token, endpoint_id)
        for shard in rest:
            shard.expire_leases()
        return expiry

    def _all_shards(self) -> list[CloudShard]:
        with self._lock:
            return list(self._shards.values())

    def _scatter(self, owners: list, plan: Callable[[str, list[int]], Round]) -> Round:
        """Group the members of a batched call by owning shard, plan one
        round per group -- ``plan(shard_id, indexes)``, in shard order --
        and join them (:meth:`Round.join`): the groups are paid one after
        another.  ``owners[i]`` names member ``i``'s shard, or is the
        :class:`ReproError` that is that member's outcome while its
        batch-mates go on."""
        answer: list = [None] * len(owners)
        groups: dict[str, list[int]] = {}
        for i, owner in enumerate(owners):
            if isinstance(owner, ReproError):
                answer[i] = owner
            else:
                groups.setdefault(owner, []).append(i)
        return Round.join(answer, [(groups[s], plan(s, groups[s])) for s in sorted(groups)])

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

    def submit_round(
        self,
        token: Token,
        client_id: str,
        items: list[TaskSubmission],
        *,
        tenant: str = DEFAULT_TENANT,
    ) -> Round:
        """Admission: tenant auth → shard health → rate/quota → shard, as
        one :class:`Round` (like :meth:`FaasCloud.submit_round`;
        :meth:`submit_batch` lands it).

        One auth and one ring lookup per partition, then -- with chaos on --
        per member the shard fault hooks (:meth:`_shard_faults`; a member
        they hit comes back throttled and its batch-mates go on), then one
        quota reservation and one shard round per shard group (functions
        hash to shards, so a mixed batch scatters into per-shard
        sub-batches); members beyond the tenant's
        remaining quota come back throttled.  Each shard queues its members
        at their own landings; at a group's last landing the reservation
        of every member the shard rejected -- or whose landing failed -- is
        released, so a payload-cap rejection does not leak in-flight
        headroom.  The answer is task ids or per-task errors aligned with
        ``items``.
        """
        self.auth.validate(token, SCOPE_COMPUTE)
        validate_tenant_name(tenant)
        if tenant != DEFAULT_TENANT:
            self.auth.validate(token, tenant_scope(tenant))
        routes = {
            func_id: self._shard_for_partition(tenant, func_id)
            for func_id in {item.func_id for item in items}
        }
        owners: list = [routes[item.func_id] for item in items]
        if chaos_enabled():
            for i, item in enumerate(items):
                try:
                    self._shard_faults(owners[i], item, client_id, tenant)
                except ReproError as exc:
                    owners[i] = exc

        def plan(shard_id: str, indexes: list[int]) -> Round:
            sizes = [items[i].args_payload.nominal_size for i in indexes]
            try:
                self._check_available(shard_id)
                # One reservation covers the sub-batch (one rate token; the
                # in-flight slots of the longest prefix that fits the
                # quotas); the members beyond it come back throttled.
                admitted, refusal = self.registry.admit_batch(tenant, sizes)
            except ReproError as exc:
                return Round.settled([exc] * len(indexes))
            refused = [refusal] * (len(indexes) - admitted)
            if not admitted:
                return Round.settled(refused)
            group_items = [items[i] for i in indexes[:admitted]]
            # A group that fails as a whole fails only its own members, so
            # the other groups of the round still land and settle their
            # reservations.
            try:
                shard_round = self.shard(shard_id).submit_round(
                    token, client_id, group_items, tenant=tenant
                )
            except BaseException as exc:
                self.registry.release_batch(tenant, admitted, sum(sizes[:admitted]))
                if not isinstance(exc, ReproError):
                    raise
                return Round.settled([exc] * admitted + refused)
            # The group's outcomes as they land; the shard settled its
            # refusals already.
            group = shard_round.answer
            final = shard_round.landings[-1][0]

            def commit(members: list[int], shard_commit, at: float) -> list:
                try:
                    landed = shard_commit()
                except Exception as exc:  # noqa: BLE001 - its reservation is released
                    landed = [exc] * len(members)
                for j, outcome in zip(members, landed):
                    group[j] = outcome
                if at == final:
                    rejected = [n for n, o in zip(sizes, group) if isinstance(o, Exception)]
                    if rejected:
                        self.registry.release_batch(tenant, len(rejected), sum(rejected))
                    if chaos_enabled():
                        self._flush_faults(shard_id, group_items, client_id, tenant)
                return landed

            return Round(
                group + refused,
                shard_round.charges,
                [
                    (at, members, functools.partial(commit, members, shard_commit, at))
                    for at, members, shard_commit in shard_round.landings
                ],
            )

        return self._scatter(owners, plan)

    def _flush_faults(
        self, shard_id: str, items: list[TaskSubmission], client_id: str, tenant: str
    ) -> None:
        """The mid-batch crash window: the shard has fsync'd one WAL record
        per landing of the batch and populated its queues, but no caller
        has seen a task id yet.  Key the fault on a digest of the batch's
        attempt-stripped member keys so identical runs crash on the
        identical batch."""
        member_keys = sorted(
            (it.chaos_key or f"{client_id}|{it.func_id}").split("#a", 1)[0]
            for it in items
        )
        digest = hashlib.sha256("|".join(member_keys).encode()).hexdigest()[:16]
        spec = chaos_check("cloud.batch.flush", digest, shard=shard_id, tenant=tenant)
        if spec is not None:
            counter_inc("cloud.batch_crashes", shard=shard_id)
            # The rebuilt shard replays the batch record per task — the ids
            # already handed back stay valid.
            self.crash_shard(shard_id)

    def task(self, task_id: str) -> TaskRecord:
        return self._shard_for_task(task_id).task(task_id)

    def download_round(self, token: Token, task_ids: list[str]) -> Round:
        """Batched result read, like :meth:`FaasCloud.download_round`: one
        round (hence one auth check) per owning shard, paid one after
        another.  An id no shard owns, or a shard whose call fails, fails
        only its own members.

        Never gated on outages: results live in durable shard state — the
        write-ahead journal holds every result's bytes, so even a
        state-destroying crash rebuilds them (see ``crash_shard``) — and
        the data plane stays up while the admission tier restarts.
        """

        def read(shard_id: str, indexes: list[int]) -> Round:
            try:
                return self.shard(shard_id).download_round(
                    token, [task_ids[i] for i in indexes]
                )
            except ReproError as exc:
                return Round.settled([exc] * len(indexes))

        return self._scatter(self._task_owners(task_ids), read)

    # -- endpoint side --------------------------------------------------------
    def fetch_tasks(
        self, token: Token, endpoint_id: str, max_tasks: int
    ) -> list[TaskDispatch]:
        """Scatter-gather fetch across the shard set, once and without
        blocking: shards are drained starting from a rotating offset so no
        shard's queues get systematic priority, and shards inside an outage
        window are skipped (their backlog is pushed when it ends)."""
        live = [sid for sid in self.shard_ids if self._outage_left(sid) <= 0]
        out: list[TaskDispatch] = []
        if live:
            offset = next(self._fetch_rotation) % len(live)
            for shard_id in live[offset:] + live[:offset]:
                out.extend(
                    self.shard(shard_id).fetch_tasks(
                        token, endpoint_id, max_tasks - len(out)
                    )
                )
                if len(out) >= max_tasks:
                    break
        return out

    def report_round(
        self,
        token: Token,
        endpoint_id: str,
        results: list[tuple[str, bool, Payload]],
    ) -> Round:
        """Uplink: scatter the results to their owning shards (one shard
        round per group, landing one after another), joined into one round
        whose answer is aligned with ``results``.

        Like the result read, reporting is never outage-gated: the endpoint
        uplink must keep draining even while admission throttles."""
        return self._scatter(
            self._task_owners([task_id for task_id, _success, _payload in results]),
            lambda shard_id, indexes: self.shard(shard_id).report_round(
                token, endpoint_id, [results[i] for i in indexes]
            ),
        )

    def cancel_task(self, token: Token, task_id: str) -> bool:
        """Cancel a still-queued task on its owning shard (hedge losers)."""
        return self._shard_for_task(task_id).cancel_task(token, task_id)

    # -- dead-letter queue -----------------------------------------------------
    def _deadletter_op(
        self, op: str, token: Token, tenant: str, fingerprint: str, *args
    ):
        """Run a dead-letter release on the entry's owning shard, so it lands
        in the journal that recorded the quarantine (and a resubmission's
        fresh task id routes back); ``None`` if nothing matched."""
        entry = None if self.poison is None else self.poison.entry(tenant, fingerprint)
        if entry is None:
            return None
        shard_id = self._shard_for_partition(tenant, entry.func_id)
        return getattr(self.shard(shard_id), op)(token, tenant, fingerprint, *args)

    def deadletter_drop(self, token: Token, tenant: str, fingerprint: str):
        return self._deadletter_op("deadletter_drop", token, tenant, fingerprint)

    def deadletter_retry(
        self, token: Token, tenant: str, fingerprint: str, endpoint_id: str
    ) -> str | None:
        return self._deadletter_op(
            "deadletter_retry", token, tenant, fingerprint, endpoint_id
        )

# -- delegated to the shards ---------------------------------------------------
def _concat(answers: list[list]) -> list:
    return [item for answer in answers for item in answer]


def _sum_counts(answers: list[dict[str, int]]) -> dict[str, int]:
    merged: dict[str, int] = {}
    for answer in answers:
        for key, count in answer.items():
            merged[key] = merged.get(key, 0) + count
    return merged


#: The ``FaasCloud`` calls the router answers by asking its shards and doing
#: nothing else: name -> how the shards' answers reduce to one.  ``None``
#: asks any one shard, for state every shard shares.
_DELEGATED = {
    "deadletters": None,  # one tracker, shared by every shard
    "task_records": _concat,
    "queue_depth": sum,
    "tenant_backlog": _sum_counts,
}


def _delegated(name: str, reduce):
    @functools.wraps(getattr(CloudShard, name))
    def method(self, *args, **kwargs):
        shards = self._all_shards()
        if reduce is None:
            return getattr(shards[0], name)(*args, **kwargs)
        return reduce([getattr(shard, name)(*args, **kwargs) for shard in shards])

    return method


for _name, _reduce in _DELEGATED.items():
    setattr(CloudRouter, _name, _delegated(_name, _reduce))
