"""The chaos campaign: a fault matrix swept over workflow configurations.

Each **cell** of the matrix runs one workload (N FaaS tasks that each
resolve an object out of a ProxyStore backend) under one injected fault
mode, then audits the run against three invariants:

1. **No lost tasks** — every submitted task's future resolves to the
   expected value, with no intervention beyond the configured
   :class:`~repro.chaos.policy.RetryPolicy`; every task record at the cloud
   reaches a terminal state.
2. **No orphan spans** — every recorded span's parent resolves within its
   trace (recovery machinery must not drop trace context).
3. **Retry reconciliation** — the recovery counters (client retries, store
   retries, transfer requeues, failovers) add up against the injector's own
   record of what it fired.

Fault selection is a pure function of the plan seed and content-derived
event keys, so a cell's **ledger digest** (fault events + task outcomes) is
identical across runs — ``run_campaign(verify_determinism=True)`` proves it
by running every cell twice.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass, field

from repro.chaos.plan import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    chaos_check,
    set_injector,
)
from repro.chaos.policy import RetryPolicy
from repro.exceptions import TaskQuarantinedError
from repro.faas import SCOPE_COMPUTE, AuthServer, FaasClient, FaasCloud, FaasEndpoint
from repro.net.clock import get_clock
from repro.net.context import at_site
from repro.net.defaults import PaperConstants, Testbed, build_paper_testbed
from repro.net.kvstore import KVServer
from repro.net.topology import UniformLatency
from repro.observe import (
    MetricsRegistry,
    Tracer,
    find_orphans,
    set_metrics,
    set_tracer,
)
from repro.proxystore.connectors.file import FileConnector
from repro.proxystore.connectors.globus import GlobusConnector
from repro.proxystore.connectors.redis import RedisConnector
from repro.proxystore.store import Store, clear_store_registry, get_store
from repro.resources import WorkerPool
from repro.transfer.client import TransferClient
from repro.transfer.service import TransferEndpoint, TransferService

__all__ = [
    "FAULT_MODES",
    "CONFIGS",
    "CellResult",
    "fault_specs",
    "run_cell",
    "run_campaign",
    "render_results",
]

#: Fault modes the campaign knows how to inject *and* reconcile.
FAULT_MODES: tuple[str, ...] = (
    "worker_exception",
    "endpoint_crash",
    "payload_cap",
    "store_corruption",
    "cloud_store_error",
    "transfer_fault",
    "notification_loss",
    "notification_duplicate",
    "subscription_drop",
    "shard_outage",
    "shard_crash",
    "batch_flush_loss",
    "campaign_crash",
    "provision_delay",
    "endpoint_slow",
    "poison_task",
)

#: Workflow configurations (FaaS fabric + ProxyStore backend).
CONFIGS: tuple[str, ...] = ("faas-file", "faas-redis", "faas-globus")

#: Counters surfaced in every cell report.
_REPORT_COUNTERS = (
    "client.retries",
    "client.submit_retries",
    "store.retries",
    "transfer.retries",
    "endpoint.dispatch_errors",
    "endpoint.crashes",
    "faas.lease_expiries",
    "faas.failovers",
    "faas.requeues",
    "faas.duplicate_results",
    "bus.delivered",
    "bus.redelivered",
    "bus.duplicates_dropped",
    "bus.resubscribes",
    "cloud.shard_outages",
    "cloud.shard_crashes",
    "cloud.batch_submits",
    "cloud.batch_crashes",
    "client.batch_splits",
    "client.serialize_skipped",
    "endpoint.uplink_batches",
    "durable.recoveries",
    "durable.replayed",
    "durable.releases",
    "durable.renotified",
    "client.killed",
    "client.attached",
    "client.throttled",
    "autoscale.provision_retries",
    "autoscale.provision_abandoned",
    "endpoint.gray_degraded",
    "endpoint.stale_results",
    "resilience.breaker_opens",
    "resilience.sheds",
    "resilience.steered",
    "resilience.quarantined",
    "resilience.poison_steered",
    "resilience.quarantine_refusals",
    "client.terminal_rejections",
)


def fault_specs(mode: str) -> tuple[FaultSpec, ...]:
    """The injection plan for one fault mode.

    Rates below 1.0 select a deterministic *subset* of event keys; the
    ``attempt: 0`` matches confine faults to first attempts so the retry
    budget always suffices and every cell is expected to pass.
    """
    if mode == "none":
        return ()
    if mode == "worker_exception":
        return (FaultSpec("worker.execute", mode, rate=0.6, match={"attempt": 0}),)
    if mode == "endpoint_crash":
        return (
            FaultSpec(
                "endpoint.crash", mode, rate=1.0, match={"endpoint": "ep-a"}, max_fires=1
            ),
        )
    if mode == "payload_cap":
        return (FaultSpec("cloud.submit", mode, rate=0.6, match={"attempt": 0}),)
    if mode == "store_corruption":
        return (FaultSpec("store.get", mode, rate=0.6, match={"attempt": 0}),)
    if mode == "cloud_store_error":
        return (FaultSpec("cloud.store.read", mode, rate=0.4),)
    if mode == "transfer_fault":
        return (FaultSpec("transfer.attempt", mode, rate=0.6, match={"attempt": 0}),)
    if mode == "notification_loss":
        # First deliveries (pushed tasks, result doorbells) vanish in flight;
        # the bus redelivers after backoff, so tasks complete with zero
        # client-side retries.
        return (FaultSpec("bus.deliver", mode, rate=0.6, match={"attempt": 0}),)
    if mode == "notification_duplicate":
        # Envelopes arrive twice; consumer-side sequence dedup drops the copy.
        return (FaultSpec("bus.duplicate", mode, rate=0.6, match={"attempt": 0}),)
    if mode == "subscription_drop":
        # Subscriptions are force-lapsed at publish time; the subscriber must
        # notice and resubscribe, which replays everything after its ack.
        return (FaultSpec("bus.subscription.drop", mode, rate=0.5),)
    if mode == "shard_outage":
        # The owning shard restarts at admission.  Keyed on the submission's
        # content digest (attempt suffix stripped at the hook site), with
        # only the first check of each key eligible, so the client's
        # throttle-retry loop can never re-fire the fault.
        return (FaultSpec("cloud.shard.drop", mode, rate=0.5, max_fires=2),)
    if mode == "shard_crash":
        # The owning shard's in-memory state is *destroyed* at admission and
        # rebuilt from its write-ahead journal before the submit is
        # throttled back to the client.  Same keying discipline as
        # shard_outage so throttle retries can never re-fire it.
        return (FaultSpec("cloud.shard.crash", mode, rate=0.5, max_fires=2),)
    if mode == "batch_flush_loss":
        # The shard dies in the window between accepting a coalesced batch
        # (ONE WAL fsync for the whole batch) and its per-task queue
        # fan-out being observed by anyone.  Keyed on the digest of the
        # batch's attempt-stripped member keys, so identical runs crash on
        # the identical batch; replay must re-admit every member exactly
        # once with zero client-side retries.
        return (FaultSpec("cloud.batch.flush", mode, rate=1.0, max_fires=1),)
    if mode == "campaign_crash":
        # The campaign process itself dies once, right after submitting its
        # batch; a successor sharing the client id attaches to the in-flight
        # task ids and drains results without recomputing anything.
        return (FaultSpec("campaign.crash", mode, rate=1.0, max_fires=1),)
    if mode == "endpoint_slow":
        # Gray failure: ep-a comes up degraded — alive, heartbeating, but
        # 10x slower per task.  No lease ever lapses, so only the health
        # tracker's latency signal (and its breaker) can rescue the backlog.
        return (
            FaultSpec(
                "endpoint.slow",
                mode,
                rate=1.0,
                match={"endpoint": "ep-a"},
                delay=10.0,
                max_fires=1,
            ),
        )
    if mode == "poison_task":
        # A deterministic subset of task payloads fails on *every* endpoint
        # and every attempt (keyed on the attempt-stripped content digest,
        # with enough occurrences that no retry ever slips through).  The
        # quarantine quorum must catch them after two distinct endpoints.
        return (
            FaultSpec("worker.poison", mode, rate=0.5, occurrences=tuple(range(32))),
        )
    if mode == "provision_delay":
        # Scale-up requests stall for a nominal second and then fail; the
        # elastic pool must retry with backoff and no queued task may be
        # lost to the missing capacity.  Keyed per (pool, worker index).
        return (
            FaultSpec(
                "scheduler.provision", mode, rate=0.5, delay=1.0, match={"attempt": 0}
            ),
        )
    raise ValueError(f"unknown fault mode {mode!r}; known: {sorted(FAULT_MODES)}")


def chaos_task(index: int, store_name: str, key: str) -> int:
    """The campaign workload body: resolve a stored object, compute on it.

    Module-level so it pickles by reference; unique ``index`` per task keeps
    argument and result payloads content-distinct, which keeps content-
    derived fault keys distinct too.
    """
    values = get_store(store_name).get(key)
    return index + sum(values)


@dataclass
class CellResult:
    """Outcome of one (fault mode, config) campaign cell."""

    mode: str
    config: str
    tasks: int
    fires: int
    counters: dict[str, int] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    digest: str = ""
    duration_nominal_s: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass
class _Rig:
    """Per-config wiring: the store plus where each actor runs."""

    store: Store
    client_site: object
    agent_site: object
    worker_site: object
    cleanups: list


def _campaign_constants() -> PaperConstants:
    """Paper constants tuned for campaign turnaround: fast heartbeats so
    failover resolves in a few nominal seconds, light Globus latencies so
    the globus config's cells are not dominated by transfer floors."""
    return PaperConstants(
        endpoint_heartbeat_period=1.0,
        endpoint_lease_ttl=3.0,
        globus_request_latency=UniformLatency(0.05, 0.06),
        globus_transfer_base=UniformLatency(0.2, 0.3),
    )


def _build_rig(config: str, testbed: Testbed, policy: RetryPolicy) -> _Rig:
    if config == "faas-file":
        store = Store(
            "chaos-store",
            FileConnector(testbed.mounts.volume("theta-lustre"), "chaos"),
            retry_policy=policy,
        )
        return _Rig(
            store=store,
            client_site=testbed.theta_login,
            agent_site=testbed.theta_login,
            worker_site=testbed.theta_compute,
            cleanups=[store.close],
        )
    if config == "faas-redis":
        server = KVServer(testbed.theta_login, name="chaos-redis")
        store = Store(
            "chaos-store",
            RedisConnector(server, testbed.network),
            retry_policy=policy,
        )
        return _Rig(
            store=store,
            client_site=testbed.theta_login,
            agent_site=testbed.theta_login,
            worker_site=testbed.theta_compute,
            cleanups=[store.close],
        )
    if config == "faas-globus":
        service = TransferService(
            testbed.globus_cloud, testbed.network, testbed.constants
        ).start()
        ep_theta = TransferEndpoint(
            "chaos-gep-theta", testbed.theta_login, testbed.mounts.volume("theta-lustre")
        )
        ep_venti = TransferEndpoint(
            "chaos-gep-venti", testbed.venti, testbed.mounts.volume("venti-local")
        )
        service.register_endpoint(ep_theta)
        service.register_endpoint(ep_venti)
        transfer_client = TransferClient(service, "chaos-user")
        store = Store(
            "chaos-store",
            GlobusConnector(
                transfer_client,
                {testbed.theta_login.name: ep_theta, testbed.venti.name: ep_venti},
                "chaos-globus",
            ),
            retry_policy=policy,
        )
        return _Rig(
            store=store,
            client_site=testbed.theta_login,
            agent_site=testbed.venti,
            worker_site=testbed.venti,
            cleanups=[store.close, service.stop],
        )
    raise ValueError(f"unknown config {config!r}; known: {sorted(CONFIGS)}")


def _ledger_digest(injector: FaultInjector, outcomes: list) -> str:
    """Hash the *logical* ledger: which faults fired (by content key) and
    what every task produced.  Timestamps and run-local ids are excluded —
    they vary with thread scheduling; this must not."""
    events = sorted((e.hook, e.mode, e.key) for e in injector.fires())
    blob = repr((events, outcomes)).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# -- reconciliation: recovery counters vs injected fault counts -----------------
#: kind -> (holds(got, want), failure message).  ``got`` is the named
#: counter's total, or the injector's fire count where no counter is named.
_EXPECTATIONS = {
    "exact": (
        operator.eq,
        "reconciliation: {counter} is {got}, expected {want} (injector fired {fires})",
    ),
    "at_least": (operator.ge, "{mode}: {counter} is {got}, expected >= {want}"),
    "within_1": (
        lambda got, want: 1 <= got <= want,
        "{mode}: {counter} is {got}, expected within [1, {want}]",
    ),
    # ``want`` is the complaint to make when the counter never moved.
    "seen": (lambda got, want: got >= 1, "{mode}{want}"),
    "one_fire": (
        lambda got, want: got == 1,
        "{mode} cell expected exactly 1 fire, got {fires}",
    ),
    "poison_fires": (
        operator.eq,
        "poison_task: injector fired {fires} times for {poisoned} "
        "quarantined payloads, expected exactly {want}",
    ),
}
_FIRES = ("seen", None, " cell injected no faults")
_ONE_FIRE = ("one_fire", None, None)
_NO_CLIENT_RETRIES = ("exact", "client.retries", 0)

#: mode -> ``(kind, counter, want)`` expectations, checked in order.  A
#: ``want`` may name an amount: ``fires``, ``fires-1``, ``tasks``,
#: ``poisoned`` (quarantined payloads) or ``2*poisoned``.
_RECONCILE: dict[str, tuple] = {
    "none": (_NO_CLIENT_RETRIES,),
    "worker_exception": (("exact", "client.retries", "fires"),),
    "payload_cap": (("exact", "client.submit_retries", "fires"),),
    "store_corruption": (("exact", "store.retries", "fires"),),
    # A fired read surfaces either as a dispatch error (args) or a download
    # error (result); both recover via one client retry.
    "cloud_store_error": (("exact", "client.retries", "fires"),),
    "transfer_fault": (("exact", "transfer.retries", "fires"),),
    # Failover must be invisible to the client: no client-side retries.
    "endpoint_crash": (
        ("exact", "endpoint.crashes", "fires"),
        _ONE_FIRE,
        ("seen", "faas.lease_expiries", ": the dead endpoint's lease never expired"),
        ("seen", "faas.failovers", ": no task failed over to the survivor"),
        ("exact", "client.retries", "fires-1"),
    ),
    # Every lost envelope must come back via bus redelivery (never via
    # client retries — a lost push stays leased and unacked).
    "notification_loss": (
        _FIRES,
        ("at_least", "bus.redelivered", "fires"),
        _NO_CLIENT_RETRIES,
    ),
    "notification_duplicate": (
        _FIRES,
        ("at_least", "bus.duplicates_dropped", "fires"),
        _NO_CLIENT_RETRIES,
    ),
    "subscription_drop": (
        _FIRES,
        ("within_1", "bus.resubscribes", "fires"),
        _NO_CLIENT_RETRIES,
    ),
    # A shard restart is recovered entirely inside the submit path: the
    # client backs off on the throttle (at least once per fire) and the
    # task-level retry machinery is never engaged.
    "shard_outage": (
        _FIRES,
        ("exact", "cloud.shard_outages", "fires"),
        ("at_least", "client.throttled", "fires"),
        _NO_CLIENT_RETRIES,
    ),
    # The destroyed shard is rebuilt from its journal before the submit is
    # throttled back — recovery is invisible above the submit path: no task
    # retries, no lost results.
    "shard_crash": (
        _FIRES,
        ("exact", "cloud.shard_crashes", "fires"),
        ("exact", "durable.recoveries", "fires"),
        ("at_least", "client.throttled", "fires"),
        _NO_CLIENT_RETRIES,
    ),
    # The shard died after the batch's single WAL fsync but before any task
    # id escaped: replay must fan the batch record back out into every
    # member task, invisibly — no client retries, no splits.
    "batch_flush_loss": (
        _ONE_FIRE,
        ("exact", "cloud.batch_crashes", "fires"),
        ("exact", "durable.recoveries", "fires"),
        ("seen", "cloud.batch_submits", ": no coalesced batch was submitted"),
        ("exact", "client.batch_splits", 0),
        _NO_CLIENT_RETRIES,
    ),
    # The dead process's successor must adopt every in-flight task and
    # drain its results from the ledger/feed — never recompute.
    "campaign_crash": (
        _ONE_FIRE,
        ("exact", "client.killed", 1),
        ("exact", "client.attached", "tasks"),
        _NO_CLIENT_RETRIES,
    ),
    # Stalled scale-ups are retried by the pool itself: one retry per fire
    # (the attempt-0 match guarantees the second try lands), no worker is
    # abandoned, and the task layer never notices.
    "provision_delay": (
        _FIRES,
        ("exact", "autoscale.provision_retries", "fires"),
        ("exact", "autoscale.provision_abandoned", 0),
        _NO_CLIENT_RETRIES,
    ),
    # One injected gray degradation must open the breaker exactly once and
    # shed at least one task to the healthy peer — all invisible to the
    # client (the shed is a cloud-side requeue, not a retry).
    "endpoint_slow": (
        _ONE_FIRE,
        ("exact", "endpoint.gray_degraded", 1),
        ("exact", "resilience.breaker_opens", "fires"),
        ("within_1", "resilience.sheds", "tasks"),
        _NO_CLIENT_RETRIES,
    ),
    # Every poisoned payload fires exactly twice (once per distinct
    # endpoint, the quarantine quorum), is steered off its striked endpoint
    # once, burns exactly two client retries, and then has its resubmission
    # refused terminally.
    "poison_task": (
        ("seen", "resilience.quarantined", " cell quarantined nothing"),
        ("poison_fires", None, "2*poisoned"),
        ("exact", "resilience.poison_steered", "poisoned"),
        ("exact", "resilience.quarantine_refusals", "poisoned"),
        ("exact", "client.terminal_rejections", "poisoned"),
        ("exact", "client.retries", "2*poisoned"),
    ),
}


def _reconcile(
    mode: str,
    fires: int,
    counters: dict[str, int],
    failures: list[str],
    *,
    tasks: int = 0,
) -> None:
    """Check that recovery counters add up against injected fault counts."""
    poisoned = counters.get("resilience.quarantined", 0)
    amounts = {
        "fires": fires,
        "fires-1": fires - 1,
        "tasks": tasks,
        "poisoned": poisoned,
        "2*poisoned": 2 * poisoned,
    }
    for kind, counter, want in _RECONCILE.get(mode, ()):
        holds, message = _EXPECTATIONS[kind]
        got = fires if counter is None else counters.get(counter, 0)
        want = amounts.get(want, want)
        if not holds(got, want):
            failures.append(
                message.format(
                    **amounts, mode=mode, counter=counter, got=got, want=want
                )
            )


def run_cell(
    mode: str,
    config: str,
    *,
    seed: int = 0,
    n_tasks: int = 6,
) -> CellResult:
    """Run one campaign cell and audit its invariants.

    Invariant violations are collected into ``CellResult.failures`` rather
    than raised, so a sweep reports every broken cell instead of dying on
    the first one.
    """
    failures: list[str] = []
    tracer = Tracer()
    metrics = MetricsRegistry()
    injector = FaultInjector(FaultPlan.build(seed, fault_specs(mode)))
    set_tracer(tracer)
    set_metrics(metrics)
    set_injector(injector)

    policy = RetryPolicy(max_attempts=5, base_delay=0.1, max_delay=1.0)
    constants = _campaign_constants()
    testbed = build_paper_testbed(seed=seed, constants=constants)
    clock = get_clock()
    started = clock.now()

    auth = AuthServer()
    identity = auth.register_identity("chaos-user", "anl")
    token = auth.issue_token(identity, {SCOPE_COMPUTE})
    if mode == "shard_outage":
        # This mode exercises the sharded control plane: the hook fires at
        # the router's admission tier, and recovery must keep the shard's
        # durable queues intact.
        from repro.tenancy import CloudRouter

        cloud = CloudRouter(
            testbed.faas_cloud, testbed.network, auth, constants, n_shards=2
        )
    elif mode in ("shard_crash", "batch_flush_loss"):
        # The harder variants: the shard's in-memory state is *destroyed*,
        # so every shard journals to a write-ahead log and recovery is a
        # full snapshot + log replay.  ``batch_flush_loss`` crashes inside
        # the coalesced-batch admission window instead of per submit.
        from repro.durable import FileJournalBackend, Journal
        from repro.net.fs import FileSystem
        from repro.tenancy import CloudRouter

        wal = FileSystem("chaos-wal", op_latency=2e-3)
        cloud = CloudRouter(
            testbed.faas_cloud,
            testbed.network,
            auth,
            constants,
            n_shards=2,
            journal_factory=lambda shard_id: Journal(
                FileJournalBackend(wal, shard_id), name=shard_id
            ),
        )
    elif mode == "endpoint_slow":
        # Health-tracked cloud: an explicit 1 s latency baseline (the
        # healthy task time) makes the breaker trip deterministic — the
        # gray endpoint's first 10 s result scores 0.3 < 0.5 and opens the
        # breaker exactly once (open_duration is effectively forever).
        from repro.resilience import EndpointHealthTracker, HealthPolicy

        cloud = FaasCloud(
            testbed.faas_cloud,
            testbed.network,
            auth,
            constants,
            health=EndpointHealthTracker(
                HealthPolicy(
                    latency_baseline=1.0,
                    latency_threshold=3.0,
                    min_samples=1,
                    open_score=0.5,
                    open_duration=10_000.0,
                )
            ),
        )
    elif mode == "poison_task":
        # Poison-tracked cloud: two strikes on distinct endpoints move the
        # payload to the per-tenant dead-letter queue.
        from repro.resilience import PoisonPolicy, PoisonTracker

        cloud = FaasCloud(
            testbed.faas_cloud,
            testbed.network,
            auth,
            constants,
            poison=PoisonTracker(PoisonPolicy(quorum=2)),
        )
    else:
        cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, constants)
    rig = _build_rig(config, testbed, policy)
    if mode == "provision_delay":
        # Elastic pools so scale-up passes through the chaos-hooked
        # provisioning path; worker indices give deterministic fault keys.
        from repro.elastic import ElasticWorkerPool

        provision_retry = RetryPolicy(max_attempts=4, base_delay=0.2, max_delay=1.0)
        pool_a: WorkerPool = ElasticWorkerPool(
            rig.worker_site, 2, name="chaos-pool-a", provision_retry=provision_retry
        )
        pool_b: WorkerPool = ElasticWorkerPool(
            rig.worker_site, 2, name="chaos-pool-b", provision_retry=provision_retry
        )
    else:
        pool_a = WorkerPool(rig.worker_site, 2, name="chaos-pool-a")
        pool_b = WorkerPool(rig.worker_site, 2, name="chaos-pool-b")
    # batch_flush_loss exercises the whole batched hot path: coalesced
    # client submits, uplink batching at the endpoints.  Batch composition
    # must be deterministic for the digest, so flushes only happen on the
    # explicit drain below (the hold deadline is far beyond the cell).
    batching = mode == "batch_flush_loss"
    ep_a = FaasEndpoint(
        "ep-a", cloud, token, rig.agent_site, pool_a,
        failover_group="chaos-pair", uplink_batching=batching,
    ).start()
    ep_b = FaasEndpoint(
        "ep-b", cloud, token, rig.agent_site, pool_b,
        failover_group="chaos-pair", uplink_batching=batching,
    ).start()
    if batching:
        from repro.batch import BatchPolicy

        batch_policy = BatchPolicy(
            max_batch=64, max_bytes=1 << 30, flush_deadline=600.0, min_hold=600.0
        )
    else:
        batch_policy = None
    client = FaasClient(
        cloud, token, site=rig.client_site, retry_policy=policy, batch=batch_policy,
    )

    outcomes: list = []
    try:
        with at_site(rig.client_site):
            keys = []
            for index in range(n_tasks):
                key = f"{mode}-{index}"
                rig.store.put([index, index + 1], key=key)
                keys.append(key)
            # All tasks target ep-a; ep-b is the hot standby whose
            # heartbeats drive lazy lease expiry (failover without client
            # help).
            futures = []
            for index, key in enumerate(keys):
                futures.append(
                    client.run(chaos_task, ep_a.endpoint_id, index, rig.store.name, key)
                )
                if not batching:
                    # One submit call per task, on this thread: which
                    # round a store-tier-matched fault lands in must not
                    # depend on how the hold timer coalesced the tasks.
                    client.flush_batches()
            if batching:
                # One deterministic coalesced batch; the fault fires in the
                # window after its single WAL fsync.
                client.flush_batches()
            if mode == "campaign_crash":
                # The campaign process dies right after submitting its
                # batch: the client is killed (no goodbye to the bus, no
                # future cleanup) and a successor sharing its client_id
                # attaches to the in-flight task ids.  The funcX tier
                # remembers every task, so nothing is recomputed.
                spec = chaos_check("campaign.crash", f"cell|{config}|{seed}")
                if spec is not None:
                    client.kill()
                    client = FaasClient(
                        cloud,
                        token,
                        site=rig.client_site,
                        retry_policy=policy,
                        client_id=client.client_id,
                    )
                    futures = [
                        client.attach(
                            future.task_id,  # type: ignore[attr-defined]
                            endpoint_id=ep_a.endpoint_id,
                        )
                        for future in futures
                    ]
        for index, future in enumerate(futures):
            try:
                outcomes.append(future.result(timeout=120))
            except TaskQuarantinedError:
                if mode == "poison_task":
                    # The *expected* terminal outcome for a poisoned
                    # payload: quarantined after the quorum, not lost.
                    outcomes.append("quarantined")
                else:
                    outcomes.append("error:TaskQuarantinedError")
                    failures.append(f"task {index} was quarantined unexpectedly")
            except Exception as exc:  # noqa: BLE001 - audited below
                outcomes.append(f"error:{type(exc).__name__}")
                failures.append(f"task {index} was lost to {exc!r}")
        expected = [index + (index + (index + 1)) for index in range(n_tasks)]
        if mode == "poison_task":
            # Membership of the poisoned subset is seed-derived, so accept
            # "quarantined" element-wise; the ledger digest (which covers
            # every outcome) pins the exact subset across runs.
            mismatched = [
                index
                for index, outcome in enumerate(outcomes)
                if outcome != "quarantined" and outcome != expected[index]
            ]
            if not failures and mismatched:
                failures.append(
                    f"wrong results at {mismatched}: {outcomes} vs {expected}"
                )
        elif not failures and outcomes != expected:
            failures.append(f"wrong results: {outcomes} != {expected}")
    finally:
        try:
            client.close()
            ep_a.stop()
            ep_b.stop()
        finally:
            for cleanup in rig.cleanups:
                cleanup()
            set_injector(None)
            set_tracer(None)
            set_metrics(None)
            clear_store_registry()

    # -- invariants ---------------------------------------------------------
    non_terminal = [
        record.task_id
        for record in cloud.task_records()
        if not record.status.terminal
    ]
    if non_terminal:
        failures.append(f"tasks never reached a terminal state: {non_terminal}")
    orphans = find_orphans(tracer.spans())
    if orphans:
        failures.append(
            f"{len(orphans)} orphan spans, e.g. "
            f"{orphans[0].name}@{orphans[0].trace_id}"
        )
    if mode == "poison_task":
        # The dead-letter queue is the ground truth the outcomes must match:
        # exactly the futures that raised TaskQuarantinedError are in it.
        dlq = len(cloud.deadletters())
        quarantined = sum(1 for outcome in outcomes if outcome == "quarantined")
        if dlq != quarantined:
            failures.append(
                f"poison_task: dead-letter queue holds {dlq} entries but "
                f"{quarantined} futures were quarantined"
            )
    counters = {
        name: int(metrics.counter_total(name)) for name in _REPORT_COUNTERS
    }
    fires = injector.fire_count()
    _reconcile(mode, fires, counters, failures, tasks=n_tasks)

    return CellResult(
        mode=mode,
        config=config,
        tasks=n_tasks,
        fires=fires,
        counters=counters,
        failures=failures,
        digest=_ledger_digest(injector, outcomes),
        duration_nominal_s=clock.now() - started,
    )


def run_campaign(
    modes: tuple[str, ...] = FAULT_MODES,
    configs: tuple[str, ...] = CONFIGS,
    *,
    seed: int = 0,
    n_tasks: int = 6,
    verify_determinism: bool = False,
) -> list[CellResult]:
    """Sweep the fault matrix; returns one :class:`CellResult` per cell.

    ``verify_determinism`` runs every cell twice and fails the cell if the
    two ledger digests differ — the end-to-end proof that fault injection
    is a function of the seed, not of thread scheduling.
    """
    results: list[CellResult] = []
    for config in configs:
        for mode in modes:
            result = run_cell(mode, config, seed=seed, n_tasks=n_tasks)
            if verify_determinism:
                rerun = run_cell(mode, config, seed=seed, n_tasks=n_tasks)
                if rerun.digest != result.digest:
                    result.failures.append(
                        f"nondeterministic ledger: {result.digest} vs "
                        f"{rerun.digest} across two runs of seed {seed}"
                    )
                result.failures.extend(
                    f"(rerun) {failure}" for failure in rerun.failures
                )
            results.append(result)
    return results


def render_results(results: list[CellResult]) -> str:
    """A fixed-width report table, one row per cell."""
    header = (
        f"{'config':<12} {'mode':<18} {'tasks':>5} {'fires':>5} "
        f"{'retries':>7} {'failovers':>9} {'digest':<16} verdict"
    )
    lines = [header, "-" * len(header)]
    for r in results:
        retries = (
            r.counters.get("client.retries", 0)
            + r.counters.get("client.submit_retries", 0)
            + r.counters.get("store.retries", 0)
            + r.counters.get("transfer.retries", 0)
        )
        lines.append(
            f"{r.config:<12} {r.mode:<18} {r.tasks:>5} {r.fires:>5} "
            f"{retries:>7} {r.counters.get('faas.failovers', 0):>9} "
            f"{r.digest:<16} {'PASS' if r.passed else 'FAIL'}"
        )
        for failure in r.failures:
            lines.append(f"    ! {failure}")
    passed = sum(1 for r in results if r.passed)
    lines.append(f"{passed}/{len(results)} cells passed")
    return "\n".join(lines)
