"""Campaign wiring: build any of the paper's three workflow configurations.

§V-B defines the configurations compared throughout the evaluation:

1. ``parsl`` — conventional pilot-job executor, everything by value,
   requires open ports (modeled: an SSH tunnel for the GPU resource).
2. ``parsl+redis`` — same fabric, plus ProxyStore: a Redis store (one more
   tunneled port) for cross-site AI task data and the shared file system
   for local simulation data.
3. ``funcx+globus`` — the cloud-managed stack: FuncX carries task
   instructions, ProxyStore-over-Globus carries cross-site data, the
   shared file system carries local data.  No open ports anywhere.

:func:`build_workflow` assembles the chosen stack on a
:class:`~repro.net.defaults.Testbed` and returns a :class:`WorkflowHandle`
owning every component, so application campaigns and benchmarks are three
lines of setup regardless of configuration.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field
from typing import Callable

from repro.core.queues import ColmenaQueues, TopicSpec
from repro.core.task_server import (
    FuncXTaskServer,
    MethodSpec,
    ParslTaskServer,
    TaskServer,
)
from repro.exceptions import WorkflowError
from repro.faas import (
    SCOPE_COMPUTE,
    SCOPE_TRANSFER,
    AuthServer,
    FaasClient,
    FaasCloud,
    FaasEndpoint,
)
from repro.net.defaults import Testbed
from repro.net.kvstore import KVServer
from repro.parsl import DataFlowKernel, DirectChannel, HtexExecutor, SSHTunnel
from repro.proxystore import (
    FileConnector,
    GlobusConnector,
    RedisConnector,
    Store,
)
from repro.resources import WorkerPool
from repro.transfer import TransferClient, TransferEndpoint, TransferService

__all__ = ["WORKFLOW_CONFIGS", "AppMethod", "TopicPolicy", "WorkflowHandle", "build_workflow"]

WORKFLOW_CONFIGS = ("parsl", "parsl+redis", "funcx+globus")


@dataclass(frozen=True)
class AppMethod:
    """One application method: the callable, where it runs, and its topic."""

    fn: Callable
    resource: str  # "cpu" or "gpu"
    topic: str

    def __post_init__(self) -> None:
        if self.resource not in ("cpu", "gpu"):
            raise WorkflowError(f"resource must be 'cpu' or 'gpu', not {self.resource!r}")


@dataclass(frozen=True)
class TopicPolicy:
    """Data-fabric policy for one topic.

    ``locality='local'`` means producer and consumer share a file system
    (simulation tasks: Thinker on the login node, workers on compute nodes);
    ``'cross'`` means the data crosses facilities (AI tasks on the GPU
    machine).  ``threshold`` is the proxy threshold in bytes (ignored by the
    plain-parsl configuration, which has no data fabric).
    """

    locality: str = "cross"
    threshold: int | None = 10_000

    def __post_init__(self) -> None:
        if self.locality not in ("local", "cross"):
            raise WorkflowError(f"locality must be 'local' or 'cross', not {self.locality!r}")


@dataclass
class WorkflowHandle:
    """Everything one campaign run owns; ``shutdown()`` tears it all down."""

    name: str
    testbed: Testbed
    queues: ColmenaQueues
    task_server: TaskServer
    cpu_pool: WorkerPool
    gpu_pool: WorkerPool
    stores: dict[str, Store] = field(default_factory=dict)
    endpoints: list[FaasEndpoint] = field(default_factory=list)
    transfer_service: TransferService | None = None
    faas_client: FaasClient | None = None
    _started: bool = False

    def start(self) -> "WorkflowHandle":
        if self._started:
            return self
        self.task_server.start()
        self._started = True
        return self

    def shutdown(self) -> None:
        if not self._started:
            return
        from repro.net.context import at_site

        with at_site(self.testbed.theta_login):
            self.queues.send_kill_signal()
        self.task_server.join(timeout=10)
        self.task_server.stop()
        for endpoint in self.endpoints:
            endpoint.stop()
        if self.transfer_service is not None:
            self.transfer_service.stop()
        for store in self.stores.values():
            store.close()
        self._started = False

    def __enter__(self) -> "WorkflowHandle":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()


def build_workflow(
    config: str,
    testbed: Testbed,
    methods: list[AppMethod],
    topic_policies: dict[str, TopicPolicy],
    *,
    n_cpu_workers: int | None = None,
    n_gpu_workers: int | None = None,
    run_id: str | None = None,
    use_batch_scheduler: bool = False,
    batch_queue_delay: object | None = None,
    faas_retry_policy: object | None = None,
    faas_cloud: object | None = None,
    tenant: str = "default",
    elastic: bool = False,
) -> WorkflowHandle:
    """Assemble one of the three §V-B workflow stacks on ``testbed``.

    ``use_batch_scheduler`` provisions the CPU pilot through a simulated
    batch queue (sampled queue-wait before workers exist) — the multi-level
    scheduling reality of §II-A.  The GPU box is a standalone server in the
    paper, so it never queues.

    ``faas_retry_policy`` (a :class:`repro.chaos.RetryPolicy`) makes the
    FuncX stack's client retry failed tasks with backoff; the default None
    keeps the historical fail-fast behavior.

    ``faas_cloud`` lets several campaigns share one cloud (typically a
    :class:`repro.tenancy.CloudRouter`) instead of each building its own;
    ``tenant`` is the tenant this campaign acts as on that shared cloud —
    it must already exist there, and the issued token carries its scope.
    Only meaningful for the ``funcx+globus`` configuration.

    ``elastic`` builds both pilots as
    :class:`~repro.elastic.ElasticWorkerPool`\\ s (same initial sizes), so a
    :class:`~repro.elastic.SteeringPolicy` or :class:`~repro.elastic.Autoscaler`
    can resize them mid-campaign.
    """
    if config not in WORKFLOW_CONFIGS:
        raise WorkflowError(f"unknown workflow config {config!r}; pick from {WORKFLOW_CONFIGS}")
    if faas_cloud is not None and config != "funcx+globus":
        raise WorkflowError(
            f"faas_cloud is only meaningful for 'funcx+globus', not {config!r}"
        )
    run_id = run_id or uuid.uuid4().hex[:8]
    constants = testbed.constants
    n_cpu = n_cpu_workers if n_cpu_workers is not None else constants.n_cpu_workers
    n_gpu = n_gpu_workers if n_gpu_workers is not None else constants.n_gpu_workers

    cpu_scheduler = None
    if use_batch_scheduler:
        from repro.net.topology import LogNormalLatency
        from repro.resources.scheduler import BatchScheduler

        cpu_scheduler = BatchScheduler(
            testbed.theta_compute,
            total_nodes=max(n_cpu * 2, n_cpu),
            queue_delay=batch_queue_delay or LogNormalLatency(30.0, 0.5, cap=300.0),
            network=testbed.network,
        )
    if elastic:
        from repro.elastic import ElasticWorkerPool

        cpu_pool: WorkerPool = ElasticWorkerPool(
            testbed.theta_compute, n_cpu, name=f"{run_id}-cpu", scheduler=cpu_scheduler
        )
        gpu_pool: WorkerPool = ElasticWorkerPool(
            testbed.venti, n_gpu, name=f"{run_id}-gpu"
        )
    else:
        cpu_pool = WorkerPool(
            testbed.theta_compute, n_cpu, name=f"{run_id}-cpu", scheduler=cpu_scheduler
        )
        gpu_pool = WorkerPool(testbed.venti, n_gpu, name=f"{run_id}-gpu")

    # Thinker <-> Task Server queue fabric: a Redis on the login node.
    queue_server = KVServer(testbed.theta_login, name=f"{run_id}-queues")

    stores: dict[str, Store] = {}
    endpoints: list[FaasEndpoint] = []
    transfer_service: TransferService | None = None
    faas_client: FaasClient | None = None

    # -- data fabric -------------------------------------------------------
    local_store: Store | None = None
    cross_store: Store | None = None
    if config != "parsl":
        local_store = Store(
            f"{run_id}-local",
            FileConnector(testbed.mounts.volume("theta-lustre"), directory=run_id),
        )
        stores["local"] = local_store
    if config == "parsl+redis":
        data_server = KVServer(testbed.theta_login, name=f"{run_id}-data")
        # The extra tunneled port of §V-B: GPU workers reach Redis via it.
        cross_store = Store(
            f"{run_id}-cross",
            RedisConnector(data_server, testbed.network, via_tunnel=True),
        )
        stores["cross"] = cross_store
    elif config == "funcx+globus":
        transfer_service = TransferService(
            testbed.globus_cloud, testbed.network, constants
        ).start()
        ep_theta = TransferEndpoint(
            f"{run_id}-theta", testbed.theta_login, testbed.mounts.volume("theta-lustre")
        )
        ep_venti = TransferEndpoint(
            f"{run_id}-venti", testbed.venti, testbed.mounts.volume("venti-local")
        )
        transfer_service.register_endpoint(ep_theta)
        transfer_service.register_endpoint(ep_venti)
        transfer_client = TransferClient(transfer_service, user=run_id)
        cross_store = Store(
            f"{run_id}-cross",
            GlobusConnector(
                transfer_client,
                {
                    testbed.theta_login.name: ep_theta,
                    testbed.theta_compute.name: ep_theta,  # shares Lustre
                    testbed.venti.name: ep_venti,
                },
                directory=run_id,
            ),
        )
        stores["cross"] = cross_store

    def store_for(policy: TopicPolicy) -> Store | None:
        if config == "parsl":
            return None
        if policy.locality == "local":
            return local_store
        return cross_store

    topic_specs = {
        topic: TopicSpec(
            topic,
            store=store_for(policy),
            proxy_threshold=None if config == "parsl" else policy.threshold,
        )
        for topic, policy in topic_policies.items()
    }
    queues = ColmenaQueues(
        queue_server, testbed.network, topic_specs=topic_specs
    )

    # -- compute fabric -------------------------------------------------------
    def method_specs(target_for: Callable[[AppMethod], str]) -> list[MethodSpec]:
        specs = []
        for method in methods:
            policy = topic_policies.get(method.topic)
            if policy is None:
                raise WorkflowError(f"no topic policy for {method.topic!r}")
            spec_store = store_for(policy)
            specs.append(
                MethodSpec(
                    method.fn,
                    target=target_for(method),
                    output_store=spec_store.name if spec_store is not None else None,
                    output_threshold=None if config == "parsl" else policy.threshold,
                )
            )
        return specs

    if config.startswith("parsl"):
        cpu_exec = HtexExecutor(
            "cpu",
            testbed.theta_login,
            cpu_pool,
            testbed.network,
            channel=DirectChannel(),
        )
        gpu_exec = HtexExecutor(
            "gpu",
            testbed.theta_login,
            gpu_pool,
            testbed.network,
            channel=SSHTunnel(),  # the open-ports deployment burden
        )
        dfk = DataFlowKernel([cpu_exec, gpu_exec])
        task_server: TaskServer = ParslTaskServer(
            queues,
            method_specs(lambda m: m.resource),
            testbed.theta_login,
            dfk,
        )
    else:
        from repro.tenancy import DEFAULT_TENANT, tenant_scope

        if faas_cloud is not None:
            # Shared (typically sharded) cloud: campaigns are tenants of the
            # same control plane, authenticating against its auth server.
            cloud = faas_cloud
            auth = cloud.auth
        else:
            auth = AuthServer()
            cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, constants)
        identity = auth.register_identity(run_id, "anl.gov")
        scopes = {SCOPE_COMPUTE, SCOPE_TRANSFER}
        if tenant != DEFAULT_TENANT:
            scopes.add(tenant_scope(tenant))
        token = auth.issue_token(identity, scopes)
        ep_cpu = FaasEndpoint(
            f"{run_id}-theta", cloud, token, testbed.theta_login, cpu_pool
        ).start()
        ep_gpu = FaasEndpoint(
            f"{run_id}-venti", cloud, token, testbed.venti, gpu_pool
        ).start()
        endpoints = [ep_cpu, ep_gpu]
        faas_client = FaasClient(
            cloud,
            token,
            site=testbed.theta_login,
            retry_policy=faas_retry_policy,
            tenant=tenant,
        )
        targets = {"cpu": ep_cpu.endpoint_id, "gpu": ep_gpu.endpoint_id}
        task_server = FuncXTaskServer(
            queues,
            method_specs(lambda m: targets[m.resource]),
            testbed.theta_login,
            faas_client,
        )

    return WorkflowHandle(
        name=config,
        testbed=testbed,
        queues=queues,
        task_server=task_server,
        cpu_pool=cpu_pool,
        gpu_pool=gpu_pool,
        stores=stores,
        endpoints=endpoints,
        transfer_service=transfer_service,
        faas_client=faas_client,
    )
