"""The paper's testbed, as a reproducible simulated topology.

§V-A of the paper: simulation tasks run on Theta (KNL nodes), AI tasks on
*Venti* (an NVIDIA DGX with 20 T4 GPUs housed in the same building but on a
separate network, with no access to Theta's file systems and different
authentication), the Thinker and Task Server live on a Theta login node, and
the Globus-backend synthetic experiments place the Thinker on a UChicago
Research Computing Center login node.  Cloud-hosted services (the FuncX web
service and Globus Transfer) run in a commercial cloud region.

Latency and bandwidth constants below are *calibration inputs*, chosen so
that the end-to-end medians the simulator produces land near the paper's
reported values (≈100 ms FuncX dispatch, ≈500 ms Globus HTTPS request,
1–5 s Globus transfers, ≈2 ms intra-site Redis ops).  EXPERIMENTS.md records
the calibration checks.  Everything is exposed on :class:`PaperConstants`
so ablation studies can perturb one knob at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.fs import FileSystem, MountTable
from repro.net.topology import (
    LatencyModel,
    LogNormalLatency,
    Network,
    Site,
    UniformLatency,
)

__all__ = [
    "CLIENT_CLOSE_TIMEOUT",
    "CLIENT_RECEIVE_INTERVAL",
    "PaperConstants",
    "Testbed",
    "build_paper_testbed",
]

# -- client-side intervals (module constants) --------------------------------
#: Period of a client's overdue-hedge scan, a reactor timer (nominal
#: seconds): a hedge launches within one period of its delay.
CLIENT_RECEIVE_INTERVAL: float = 0.25
#: Wall-clock seconds ``FaasClient.close()`` and ``flush_batches()`` wait
#: for the reactor rounds in flight (per-client overridable).
CLIENT_CLOSE_TIMEOUT: float = 10.0


@dataclass(frozen=True)
class PaperConstants:
    """Every tunable latency/bandwidth/policy constant in one place."""

    # -- link latencies (one-way, seconds) ---------------------------------
    intra_facility_latency: LatencyModel = LogNormalLatency(0.0002, 0.15)
    building_latency: LatencyModel = LogNormalLatency(0.0030, 0.30)  # Theta<->Venti
    metro_latency: LatencyModel = LogNormalLatency(0.0120, 0.30)  # UChicago<->ANL
    cloud_latency: LatencyModel = LogNormalLatency(0.0280, 0.35, cap=0.25)

    # -- link bandwidths (bytes/second) -------------------------------------
    intra_facility_bandwidth: float = 5.0e9
    building_bandwidth: float = 1.25e9  # 10 Gb/s
    metro_bandwidth: float = 1.25e9
    cloud_bandwidth: float = 0.60e9  # effective per-stream WAN throughput
    #: Effective throughput of a user-maintained SSH tunnel (single TCP
    #: stream, encryption overhead) — well below raw link speed, and the
    #: reason the paper's Globus DTN path wins for multi-GB payloads even
    #: though a tunnel wins on small-message latency.
    tunnel_bandwidth: float = 0.20e9

    # -- shared file systems -------------------------------------------------
    lustre_write_bandwidth: float = 1.2e9
    lustre_read_bandwidth: float = 2.0e9
    #: Lustre metadata operations (open/create/stat) are notoriously slow —
    #: tens of ms on a shared system — which is why the paper's file backend
    #: loses to Redis on small objects while matching it on large ones
    #: (Fig. 4 shows ~10x higher small-object serialize times for file).
    fs_op_latency: float = 25e-3
    #: Node-local scratch (the DGX box, UChicago home) has faster metadata.
    local_fs_op_latency: float = 2e-3

    # -- FuncX-like cloud service ---------------------------------------------
    # Store-tier costs are calibrated to the paper's Fig. 3: tiny payloads
    # (proxy references) ride inline with the task message; mid-size ones go
    # through an ElastiCache hop (~0.25 s/op observed end-to-end, including
    # the service's re-serialization); large ones through S3 (~0.8 s/op plus
    # modest effective throughput).  These are *observed-cost* models of the
    # hosted service's whole payload path, not raw AWS latencies.
    faas_api_latency: LatencyModel = LogNormalLatency(0.012, 0.30, cap=0.20)
    faas_payload_cap: int = 10 * 1024 * 1024  # the 10 MB FuncX limit
    faas_inline_threshold: int = 4 * 1024  # below this: inline in the message
    faas_small_object_threshold: int = 20 * 1024  # ElastiCache vs S3 split
    faas_redis_latency: LatencyModel = LogNormalLatency(0.25, 0.30, cap=1.5)
    faas_s3_latency: LatencyModel = LogNormalLatency(0.80, 0.35, cap=4.0)
    faas_s3_bandwidth: float = 20e6
    endpoint_heartbeat_period: float = 5.0
    # An endpoint that misses ~3 heartbeats is presumed dead and its lease
    # is reaped (tasks fail over to surviving group members).
    endpoint_lease_ttl: float = 15.0

    # -- sharded control plane (repro.tenancy) ---------------------------------
    # Serialized per-submit admission cost of one shard: the finite capacity
    # of its web tier, which is what makes aggregate admission throughput
    # scale with the shard count.
    faas_shard_service_time: float = 0.008
    # How long a dropped shard stays dark before its durable state comes
    # back; admission throttles (retryable) for the duration.
    shard_outage_window: float = 1.0

    # -- push-notification bus -------------------------------------------------
    # A subscriber detached for this long is presumed disconnected; its
    # subscription lapses until it resubscribes (replaying from the last
    # ack).
    bus_lease_ttl: float = 30.0
    bus_redelivery_base: float = 0.5
    bus_redelivery_max: float = 4.0

    # -- Globus-Transfer-like service -----------------------------------------
    globus_request_latency: LatencyModel = LogNormalLatency(0.45, 0.35, cap=2.5)
    globus_transfer_base: LatencyModel = UniformLatency(0.8, 3.2)
    globus_per_file_overhead: float = 0.15
    globus_concurrent_transfer_limit: int = 6
    globus_dtn_bandwidth: float = 1.0e9

    # -- paper resource counts -------------------------------------------------
    n_cpu_workers: int = 8  # 8 KNL processors (Fig. 1 caption)
    n_gpu_workers: int = 20  # 20 T4 GPUs


@dataclass
class Testbed:
    """A fully wired topology: sites, links, and mounted volumes."""

    network: Network
    mounts: MountTable
    constants: PaperConstants
    theta_login: Site
    theta_compute: Site
    venti: Site
    uchicago_login: Site
    faas_cloud: Site
    globus_cloud: Site
    extra_sites: dict[str, Site] = field(default_factory=dict)

    @property
    def compute_sites(self) -> tuple[Site, ...]:
        return (self.theta_compute, self.venti)

    def site(self, name: str) -> Site:
        return self.network.site(name)


def build_paper_testbed(
    seed: int = 0, constants: PaperConstants | None = None
) -> Testbed:
    """Construct the §V-A testbed with deterministic latency sampling."""
    c = constants or PaperConstants()
    net = Network(seed=seed)

    theta_login = net.add_site(
        Site(
            "theta-login",
            fs_group="theta-lustre",
            trust_group="alcf",
            tags=frozenset({"login", "cpu"}),
        )
    )
    theta_compute = net.add_site(
        Site(
            "theta-compute",
            fs_group="theta-lustre",
            trust_group="alcf",
            tags=frozenset({"compute", "cpu", "knl"}),
        )
    )
    venti = net.add_site(
        Site(
            "venti",
            fs_group="venti-local",
            trust_group="cels",
            tags=frozenset({"compute", "gpu", "t4"}),
        )
    )
    uchicago = net.add_site(
        Site(
            "uchicago-login",
            fs_group="uchicago-fs",
            trust_group="uchicago",
            tags=frozenset({"login", "cpu"}),
        )
    )
    faas_cloud = net.add_site(
        Site("faas-cloud", allows_inbound=True, tags=frozenset({"cloud"}))
    )
    globus_cloud = net.add_site(
        Site("globus-cloud", allows_inbound=True, tags=frozenset({"cloud"}))
    )

    net.add_link(
        theta_login, theta_compute, c.intra_facility_latency, c.intra_facility_bandwidth
    )
    # The "same building, different network" paths used by the Parsl and
    # Redis baselines between the DGX box and Theta.
    net.add_link(theta_login, venti, c.building_latency, c.building_bandwidth)
    net.add_link(theta_compute, venti, c.building_latency, c.building_bandwidth)
    # Metro-area research network between UChicago and Argonne.
    net.add_link(uchicago, theta_login, c.metro_latency, c.metro_bandwidth)
    net.add_link(uchicago, theta_compute, c.metro_latency, c.metro_bandwidth)
    net.add_link(uchicago, venti, c.metro_latency, c.metro_bandwidth)
    # Everyone reaches the commercial cloud.
    for site in (theta_login, theta_compute, venti, uchicago):
        net.add_link(site, faas_cloud, c.cloud_latency, c.cloud_bandwidth)
        net.add_link(site, globus_cloud, c.cloud_latency, c.cloud_bandwidth)
    net.add_link(faas_cloud, globus_cloud, LogNormalLatency(0.004, 0.2), 2.0e9)

    mounts = MountTable()
    mounts.add_volume(
        FileSystem(
            "theta-lustre",
            write_bandwidth=c.lustre_write_bandwidth,
            read_bandwidth=c.lustre_read_bandwidth,
            op_latency=c.fs_op_latency,
        )
    )
    mounts.add_volume(FileSystem("venti-local", op_latency=c.local_fs_op_latency))
    mounts.add_volume(FileSystem("uchicago-fs", op_latency=c.local_fs_op_latency))

    return Testbed(
        network=net,
        mounts=mounts,
        constants=c,
        theta_login=theta_login,
        theta_compute=theta_compute,
        venti=venti,
        uchicago_login=uchicago,
        faas_cloud=faas_cloud,
        globus_cloud=globus_cloud,
    )
