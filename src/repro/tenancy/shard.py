"""One partition of the sharded control plane.

A :class:`CloudShard` *is* a :class:`repro.faas.cloud.FaasCloud` — the whole
single-node engine (function registry, task ledger and queues, payload
store, failover sweep, exactly-once result reporting) — wired into the
:class:`~repro.faas.cloud.Fabric` the router shares across shards, which no
shard crash destroys:

* the common :class:`~repro.bus.NotificationBus`, so pushed tasks and
  result doorbells from every shard reach the same subscribers;
* the one :class:`~repro.faas.cloud.EndpointTable`: registrations, leases,
  reaps and push credit live once for the fleet, each shard's sweep moves
  only its own share of a reaped endpoint's work, and every push leases
  through the router's rotating ``fetch_tasks``;
* the router's :class:`~repro.tenancy.TenantRegistry`, so dispatches and
  terminal transitions inside the shard release the usage the router
  reserved at admission;
* a shard-local task-id namespace (``task-s2-00000042``) and payload-store
  locator prefix (``s2/redis:...``), which is how the router routes any id
  back to its owning shard without a lookup table.

The shard also charges a *serialized* per-submit admission cost
(``faas_shard_service_time``): each shard is a service with finite
control-plane capacity, so aggregate admission throughput grows with the
shard count — the scaling property the tenancy benchmark measures.
"""

from __future__ import annotations

from repro.faas.auth import AuthServer
from repro.faas.cloud import Fabric, FaasCloud
from repro.net.clock import Clock
from repro.net.defaults import PaperConstants
from repro.net.topology import Network, Site
from repro.observe import gauge_set
from repro.tenancy.tenant import TenantRegistry

__all__ = ["CloudShard"]


class CloudShard(FaasCloud):
    """One shard: a ``FaasCloud`` scoped to a partition of the keyspace."""

    def __init__(
        self,
        shard_id: str,
        site: Site,
        network: Network,
        auth: AuthServer,
        constants: PaperConstants,
        clock: Clock,
        *,
        fabric: Fabric,
        registry: TenantRegistry,
        journal: object | None = None,
        health: object | None = None,
        poison: object | None = None,
    ) -> None:
        super().__init__(
            site,
            network,
            auth,
            constants,
            clock,
            fabric=fabric,
            usage=registry,
            shard_id=shard_id,
            service_time=constants.faas_shard_service_time,
            store_prefix=f"{shard_id}/",
            task_namespace=f"{shard_id}-",
            journal=journal,
            health=health,
            poison=poison,
        )

    def tenant_backlog(self, endpoint_id: str) -> dict[str, int]:
        """Per-tenant backlog on *this shard's* queues, exported with the
        shard label so autoscalers (and dashboards) can see which partition
        the demand lives on before the router flattens the signal."""
        backlog = super().tenant_backlog(endpoint_id)
        for tenant, depth in backlog.items():
            gauge_set(
                "cloud.shard_backlog",
                depth,
                tenant=tenant,
                endpoint=endpoint_id,
                shard=self.shard_id,
            )
        return backlog
