"""repro.tenancy — the sharded, multi-tenant cloud control plane.

The funcX web service is one hosted deployment serving many research
campaigns.  This package reproduces that multi-tenancy on top of
:mod:`repro.faas`:

* :class:`CloudRouter` — the client/endpoint-facing front door.  It speaks
  the full :class:`repro.faas.cloud.FaasCloud` API, so ``FaasClient`` and
  ``FaasEndpoint`` work against a router or a bare cloud interchangeably.
* :class:`CloudShard` — one partition of control-plane state (function
  registry, task queues, payload store), a thin specialization of
  ``FaasCloud`` wired into the shared bus/endpoint-table fabric.
* :class:`HashRing` / :func:`partition_key` — consistent hashing over
  ``(tenant, function)`` that assigns every partition to exactly one shard.
* :class:`TenantRegistry` and friends — tenant directory, quotas,
  token-bucket rate limits, and fair-share weights.

Import note: :mod:`repro.faas.cloud` imports :mod:`repro.tenancy.tenant`
(validation + the default tenant name), so the router/shard — which import
``repro.faas.cloud`` — are exposed lazily here to keep the package cycle-free.
"""

from __future__ import annotations

from repro.tenancy.hashring import HashRing, partition_key
from repro.tenancy.tenant import (
    DEFAULT_TENANT,
    Tenant,
    TenantQuota,
    TenantRegistry,
    TenantUsage,
    TokenBucket,
    render_tenant_table,
    tenant_scope,
    validate_function_name,
    validate_tenant_name,
)

__all__ = [
    "CloudRouter",
    "CloudShard",
    "HashRing",
    "partition_key",
    "DEFAULT_TENANT",
    "Tenant",
    "TenantQuota",
    "TenantRegistry",
    "TenantUsage",
    "TokenBucket",
    "render_tenant_table",
    "tenant_scope",
    "validate_function_name",
    "validate_tenant_name",
]


def __getattr__(name: str):
    # Lazy: router/shard import repro.faas.cloud, which imports
    # repro.tenancy.tenant — eager imports here would close a cycle.
    if name == "CloudRouter":
        from repro.tenancy.router import CloudRouter

        return CloudRouter
    if name == "CloudShard":
        from repro.tenancy.shard import CloudShard

        return CloudShard
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
