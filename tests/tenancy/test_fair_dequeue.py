"""Weighted-round-robin dequeue: starvation bounds under a flooding tenant."""

import pytest

from repro.faas import SCOPE_COMPUTE, AuthServer
from repro.faas.cloud import FaasCloud
from repro.net.context import at_site
from repro.serialize import serialize
from repro.tenancy import TenantRegistry, tenant_scope


def _noop():
    return None


@pytest.fixture
def rig(testbed):
    auth = AuthServer()
    identity = auth.register_identity("u", "anl")
    registry = TenantRegistry()
    registry.create("hot", weight=1)
    registry.create("quiet", weight=3)
    cloud = FaasCloud(
        testbed.faas_cloud, testbed.network, auth, testbed.constants,
        usage=registry,
    )
    token = auth.issue_token(
        identity, {SCOPE_COMPUTE, tenant_scope("hot"), tenant_scope("quiet")}
    )
    with at_site(testbed.theta_login):
        endpoint_id = cloud.register_endpoint(token, "theta", testbed.theta_login)
        funcs = {
            tenant: cloud.register_function(
                token, serialize(_noop), tenant=tenant
            )
            for tenant in ("hot", "quiet")
        }
    return cloud, token, endpoint_id, funcs


def _flood(cloud, token, endpoint_id, funcs, counts):
    with at_site(cloud.site):
        for tenant, count in counts.items():
            for i in range(count):
                cloud.submit(
                    token,
                    "client-x",
                    funcs[tenant],
                    endpoint_id,
                    serialize(((), {})),
                    tenant=tenant,
                    chaos_key=f"{tenant}-{i}",
                )


def test_hot_tenant_bounded_to_its_weight_share_per_window(rig):
    cloud, token, endpoint_id, funcs = rig
    # Both backlogged: hot (weight 1) floods, quiet (weight 3) keeps a
    # steady backlog.  Every drain window must hand hot at most ~1/4 of
    # the deliveries — the WRR starvation bound.
    _flood(cloud, token, endpoint_id, funcs, {"hot": 40, "quiet": 40})
    windows = []
    while True:
        batch = cloud.fetch_tasks(token, endpoint_id, 8)
        if not batch:
            break
        windows.append([dispatch.tenant for dispatch in batch])
    assert sum(len(w) for w in windows) == 80
    # The bound applies while quiet is still backlogged, i.e. every window
    # before the one in which quiet finally drains.
    last_quiet = max(i for i, w in enumerate(windows) if "quiet" in w)
    for window in windows[:last_quiet]:
        share = window.count("hot") / len(window)
        assert share <= 1 / 4 + 1 / len(window), window
    # Interleaving, not head-of-line: quiet work appears in the very first
    # window even though hot submitted first.
    assert "quiet" in windows[0]


def test_lone_backlog_gets_the_full_feed(rig):
    cloud, token, endpoint_id, funcs = rig
    # No competition: WRR must not idle capacity on absent tenants.
    _flood(cloud, token, endpoint_id, funcs, {"hot": 12})
    batch = cloud.fetch_tasks(token, endpoint_id, 12)
    assert [dispatch.tenant for dispatch in batch] == ["hot"] * 12


def test_rotation_resumes_after_quiet_drains(rig):
    cloud, token, endpoint_id, funcs = rig
    _flood(cloud, token, endpoint_id, funcs, {"hot": 20, "quiet": 4})
    seen = []
    while True:
        batch = cloud.fetch_tasks(token, endpoint_id, 4)
        if not batch:
            break
        seen.extend(dispatch.tenant for dispatch in batch)
    assert seen.count("hot") == 20
    assert seen.count("quiet") == 4
    # Once quiet drains, hot runs uncontested: the tail is pure hot.
    tail = seen[-(20 - 4):]
    assert set(tail) == {"hot"}
