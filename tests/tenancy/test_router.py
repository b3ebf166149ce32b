"""CloudRouter end-to-end: routing, isolation, shared delivery fabric."""

import pytest
from conftest import ManualClock

from repro.exceptions import (
    AuthorizationError,
    InvalidFunctionError,
    InvalidTenantError,
    WorkflowError,
)
from repro.faas import SCOPE_COMPUTE, AuthServer, FaasClient, FaasEndpoint
from repro.net.context import at_site
from repro.resources import WorkerPool
from repro.serialize import deserialize, serialize
from repro.tenancy import CloudRouter, tenant_scope


def _add(a, b):
    return a + b


def _mul(a, b):
    return a * b


@pytest.fixture
def rig(testbed):
    auth = AuthServer()
    identity = auth.register_identity("u", "anl")
    router = CloudRouter(
        testbed.faas_cloud, testbed.network, auth, testbed.constants, n_shards=3
    )
    router.create_tenant("alice", weight=2)
    router.create_tenant("bob")
    endpoint_token = auth.issue_token(identity, {SCOPE_COMPUTE})
    token_alice = auth.issue_token(identity, {SCOPE_COMPUTE, tenant_scope("alice")})
    token_bob = auth.issue_token(identity, {SCOPE_COMPUTE, tenant_scope("bob")})
    pool = WorkerPool(testbed.theta_compute, 3, name="router-pool")
    endpoint = FaasEndpoint(
        "theta", router, endpoint_token, testbed.theta_login, pool
    ).start()
    alice = FaasClient(router, token_alice, site=testbed.theta_login, tenant="alice")
    bob = FaasClient(router, token_bob, site=testbed.theta_login, tenant="bob")
    yield testbed, auth, identity, router, endpoint, alice, bob
    alice.close()
    bob.close()
    endpoint.stop()


def test_two_tenants_share_one_endpoint(rig):
    testbed, _auth, _identity, router, endpoint, alice, bob = rig
    with at_site(testbed.theta_login):
        fa = [alice.run(_add, endpoint.endpoint_id, i, 1) for i in range(5)]
        fb = [bob.run(_mul, endpoint.endpoint_id, i, 2) for i in range(5)]
    assert [f.result(timeout=60) for f in fa] == [i + 1 for i in range(5)]
    assert [f.result(timeout=60) for f in fb] == [i * 2 for i in range(5)]
    records = router.task_records()
    assert len(records) == 10
    assert all(record.status.terminal for record in records)
    assert {record.tenant for record in records} == {"alice", "bob"}


def test_task_ids_route_back_to_their_shard(rig):
    testbed, _auth, _identity, router, endpoint, alice, _bob = rig
    with at_site(testbed.theta_login):
        futures = [alice.run(_add, endpoint.endpoint_id, i, i) for i in range(4)]
        for f in futures:
            f.result(timeout=60)
    for record in router.task_records():
        shard_id = record.task_id.split("-")[1]
        assert shard_id in router.shard_ids
        assert router.task(record.task_id).task_id == record.task_id
        # Locators carry the owning shard's prefix and resolve via the
        # routed store facade.
        assert record.args_locator.startswith(f"{shard_id}/")


def test_functions_are_partitioned_across_shards(rig):
    testbed, auth, identity, router, _endpoint, _alice, _bob = rig
    token = auth.issue_token(identity, {SCOPE_COMPUTE})
    with at_site(testbed.theta_login):
        func_ids = [
            router.register_function(token, serialize(_add), name=f"fn{i}")
            for i in range(24)
        ]
    owners = {
        router._shard_for_partition("default", func_id) for func_id in func_ids
    }
    assert len(owners) > 1  # 24 functions over 3 shards: never all on one


def test_tenant_cannot_call_another_tenants_function(rig):
    testbed, _auth, _identity, router, endpoint, alice, bob = rig
    with at_site(testbed.theta_login):
        func_id = alice.register_function(_add)
        with pytest.raises(WorkflowError, match="unknown function"):
            router.submit(
                bob.token,
                bob.client_id,
                func_id,
                endpoint.endpoint_id,
                serialize(((1, 2), {})),
                tenant="bob",
            )


def test_token_without_tenant_scope_is_rejected(rig):
    testbed, auth, identity, router, _endpoint, _alice, _bob = rig
    bare = auth.issue_token(identity, {SCOPE_COMPUTE})
    with at_site(testbed.theta_login):
        with pytest.raises(AuthorizationError):
            router.register_function(bare, serialize(_add), tenant="alice")


def test_unknown_tenant_and_bad_names_rejected_at_the_router(rig):
    testbed, _auth, _identity, router, endpoint, alice, _bob = rig
    with at_site(testbed.theta_login):
        with pytest.raises(InvalidTenantError):
            router.register_function(alice.token, serialize(_add), tenant="NOT VALID")
        with pytest.raises(InvalidFunctionError):
            router.register_function(
                alice.token, serialize(_add), name="not a function name"
            )
        func_id = alice.register_function(_add)
        with pytest.raises(InvalidTenantError):
            router.submit(
                alice.token,
                alice.client_id,
                func_id,
                endpoint.endpoint_id,
                serialize(((1, 2), {})),
                tenant="Bad Tenant",
            )


def test_routed_store_is_read_only_and_validates_prefixes(rig):
    _testbed, _auth, _identity, router, _endpoint, _alice, _bob = rig
    with pytest.raises(WorkflowError):
        router.store.write(serialize({"x": 1}))
    with pytest.raises(WorkflowError):
        router.store.read("redis:no-shard-prefix")


def test_add_shard_migrates_a_fraction_of_functions(rig):
    testbed, auth, identity, router, endpoint, alice, _bob = rig
    token = auth.issue_token(identity, {SCOPE_COMPUTE})
    with at_site(testbed.theta_login):
        func_ids = [
            router.register_function(token, serialize(_add), name=f"g{i}")
            for i in range(30)
        ]
        before = {
            func_id: router._shard_for_partition("default", func_id)
            for func_id in func_ids
        }
        new_shard = router.add_shard()
        assert new_shard in router.shard_ids
        moved = [
            func_id
            for func_id in func_ids
            if router._shard_for_partition("default", func_id) != before[func_id]
        ]
        # Some but not all registrations follow the ring to the new shard,
        # and every one of them still resolves there.
        assert 0 < len(moved) < len(func_ids)
        for func_id in moved:
            assert router.get_function(token, func_id) is not None
        # The grown cloud still executes work end to end (new shard adopted
        # the existing endpoint).
        future = alice.run(_add, endpoint.endpoint_id, 20, 22)
        assert future.result(timeout=60) == 42


def test_function_name_derived_and_sanitized(rig):
    testbed, _auth, _identity, _router, _endpoint, alice, _bob = rig
    with at_site(testbed.theta_login):
        named = alice.register_function(_add)
        assert named.startswith("fn-_add-")
        # A callable whose __name__ fails validation (lambda-style)
        # registers anonymously instead of erroring.
        weird = _mul
        weird.__name__ = "<lambda>"
        try:
            anonymous = alice.register_function(weird)
        finally:
            weird.__name__ = "_mul"
        assert anonymous.startswith("fn-") and "<" not in anonymous


def test_batched_result_read_scatters_by_shard_and_survives_a_dark_one(testbed):
    """``get_result_payloads`` across two shards: outcomes come back in the
    order the ids went in, a shard inside an outage window still serves its
    results (reads are never gated), and a shard whose call fails outright
    fails only its own members."""
    from repro.exceptions import ShardUnavailableError
    from repro.faas.cloud import TaskStatus

    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
    router = CloudRouter(
        testbed.faas_cloud, testbed.network, auth, testbed.constants, n_shards=2
    )
    endpoint_id = router.register_endpoint(token, "theta", testbed.theta_compute)
    # Functions hash to shards: register until both shards own one.
    owners: dict[str, str] = {}
    while len(owners) < 2:
        func_id = router.register_function(token, serialize(_add))
        owners.setdefault(router._shard_for_partition("default", func_id), func_id)
    task_ids = [
        router.submit(token, "c", owners[shard_id], endpoint_id, serialize(((n, n), {})))
        for n, shard_id in enumerate(["s0", "s1", "s0", "s1"])
    ]
    for dispatch in router.fetch_tasks(token, endpoint_id, 10):
        router.report_result(
            token, endpoint_id, dispatch.task_id, True, serialize({"id": dispatch.task_id})
        )

    def ids_read(outcomes):
        return [
            deserialize(o[1])["id"] if isinstance(o, tuple) else type(o)
            for o in outcomes
        ]

    asked = [task_ids[3], task_ids[0], "task-s9-00000000", task_ids[1], task_ids[2]]
    aligned = [task_ids[3], task_ids[0], WorkflowError, task_ids[1], task_ids[2]]
    outcomes = router.get_result_payloads(token, asked)
    assert ids_read(outcomes) == aligned
    assert all(o[0] is TaskStatus.SUCCESS for o in outcomes if isinstance(o, tuple))

    router._begin_outage("s1")  # admission is dark; the data plane is not
    assert ids_read(router.get_result_payloads(token, asked)) == aligned

    def down(_token, _task_ids):
        raise ShardUnavailableError("shard s1 is gone", retry_after=1.0)

    router.shard("s1").download_round = down
    assert ids_read(router.get_result_payloads(token, asked)) == [
        ShardUnavailableError,
        task_ids[0],
        WorkflowError,
        ShardUnavailableError,
        task_ids[2],
    ]
    with pytest.raises(ShardUnavailableError):
        router.get_result_payload(token, task_ids[1])


def test_an_idle_fetch_sweeps_each_shard_once_and_answers_at_once(testbed):
    """Nothing is queued: the fetch asks every live shard once and returns
    empty without moving a clock that only moves when told."""
    clock = ManualClock()
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
    router = CloudRouter(
        testbed.faas_cloud, testbed.network, auth, testbed.constants, clock, n_shards=2
    )
    endpoint_id = router.register_endpoint(token, "idle", testbed.theta_compute)
    swept = []
    for shard_id in router.shard_ids:
        shard = router.shard(shard_id)
        fetch = shard.fetch_tasks

        def counted(*args, shard_id=shard_id, fetch=fetch):
            swept.append(shard_id)
            return fetch(*args)

        shard.fetch_tasks = counted
    assert router.fetch_tasks(token, endpoint_id, 10) == []
    assert clock.now() == 0.0
    assert sorted(swept) == ["s0", "s1"]
