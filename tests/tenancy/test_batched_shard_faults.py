"""Shard faults at admission, under batching.

A coalesced submit crosses the router as one call whose members hash to
different shards.  The ``cloud.shard.crash`` / ``cloud.shard.drop`` hooks
are evaluated per member: the member they hit comes back throttled and the
client's batch throttle loop re-sends it alone, while its batch-mates on
the other shard are admitted by the first call.
"""

from __future__ import annotations

import pytest

from repro.batch import BatchPolicy
from repro.chaos.plan import FaultInjector, FaultPlan, FaultSpec, set_injector
from repro.durable import FileJournalBackend, Journal
from repro.exceptions import ShardUnavailableError
from repro.faas import SCOPE_COMPUTE, AuthServer, FaasClient, FaasEndpoint
from repro.net.context import at_site
from repro.net.fs import FileSystem
from repro.observe import MetricsRegistry, set_metrics
from repro.resources import WorkerPool
from repro.serialize import serialize
from repro.tenancy import CloudRouter, tenant_scope

#: Parks every submission until the test flushes: one deterministic batch.
PARKED = BatchPolicy(max_batch=64, max_bytes=1 << 30, flush_deadline=600.0, min_hold=600.0)


def _add(a, b):
    return a + b


@pytest.fixture
def rig(testbed):
    metrics = MetricsRegistry()
    set_metrics(metrics)
    auth = AuthServer()
    identity = auth.register_identity("u", "anl")
    wal = FileSystem("shard-wal", op_latency=1e-3)
    router = CloudRouter(
        testbed.faas_cloud,
        testbed.network,
        auth,
        testbed.constants,
        n_shards=2,
        journal_factory=lambda shard_id: Journal(
            FileJournalBackend(wal, shard_id), name=shard_id
        ),
    )
    router.create_tenant("alice")
    token = auth.issue_token(identity, {SCOPE_COMPUTE, tenant_scope("alice")})
    # One function per shard: ids are assigned here, so placement is fixed.
    functions: dict[str, str] = {}
    for n in range(64):
        func_id = f"fn-add-{n}"
        functions.setdefault(router._shard_for_partition("alice", func_id), func_id)
    assert sorted(functions) == ["s0", "s1"]
    for func_id in functions.values():
        router.register_function(token, serialize(_add), tenant="alice", func_id=func_id)
    pool = WorkerPool(testbed.theta_compute, 2, name="fault-pool")
    endpoint = FaasEndpoint(
        "theta",
        router,
        auth.issue_token(identity, {SCOPE_COMPUTE}),
        testbed.theta_login,
        pool,
    ).start()
    client = FaasClient(
        router, token, site=testbed.theta_login, tenant="alice", batch=PARKED
    )
    yield testbed, router, endpoint, client, functions, metrics
    client.close()
    endpoint.stop()


@pytest.mark.parametrize("hook", ["cloud.shard.crash", "cloud.shard.drop"])
def test_shard_fault_hits_one_member_of_a_batched_submit(rig, hook):
    testbed, router, endpoint, client, functions, metrics = rig
    injector = FaultInjector(
        FaultPlan.build(0, [FaultSpec(hook, "shard_fault", match={"shard": "s0"})])
    )
    set_injector(injector)
    calls: list[list] = []
    submit_batch = router.submit_batch

    def recording_submit_batch(*args, then, **kwargs):
        def recorded(answer):
            calls.append(list(answer))
            then(answer)

        return submit_batch(*args, then=recorded, **kwargs)

    router.submit_batch = recording_submit_batch

    # Member 0 lives on s0 (the keyed member); its three batch-mates on s1.
    targets = [functions["s0"]] + [functions["s1"]] * 3
    with at_site(testbed.theta_login):
        futures = [
            client.submit(func_id, endpoint.endpoint_id, i, 10)
            for i, func_id in enumerate(targets)
        ]
        assert client.flush_batches() == 4
    assert [f.result(timeout=60) for f in futures] == [10, 11, 12, 13]

    # One fire, on the keyed member; the retry of the same key cannot re-fire.
    assert injector.fire_count(hook=hook) == 1
    first, retry = calls
    assert isinstance(first[0], ShardUnavailableError)
    assert all(isinstance(outcome, str) for outcome in first[1:])
    assert [type(outcome) for outcome in retry] == [str]
    assert metrics.counter_total("client.throttled") == 1
    # Nobody lost, nobody split off into the failure-retry path or run twice.
    assert metrics.counter_total("client.batch_splits") == 0
    assert metrics.counter_total("client.retries") == 0
    assert metrics.counter_total("cloud.submits") == 4
    assert metrics.counter_total("endpoint.executions") == 4
    usage = router.registry.get("alice").usage
    assert (usage.in_flight, usage.queued_bytes) == (0, 0)
    if hook == "cloud.shard.crash":
        assert metrics.counter_total("cloud.shard_crashes") == 1
        assert metrics.counter_total("durable.recoveries") == 1
    else:
        assert metrics.counter_total("cloud.shard_outages") == 1
        assert metrics.counter_total("durable.recoveries") == 0
