"""A call pays once for what its members share.

One submit round's members share their tenant's partitions, their
endpoints and, with chaos off, every fault hook: the router resolves each
partition once and builds no fault key, and the shard places each endpoint
once.  The route memo follows the ring when it grows.
"""

from __future__ import annotations

import hashlib
import types

from conftest import ManualClock, hardened_router

from repro.faas.cloud import TaskSubmission
from repro.resilience import EndpointHealthTracker
from repro.serialize import serialize
from repro.tenancy import router as router_module
from repro.tenancy.hashring import HashRing, partition_key


def _one_function_per_shard(router, token, tenant):
    """Register functions until each shard owns one; returns them by shard."""
    functions: dict[str, str] = {}
    for n in range(64):
        func_id = f"fn-len-{n}"
        shard_id = router._ring.node_for(partition_key(tenant, func_id))
        if shard_id not in functions:
            router.register_function(token, serialize(len), tenant=tenant, func_id=func_id)
            functions[shard_id] = func_id
    assert sorted(functions) == router.shard_ids
    return functions


def _items(func_ids, endpoint_ids, n, first=0):
    return [
        TaskSubmission(
            func_ids[i % len(func_ids)],
            endpoint_ids[i // len(func_ids) % len(endpoint_ids)],
            serialize(((first + i,), {})),
            chaos_key=f"{first + i:016x}#a0",
        )
        for i in range(n)
    ]


def _counting(monkeypatch, owner, name, counts):
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_a_submit_round_routes_and_places_once_per_shared_key(monkeypatch):
    clock = ManualClock()
    router, token, tenant, _, endpoint_ids = hardened_router(
        clock, n_functions=0, n_endpoints=2
    )
    functions = _one_function_per_shard(router, token, tenant)
    counts: dict[str, int] = {}
    _counting(monkeypatch, HashRing, "node_for", counts)
    _counting(monkeypatch, EndpointHealthTracker, "evaluate", counts)
    hashes: list[bytes] = []
    monkeypatch.setattr(
        router_module,
        "hashlib",
        types.SimpleNamespace(
            sha256=lambda data: hashes.append(data) or hashlib.sha256(data)
        ),
    )

    ids = router.submit_batch(
        token, "client", _items(list(functions.values()), endpoint_ids, 32), tenant=tenant
    )

    assert all(isinstance(task_id, str) for task_id in ids)
    assert counts["node_for"] == 2  # once per partition, not per member
    # Each shard round evaluates both breakers twice: the lease sweep that
    # every submit runs, then one placement per endpoint for its 16 members.
    assert counts["evaluate"] == 2 * (2 + 2)
    assert hashes == []  # chaos off: no fault key is built at admission


def test_a_partition_the_ring_moved_routes_to_its_new_shard():
    clock = ManualClock()
    router, token, tenant, _, (endpoint_id,) = hardened_router(clock, n_functions=0)
    func_ids = [f"fn-len-{n}" for n in range(24)]
    for func_id in func_ids:
        router.register_function(token, serialize(len), tenant=tenant, func_id=func_id)
    # Every partition routed once, so each has a remembered shard.
    first = router.submit_batch(
        token, "client", _items(func_ids, [endpoint_id], len(func_ids)), tenant=tenant
    )
    before = {task_id.split("-")[1] for task_id in first}
    assert before == {"s0", "s1"}

    new_shard = router.add_shard()
    moved = [
        func_id
        for func_id in func_ids
        if router._ring.node_for(partition_key(tenant, func_id)) == new_shard
    ]
    assert moved  # consistent hashing moves about a third of them
    again = router.submit_batch(
        token,
        "client",
        _items(moved, [endpoint_id], len(moved), first=len(func_ids)),
        tenant=tenant,
    )
    assert [task_id.split("-")[1] for task_id in again] == [new_shard] * len(moved)
