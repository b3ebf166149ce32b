"""Consistent-hashing properties the sharded control plane depends on."""

import pytest

from repro.exceptions import WorkflowError
from repro.tenancy import HashRing, partition_key


def test_empty_ring_rejects_lookups():
    with pytest.raises(WorkflowError):
        HashRing().node_for("anything")


def test_duplicate_node_rejected():
    ring = HashRing(["s0"])
    with pytest.raises(WorkflowError):
        ring.add_node("s0")


def test_placement_is_deterministic_across_instances():
    keys = [partition_key(f"tenant-{i % 3}", f"fn-{i}") for i in range(200)]
    ring_a = HashRing(["s0", "s1", "s2"])
    ring_b = HashRing(["s2", "s0", "s1"])  # insertion order must not matter
    assert [ring_a.node_for(k) for k in keys] == [ring_b.node_for(k) for k in keys]


def test_every_node_owns_a_reasonable_share():
    ring = HashRing(["s0", "s1", "s2", "s3"])
    keys = [partition_key("t", f"fn-{i}") for i in range(2000)]
    counts = {node: 0 for node in ring.nodes}
    for key in keys:
        counts[ring.node_for(key)] += 1
    # With 64 virtual replicas the shares are rough but nobody should own
    # less than a third or more than double the fair share.
    for node, count in counts.items():
        assert 2000 / 4 / 3 < count < 2000 / 4 * 2, (node, counts)


def test_adding_a_shard_moves_about_one_over_n_keys():
    n = 4
    keys = [partition_key(f"tenant-{i % 5}", f"fn-{i}") for i in range(3000)]
    ring = HashRing([f"s{i}" for i in range(n)])
    before = {key: ring.node_for(key) for key in keys}
    ring.add_node(f"s{n}")
    moved = sum(1 for key in keys if ring.node_for(key) != before[key])
    fair = len(keys) / (n + 1)
    # Consistent hashing: ~1/(N+1) of keys move, never a global reshuffle.
    assert fair * 0.5 < moved < fair * 2.0, moved
    # And every moved key lands on the new shard, nothing shuffles between
    # the existing shards.
    for key in keys:
        owner = ring.node_for(key)
        assert owner == before[key] or owner == f"s{n}"
