"""Consistent hashing for the sharded control plane.

State at the cloud — function registry entries, task queues, result-store
objects — is partitioned across shards by the key ``"<tenant>/<function>"``,
so one submit touches exactly one shard (registry check, payload write, and
queue append all live together) and the shard set can grow without a global
re-shuffle: a ring with ``replicas`` virtual nodes per shard moves only
about ``1/(N+1)`` of the keyspace when an (N+1)-th shard joins, which the
Function-Delivery-Network-style router relies on to scale horizontally.

Hashing is SHA-256-based (:mod:`hashlib`), never the salted builtin
``hash``, so placement is identical across processes and runs — a property
the chaos campaign's ledger-digest determinism check depends on.
"""

from __future__ import annotations

import bisect
import hashlib

from repro.exceptions import WorkflowError

__all__ = ["HashRing", "partition_key"]


def partition_key(tenant: str, func_id: str) -> str:
    """The ring key for one (tenant, function) partition."""
    return f"{tenant}/{func_id}"


def _point(text: str) -> int:
    """Map ``text`` to a stable position on the 64-bit ring."""
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


class HashRing:
    """A consistent-hash ring of named nodes with virtual replicas.

    Not thread-safe by itself; the router mutates it only at construction
    and under its own lock when shards join.
    """

    def __init__(self, nodes: list[str] | None = None, *, replicas: int = 64) -> None:
        if replicas <= 0:
            raise WorkflowError(f"replicas must be positive, got {replicas}")
        self._replicas = replicas
        self._points: list[int] = []  # sorted ring positions
        self._owners: dict[int, str] = {}  # position -> node name
        self._nodes: set[str] = set()
        for node in nodes or ():
            self.add_node(node)

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def add_node(self, node: str) -> None:
        if node in self._nodes:
            raise WorkflowError(f"node {node!r} is already on the ring")
        self._nodes.add(node)
        for replica in range(self._replicas):
            point = _point(f"{node}#{replica}")
            # A 64-bit collision between distinct (node, replica) labels is
            # vanishingly unlikely; first writer keeps the point.
            if point not in self._owners:
                self._owners[point] = node
                bisect.insort(self._points, point)

    def node_for(self, key: str) -> str:
        """The node owning ``key``: the first ring point at or clockwise
        after the key's own position (wrapping at the top)."""
        if not self._points:
            raise WorkflowError("hash ring has no nodes")
        point = _point(key)
        index = bisect.bisect_right(self._points, point)
        if index == len(self._points):
            index = 0
        return self._owners[self._points[index]]
