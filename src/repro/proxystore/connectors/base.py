"""Connector protocol: the pluggable transport under a ProxyStore store.

A connector moves opaque :class:`repro.serialize.Payload` blobs keyed by
string.  Latency/bandwidth charging happens *inside* the connector, on the
calling thread, based on where that thread runs — so a ``get`` from a worker
on the GPU cluster pays different costs than the same ``get`` from the
Thinker's login node, with no cooperation from the caller.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.serialize import Payload

__all__ = ["Connector"]


class Connector(ABC):
    """Abstract payload store."""

    #: Human-readable backend kind ("redis", "file", "globus").
    kind: str = "abstract"

    @abstractmethod
    def put(self, key: str, payload: Payload) -> None:
        """Store ``payload`` under ``key`` (charges the caller's time)."""

    @abstractmethod
    def get(self, key: str, timeout: float | None = None) -> Payload:
        """Fetch the payload for ``key``; may block while data is in flight
        (e.g. a pending wide-area transfer).  Raises
        :class:`repro.exceptions.StoreError` if the key is unknown."""

    @abstractmethod
    def exists(self, key: str) -> bool:
        """Whether ``key`` is present (from the caller's vantage point)."""

    @abstractmethod
    def evict(self, key: str) -> None:
        """Best-effort removal of ``key`` everywhere."""

    def put_batch(self, items: dict[str, Payload]) -> None:
        """Store several payloads at once.

        The default is a loop of :meth:`put`; the Globus backend inverts
        that (``put`` is ``put_batch`` of one) so that one batch is one
        transfer task per destination — the paper's §V-D1 remedy for the
        per-user concurrent-transfer limit.
        """
        for key, payload in items.items():
            self.put(key, payload)

    def get_batch(
        self, keys: "list[str] | tuple[str, ...]", timeout: float | None = None
    ) -> dict[str, Payload]:
        """Fetch several payloads at once (the read-side twin of
        :meth:`put_batch`, used by cache prefetch).

        The default is a loop of :meth:`get`; backends whose reads block on
        per-task waits (managed transfers) override this to wait each
        underlying transfer task once instead of once per key.
        """
        return {key: self.get(key, timeout=timeout) for key in keys}

    def close(self) -> None:
        """Release resources; default no-op."""
