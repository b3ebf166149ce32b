"""Byte-budgeted per-site proxy caches.

The seed's per-site ``_LRU`` counted *entries*, so one 2.4 GB model weight
and one 10 kB fingerprint chunk cost the same cache slot — and a site could
hold arbitrarily many bytes.  :class:`SiteCache` charges entries their
nominal payload size against a per-site byte budget and, under pressure,
evicts the least-recently-used unpinned entry.

Pinned entries (ahead-of-time staged model weights) are never chosen as
victims; an insert that cannot free enough unpinned bytes is *rejected*
rather than overflowing, so occupancy never exceeds the budget.

Occupancy and eviction decisions are exported through :mod:`repro.observe`
(``store.cache_bytes`` gauge, ``store.evictions{reason=}`` counter) so a
campaign can reconcile inserts against residents + evictions.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.net.clock import get_clock
from repro.observe import counter_inc, gauge_set

__all__ = ["CacheEntry", "SiteCache"]


@dataclass
class CacheEntry:
    """One resident object plus the metadata eviction ranks it by."""

    value: object
    nbytes: int
    last_access: float
    pinned: bool = False


@dataclass
class CacheStats:
    """Plain-data occupancy snapshot (tests and reports)."""

    entries: int
    bytes_used: int
    bytes_budget: int
    pinned: int
    inserts: int
    evictions: int
    rejected: int
    residents: tuple[str, ...] = field(default_factory=tuple)


class SiteCache:
    """Thread-safe byte-budgeted cache for one (store, site) pair."""

    def __init__(
        self,
        budget_bytes: int,
        *,
        max_entries: int | None = None,
        store: str = "",
        site: str = "",
    ) -> None:
        self.budget_bytes = int(budget_bytes)
        self.max_entries = max_entries
        self._store = store
        self._site = site
        self._entries: dict[str, CacheEntry] = {}
        self._bytes = 0
        self._inserts = 0
        self._evictions = 0
        self._rejected = 0
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self.budget_bytes > 0 and (
            self.max_entries is None or self.max_entries > 0
        )

    # -- internal (all called under self._lock) -----------------------------
    def _drop(self, key: str, reason: str) -> None:
        entry = self._entries.pop(key)
        self._bytes -= entry.nbytes
        self._evictions += 1
        counter_inc(
            "store.evictions", reason=reason, store=self._store, site=self._site
        )

    def _victim(self) -> str | None:
        """Key of the least-recently-used unpinned entry (None if all pinned)."""
        candidates = [
            (e.last_access, k) for k, e in self._entries.items() if not e.pinned
        ]
        return min(candidates)[1] if candidates else None

    def _publish_occupancy(self) -> None:
        gauge_set(
            "store.cache_bytes", self._bytes, store=self._store, site=self._site
        )

    # -- cache API ----------------------------------------------------------
    def get(self, key: str) -> tuple[bool, object]:
        now = get_clock().now()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._publish_occupancy()
                return False, None
            entry.last_access = now
            return True, entry.value

    def put(self, key: str, value: object, nbytes: int, *, pin: bool = False) -> bool:
        """Insert ``value`` charging ``nbytes``; returns False when rejected.

        Victims are evicted (reason ``pressure``) until the newcomer fits;
        if the remaining residents are all pinned and the budget still
        cannot absorb it, the insert is rejected and nothing changes.
        """
        if not self.enabled:
            return False
        nbytes = max(int(nbytes), 0)
        now = get_clock().now()
        with self._lock:
            previous = self._entries.get(key)
            if previous is not None:
                # Re-insert: replace in place (budget charged at new size).
                self._bytes -= previous.nbytes
                del self._entries[key]
                pin = pin or previous.pinned
            if nbytes > self.budget_bytes:
                self._rejected += 1
                counter_inc(
                    "store.cache_rejected", store=self._store, site=self._site
                )
                self._publish_occupancy()
                return False
            while self._bytes + nbytes > self.budget_bytes or (
                self.max_entries is not None
                and len(self._entries) >= self.max_entries
            ):
                victim = self._victim()
                if victim is None:
                    self._rejected += 1
                    counter_inc(
                        "store.cache_rejected", store=self._store, site=self._site
                    )
                    self._publish_occupancy()
                    return False
                self._drop(victim, "pressure")
            self._entries[key] = CacheEntry(
                value=value,
                nbytes=nbytes,
                last_access=now,
                pinned=pin,
            )
            self._bytes += nbytes
            self._inserts += 1
            self._publish_occupancy()
            return True

    def evict(self, key: str, reason: str = "explicit") -> bool:
        with self._lock:
            if key not in self._entries:
                return False
            self._drop(key, reason)
            self._publish_occupancy()
            return True

    def pin(self, key: str) -> bool:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return False
            entry.pinned = True
            return True

    def unpin(self, key: str) -> bool:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return False
            entry.pinned = False
            return True

    def contains(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def bytes_used(self) -> int:
        with self._lock:
            return self._bytes

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                entries=len(self._entries),
                bytes_used=self._bytes,
                bytes_budget=self.budget_bytes,
                pinned=sum(1 for e in self._entries.values() if e.pinned),
                inserts=self._inserts,
                evictions=self._evictions,
                rejected=self._rejected,
                residents=tuple(self._entries),
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SiteCache(site={self._site!r}, "
            f"bytes={self._bytes}/{self.budget_bytes}, entries={len(self)})"
        )
