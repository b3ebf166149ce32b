"""Tests for the byte-budgeted LRU :class:`SiteCache`."""

import pytest

from repro.observe import MetricsRegistry, set_metrics
from repro.proxystore import SiteCache


@pytest.fixture
def metrics():
    registry = MetricsRegistry()
    set_metrics(registry)
    yield registry
    set_metrics(None)


def test_byte_budget_is_never_exceeded():
    cache = SiteCache(100)
    for i in range(50):
        cache.put(f"k{i}", i, 30)
        assert cache.bytes_used <= 100
    stats = cache.stats()
    assert stats.bytes_used <= stats.bytes_budget
    assert stats.entries == 3  # 3 x 30 fits, a 4th would overflow


def test_lru_evicts_least_recently_used():
    cache = SiteCache(100)
    cache.put("a", 1, 40)
    cache.put("b", 2, 40)
    assert cache.get("a") == (True, 1)  # touch a; b is now LRU
    cache.put("c", 3, 40)
    assert cache.contains("a") and cache.contains("c")
    assert not cache.contains("b")


def test_pinned_entries_survive_pressure():
    cache = SiteCache(100)
    cache.put("weights", b"w", 60, pin=True)
    for i in range(10):
        cache.put(f"input{i}", i, 30)
        assert cache.contains("weights")
    stats = cache.stats()
    assert stats.pinned == 1
    assert stats.bytes_used <= 100


def test_insert_rejected_when_pinned_fill_budget():
    cache = SiteCache(100)
    cache.put("w1", 1, 50, pin=True)
    cache.put("w2", 2, 50, pin=True)
    assert not cache.put("x", 3, 10)
    assert cache.stats().rejected == 1
    assert cache.contains("w1") and cache.contains("w2")


def test_oversized_insert_rejected_outright():
    cache = SiteCache(100)
    cache.put("a", 1, 50)
    assert not cache.put("big", 2, 101)
    assert cache.contains("a")  # nothing was evicted for a doomed insert


def test_reinsert_replaces_in_place_and_keeps_pin():
    cache = SiteCache(100)
    cache.put("k", 1, 40, pin=True)
    cache.put("k", 2, 60)
    assert cache.get("k") == (True, 2)
    stats = cache.stats()
    assert stats.bytes_used == 60
    assert stats.pinned == 1  # pin sticks across re-insert


def test_max_entries_still_enforced():
    cache = SiteCache(10_000, max_entries=2)
    cache.put("a", 1, 10)
    cache.put("b", 2, 10)
    cache.put("c", 3, 10)
    assert len(cache) == 2
    assert not cache.contains("a")


def test_zero_budget_disables_cache():
    cache = SiteCache(0)
    assert not cache.enabled
    assert not cache.put("k", 1, 10)
    assert cache.get("k") == (False, None)


def test_pin_unpin_lifecycle():
    cache = SiteCache(100)
    cache.put("k", 1, 50)
    assert cache.pin("k")
    cache.put("other", 2, 60)  # must evict, but k is pinned -> rejected
    assert cache.contains("k")
    assert cache.unpin("k")
    cache.put("other", 2, 60)
    assert not cache.contains("k")
    assert not cache.pin("ghost")
    assert not cache.unpin("ghost")


def test_evictions_reconcile_with_inserts_minus_residents(metrics):
    cache = SiteCache(100, store="s", site="x")
    for i in range(20):
        cache.put(f"k{i}", i, 25)  # unique keys: every insert is new
    stats = cache.stats()
    assert stats.inserts == 20
    assert stats.inserts - stats.entries == stats.evictions
    assert metrics.counter_total("store.evictions") == stats.evictions
    # Occupancy gauge matches the stats snapshot.
    gauges = {n: g.value for n, labels, g in metrics.gauges() if n == "store.cache_bytes"}
    assert gauges["store.cache_bytes"] == stats.bytes_used


def test_explicit_evict(metrics):
    cache = SiteCache(100, store="s", site="x")
    cache.put("k", 1, 10)
    assert cache.evict("k")
    assert not cache.evict("k")
    assert cache.stats().entries == 0
