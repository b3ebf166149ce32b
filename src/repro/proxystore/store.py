"""The ProxyStore ``Store``: serialize, place, proxy, prefetch, resolve, cache.

``Store.proxy(obj)`` is the one-line pass-by-reference primitive from the
paper: the object is serialized (charged), placed in the backend connector
(charged), and a transparent :class:`~repro.proxystore.proxy.Proxy` wrapping
a :class:`StoreFactory` is returned.  The factory carries only the store
name and key, so it pickles to a couple hundred bytes; on resolution it
looks the store up in the process-global registry — the stand-in for how
real ProxyStore re-instantiates stores from serialized config on remote
workers.

The read path is a real data plane, not just a lazy fetch:

* a byte-budgeted, policy-driven :class:`~repro.proxystore.cache.SiteCache`
  per site (LRU/LFU/TTL, pinned entries for model weights) sits in front of
  the connector;
* :meth:`Store.prefetch` warms a *remote* site's cache ahead of the tasks
  that will resolve there (driven by
  :class:`~repro.proxystore.prefetch.PrefetchHint` riding task envelopes),
  so the first resolve on a hinted site is a cache hit — the mechanism
  behind the paper's sub-100 ms proxy resolutions;
* concurrent misses on one ``(site, key)`` coalesce onto a single connector
  fetch (single-flight), so an N-worker inference fan-out landing on a cold
  site pays one wire transfer instead of N.
"""

from __future__ import annotations

import threading
import uuid
from collections import deque

from repro.bench.recording import emit
from repro.chaos.plan import chaos_check
from repro.chaos.policy import RetryPolicy
from repro.exceptions import RetryExhaustedError, StoreError
from repro.net.clock import get_clock
from repro.net.context import SiteThread, current_site
from repro.net.topology import Site
from repro.observe import counter_inc, observe, trace_span
from repro.proxystore.cache import CacheStats, SiteCache
from repro.proxystore.connectors.base import Connector
from repro.proxystore.proxy import Factory, Proxy
from repro.serialize import (
    Payload,
    deserialize,
    deserialize_cost,
    serialize,
    serialize_cost,
)

__all__ = [
    "Store",
    "StoreFactory",
    "StoreMetrics",
    "PrefetchHandle",
    "register_store",
    "unregister_store",
    "get_store",
    "clear_store_registry",
]

#: Default per-site cache budget (nominal bytes).  Large enough for a few
#: model-weight generations; small enough that a long campaign's one-shot
#: inference inputs are forced through the eviction policy.
DEFAULT_CACHE_BYTES = 256_000_000

_registry: dict[str, "Store"] = {}
_registry_lock = threading.Lock()


def register_store(store: "Store", *, exist_ok: bool = False) -> "Store":
    """Publish a store under its name for factory lookups."""
    with _registry_lock:
        if store.name in _registry and not exist_ok:
            raise StoreError(f"a store named {store.name!r} is already registered")
        _registry[store.name] = store
    return store


def unregister_store(name: str) -> None:
    with _registry_lock:
        _registry.pop(name, None)


def get_store(name: str) -> "Store":
    with _registry_lock:
        try:
            return _registry[name]
        except KeyError:
            raise StoreError(f"no registered store named {name!r}") from None


def clear_store_registry() -> None:
    """Remove every registered store (test isolation)."""
    with _registry_lock:
        _registry.clear()


#: Per-operation timing samples kept for medians; totals are exact counts.
_RESERVOIR_SIZE = 512


class StoreMetrics:
    """Aggregated per-operation timings, in nominal seconds.

    Totals (operation and byte counts, hit/miss/coalesce counters) are
    exact; the per-sample lists backing the medians are bounded reservoirs
    of the most recent :data:`_RESERVOIR_SIZE` operations, so a
    campaign-length run holds a constant amount of memory instead of one
    float per task ever executed.
    """

    def __init__(self) -> None:
        self.puts = 0
        self.gets = 0
        self.put_bytes_total = 0
        self.get_bytes_total = 0
        self.cache_hits = 0
        self.cache_misses = 0
        #: Misses served by another thread's in-flight fetch (single-flight).
        self.coalesced = 0
        self._put_times: deque[float] = deque(maxlen=_RESERVOIR_SIZE)
        self._get_times: deque[float] = deque(maxlen=_RESERVOIR_SIZE)
        self._put_bytes: deque[int] = deque(maxlen=_RESERVOIR_SIZE)
        self._get_bytes: deque[int] = deque(maxlen=_RESERVOIR_SIZE)
        self._lock = threading.Lock()

    # Recent-window views, kept for compatibility with readers that want
    # raw samples (plots, percentile checks).
    @property
    def put_times(self) -> list[float]:
        with self._lock:
            return list(self._put_times)

    @property
    def get_times(self) -> list[float]:
        with self._lock:
            return list(self._get_times)

    @property
    def put_bytes(self) -> list[int]:
        with self._lock:
            return list(self._put_bytes)

    @property
    def get_bytes(self) -> list[int]:
        with self._lock:
            return list(self._get_bytes)

    def record_put(self, seconds: float, nbytes: int) -> None:
        with self._lock:
            self.puts += 1
            self.put_bytes_total += nbytes
            self._put_times.append(seconds)
            self._put_bytes.append(nbytes)

    def record_get(
        self, seconds: float, nbytes: int, cache_hit: bool, *, coalesced: bool = False
    ) -> None:
        with self._lock:
            self.gets += 1
            self.get_bytes_total += nbytes
            self._get_times.append(seconds)
            self._get_bytes.append(nbytes)
            if coalesced:
                self.coalesced += 1
            if cache_hit:
                self.cache_hits += 1
            else:
                self.cache_misses += 1

    def summary(self) -> dict[str, float]:
        import statistics

        with self._lock:
            put_times = list(self._put_times)
            get_times = list(self._get_times)
            return {
                "puts": self.puts,
                "gets": self.gets,
                "put_median_s": statistics.median(put_times) if put_times else 0.0,
                "get_median_s": statistics.median(get_times) if get_times else 0.0,
                "cache_hit_rate": (
                    self.cache_hits / (self.cache_hits + self.cache_misses)
                    if (self.cache_hits + self.cache_misses)
                    else 0.0
                ),
                "coalesced": self.coalesced,
            }


class _Flight:
    """One in-flight connector fetch that concurrent misses latch onto."""

    __slots__ = ("event", "value", "nbytes", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: object = None
        self.nbytes = 0
        self.error: BaseException | None = None


class PrefetchHandle:
    """Progress/completion handle for one :meth:`Store.prefetch` call."""

    def __init__(self, requested: int) -> None:
        self.requested = requested
        self.fetched = 0
        self.skipped = 0
        self.errors = 0
        self._event = threading.Event()
        if requested == 0:
            self._event.set()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the warm finishes (``timeout`` in nominal seconds)."""
        return get_clock().wait(self._event, timeout)


class StoreFactory(Factory):
    """Resolves ``key`` from the registered store named ``store_name``."""

    def __init__(self, store_name: str, key: str, *, evict: bool = False) -> None:
        self.store_name = store_name
        self.key = key
        self.evict = evict

    def resolve(self) -> object:
        store = get_store(self.store_name)
        obj = store.get(self.key)
        if self.evict:
            # Once per campaign: the first resolver drops the backend copy;
            # replicas already cached at resolving sites stay usable.
            store.release(self.key)
        return obj

    def __repr__(self) -> str:
        return f"StoreFactory(store={self.store_name!r}, key={self.key!r})"


class Store:
    """A named object store over a :class:`Connector`.

    Parameters
    ----------
    name:
        Registry name; factories embed it, so it must be stable across the
        whole campaign.
    connector:
        Backend transport.
    cache_size:
        Per-site cache entry limit (0 disables caching entirely).
    cache_bytes:
        Per-site cache byte budget; occupancy never exceeds it (0 disables
        caching entirely).  Under pressure the least-recently-used unpinned
        entry goes first.
    register:
        Register into the global registry immediately (required for
        proxies to be resolvable elsewhere).
    retry_policy:
        When set, reads that raise :class:`StoreError` (evicted key,
        backend blip, injected corruption) are retried with backoff before
        giving up with :class:`RetryExhaustedError`.
    """

    def __init__(
        self,
        name: str,
        connector: Connector,
        *,
        cache_size: int = 16,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        register: bool = True,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self.name = name
        self.connector = connector
        self.metrics = StoreMetrics()
        self._cache_size = cache_size
        self._cache_bytes = cache_bytes if cache_size > 0 else 0
        self._caches: dict[str, SiteCache] = {}
        self._caches_lock = threading.Lock()
        self._retry_policy = retry_policy
        # Single-flight bookkeeping: (site, key) -> in-flight fetch.
        self._inflight: dict[tuple[str, str], _Flight] = {}
        self._inflight_lock = threading.Lock()
        # Keys whose backend copy was dropped by an evict-after-resolve
        # factory; a later backend miss on one of these gets a targeted
        # error instead of a retry storm.
        self._released: set[str] = set()
        self._released_lock = threading.Lock()
        if register:
            register_store(self)

    # -- caching -------------------------------------------------------------
    @staticmethod
    def _site_name(site: Site | str | None) -> str:
        if site is None:
            pinned = current_site()
            return pinned.name if pinned is not None else "__unpinned__"
        if isinstance(site, str):
            return site
        return site.name

    def _cache(self, site: Site | str | None = None) -> SiteCache:
        key = self._site_name(site)
        with self._caches_lock:
            cache = self._caches.get(key)
            if cache is None:
                cache = SiteCache(
                    self._cache_bytes,
                    max_entries=self._cache_size if self._cache_size > 0 else 0,
                    store=self.name,
                    site=key,
                )
                self._caches[key] = cache
            return cache

    def cache_stats(self, site: Site | str | None = None) -> CacheStats:
        """Occupancy snapshot of one site's cache (tests, reports)."""
        return self._cache(site).stats()

    def pin(self, key: str, site: Site | str | None = None) -> bool:
        """Mark a cached entry pressure-immune; False if not resident."""
        return self._cache(site).pin(key)

    def unpin(self, key: str, site: Site | str | None = None) -> bool:
        return self._cache(site).unpin(key)

    # -- core API --------------------------------------------------------------
    def put(self, obj: object, key: str | None = None) -> str:
        """Serialize and store ``obj``; returns the key."""
        clock = get_clock()
        start = clock.now()
        key = key or uuid.uuid4().hex
        site = self._site_name(None)
        with trace_span("proxy.put", store=self.name, site=site):
            payload = serialize(obj)
            clock.sleep(serialize_cost(payload.nominal_size))
            self.connector.put(key, payload)
        took = clock.now() - start
        self.metrics.record_put(took, payload.nominal_size)
        observe("store.put_s", took, store=self.name, site=site)
        counter_inc("store.puts", store=self.name, site=site)
        return key

    def put_batch(self, objs: list[object], keys: list[str] | None = None) -> list[str]:
        """Serialize and store many objects through one backend call.

        On the Globus backend the batch is guaranteed to ride ONE transfer
        task per destination (§V-D1); separate puts fuse too, but by
        submission round — whatever is parked when a round comes up.
        """
        clock = get_clock()
        start = clock.now()
        if keys is None:
            keys = [uuid.uuid4().hex for _ in objs]
        if len(keys) != len(objs):
            raise StoreError("put_batch needs one key per object")
        site = self._site_name(None)
        with trace_span("proxy.put", store=self.name, site=site, batch=len(objs)):
            items: dict[str, Payload] = {}
            total = 0
            for key, obj in zip(keys, objs):
                payload = serialize(obj)
                total += payload.nominal_size
                items[key] = payload
            clock.sleep(serialize_cost(total))
            self.connector.put_batch(items)
        took = clock.now() - start
        self.metrics.record_put(took, total)
        observe("store.put_s", took, store=self.name, site=site)
        counter_inc("store.puts", n=max(len(objs), 1), store=self.name, site=site)
        return keys

    def proxy_batch(self, objs: list[object], *, evict: bool = False) -> list[Proxy]:
        """Place many objects at once; returns one lazy reference each."""
        keys = self.put_batch(objs)
        return [Proxy(StoreFactory(self.name, key, evict=evict)) for key in keys]

    def get(self, key: str, timeout: float | None = None) -> object:
        """Fetch and deserialize the object under ``key``.

        Cache-aware and single-flight: a hit returns the site-resident
        replica; concurrent misses on the same ``(site, key)`` share one
        connector fetch, with the waiters charged the leader's wire time
        but the wire itself paid once.
        """
        clock = get_clock()
        start = clock.now()
        site = self._site_name(None)
        cache = self._cache(site)
        while True:
            hit, cached = cache.get(key)
            if hit:
                took = clock.now() - start
                self.metrics.record_get(took, 0, cache_hit=True)
                counter_inc("store.cache_hits", store=self.name, site=site)
                observe("store.get_s", took, store=self.name, site=site)
                return cached
            flight, leader = self._join_flight(site, key)
            if leader:
                break
            try:
                obj = self._await_flight(flight, key)
            except StoreError:
                # The in-flight fetch we latched onto (possibly an advisory
                # prefetch) failed; fall back to our own fetch — it carries
                # the retry policy, so a resolve never inherits a warm-path
                # failure it could have survived alone.
                counter_inc("store.singleflight_fallbacks", store=self.name, site=site)
                continue
            took = clock.now() - start
            self.metrics.record_get(took, 0, cache_hit=True, coalesced=True)
            counter_inc("store.cache_hits", store=self.name, site=site)
            counter_inc("store.singleflight_coalesced", store=self.name, site=site)
            observe("store.get_s", took, store=self.name, site=site)
            return obj
        try:
            with trace_span("proxy.resolve", store=self.name, cache_hit=False):
                obj, payload = self._fetch_remote(key, timeout)
            flight.value = obj
            flight.nbytes = payload.nominal_size
            # Publish to the cache *before* retiring the flight: a miss that
            # lands in between would otherwise find neither the replica nor
            # an in-flight fetch and start a redundant second transfer.
            cache.put(key, obj, payload.nominal_size)
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            self._leave_flight(site, key, flight)
        took = clock.now() - start
        self.metrics.record_get(took, payload.nominal_size, cache_hit=False)
        counter_inc("store.cache_misses", store=self.name, site=site)
        observe("store.get_s", took, store=self.name, site=site)
        emit(
            "data_transfer",
            resource=site,
            bytes=payload.nominal_size,
            via=f"store:{self.connector.kind}",
        )
        return obj

    # -- single-flight plumbing ----------------------------------------------
    def _join_flight(self, site: str, key: str) -> tuple[_Flight, bool]:
        with self._inflight_lock:
            flight = self._inflight.get((site, key))
            if flight is not None:
                return flight, False
            flight = _Flight()
            self._inflight[(site, key)] = flight
            return flight, True

    def _leave_flight(self, site: str, key: str, flight: _Flight) -> None:
        with self._inflight_lock:
            self._inflight.pop((site, key), None)
        flight.event.set()

    def _await_flight(self, flight: _Flight, key: str) -> object:
        # The leader pays the (virtual) wire time on its own thread; this
        # wait spans the same wall interval, so the waiter's measured
        # latency matches without a second transfer being charged.
        flight.event.wait()
        if flight.error is not None:
            raise StoreError(
                f"coalesced read of {key!r} from store {self.name!r} failed "
                f"with the leading fetch: {flight.error}"
            ) from flight.error
        return flight.value

    def _fetch_remote(self, key: str, timeout: float | None) -> tuple[object, Payload]:
        """The connector fetch + retry loop (exactly one caller per site/key
        at a time, thanks to single-flight)."""
        clock = get_clock()
        policy = self._retry_policy
        chaos_key = f"{self.name}:{key}"
        attempt = 0
        while True:
            try:
                payload = self.connector.get(key, timeout=timeout)
                spec = chaos_check("store.get", chaos_key, attempt=attempt)
                if spec is not None:
                    if spec.delay:
                        clock.sleep(spec.delay)
                    raise StoreError(
                        f"injected fault {spec.mode!r}: read of {key!r} "
                        f"from store {self.name!r} returned corrupt bytes"
                    )
                clock.sleep(deserialize_cost(payload.nominal_size))
                return deserialize(payload), payload
            except StoreError as exc:
                with self._released_lock:
                    released = key in self._released
                if released:
                    raise StoreError(
                        f"key {key!r} in store {self.name!r} was released by an "
                        "evict-after-resolve proxy (evict=True); only sites that "
                        "cached it before the release can still resolve it. Use "
                        "evict=False for objects resolved more than once."
                    ) from exc
                if policy is None:
                    raise
                if not policy.retries_left(attempt):
                    raise RetryExhaustedError(
                        f"store {self.name!r} read of {key!r} failed after "
                        f"{attempt + 1} attempts: {exc}",
                        attempts=attempt + 1,
                        last_error=str(exc),
                    ) from exc
                counter_inc("store.retries", store=self.name)
                clock.sleep(policy.delay_for(attempt, key=chaos_key))
                attempt += 1

    # -- prefetch --------------------------------------------------------------
    def prefetch(
        self,
        keys: "list[str] | tuple[str, ...]",
        *,
        site: Site | None = None,
        pin: bool = False,
        wait: bool = False,
        timeout: float | None = None,
    ) -> PrefetchHandle:
        """Warm ``site``'s cache with ``keys`` ahead of the tasks that will
        resolve them there.

        Runs asynchronously on a thread pinned to ``site`` (default: the
        calling thread's site), so the fetch pays that site's network
        costs — exactly what the resolving worker would have paid, but
        overlapped with task dispatch instead of serialized in front of
        compute.  Fetches go through the same single-flight path as
        :meth:`get`: a worker touching the proxy mid-warm latches onto the
        prefetch transfer instead of starting its own.

        ``pin=True`` marks the entries pressure-immune (model weights).
        ``wait=True`` blocks until the warm completes (``timeout`` nominal
        seconds); otherwise use the returned handle.
        """
        target = site if site is not None else current_site()
        site_name = self._site_name(target)
        keys = tuple(keys)
        handle = PrefetchHandle(len(keys))
        if not keys:
            return handle
        cache = self._cache(site_name)

        def warm() -> None:
            try:
                leaders: list[tuple[str, _Flight]] = []
                waiters: list[tuple[str, _Flight]] = []
                for key in keys:
                    if cache.contains(key):
                        if pin:
                            cache.pin(key)
                        handle.skipped += 1
                        counter_inc(
                            "store.prefetch_skipped", store=self.name, site=site_name
                        )
                        continue
                    flight, leader = self._join_flight(site_name, key)
                    (leaders if leader else waiters).append((key, flight))
                if leaders:
                    self._warm_leaders(cache, site_name, leaders, pin, timeout, handle)
                for key, flight in waiters:
                    # A resolve (or another warm) is already pulling this
                    # key; the cache insert is its job.
                    try:
                        self._await_flight(flight, key)
                    except Exception:  # noqa: BLE001 - advisory path
                        handle.errors += 1
                        counter_inc(
                            "store.prefetch_errors", store=self.name, site=site_name
                        )
                        continue
                    if pin:
                        cache.pin(key)
                    handle.skipped += 1
            finally:
                handle._event.set()

        SiteThread(target, target=warm, name=f"prefetch-{self.name}").start()
        if wait:
            handle.wait(timeout)
        return handle

    def _warm_leaders(
        self,
        cache: SiteCache,
        site: str,
        leaders: list[tuple[str, "_Flight"]],
        pin: bool,
        timeout: float | None,
        handle: PrefetchHandle,
    ) -> None:
        """Fetch every leader key in one fused connector call and publish
        the results to cache + coalesced waiters."""
        clock = get_clock()
        start = clock.now()
        keys = [key for key, _ in leaders]
        try:
            with trace_span(
                "proxy.prefetch", store=self.name, site=site, batch=len(keys)
            ):
                payloads = self.connector.get_batch(keys, timeout=timeout)
                objs: dict[str, tuple[object, int]] = {}
                for key in keys:
                    payload = payloads[key]
                    clock.sleep(deserialize_cost(payload.nominal_size))
                    objs[key] = (deserialize(payload), payload.nominal_size)
        except BaseException as exc:  # noqa: BLE001 - propagate via flights
            for key, flight in leaders:
                flight.error = exc
                self._leave_flight(site, key, flight)
            handle.errors += len(keys)
            counter_inc(
                "store.prefetch_errors", n=len(keys), store=self.name, site=site
            )
            return
        total = 0
        for key, flight in leaders:
            obj, nbytes = objs[key]
            flight.value = obj
            flight.nbytes = nbytes
            # Cache first, then retire the flight (same ordering as
            # :meth:`Store.get`): a resolve racing the warm must find one
            # of the two, or it would pay a redundant transfer.
            cache.put(key, obj, nbytes, pin=pin)
            self._leave_flight(site, key, flight)
            total += nbytes
            handle.fetched += 1
            counter_inc("store.prefetched", store=self.name, site=site)
        observe("store.prefetch_s", clock.now() - start, store=self.name, site=site)
        emit(
            "data_transfer",
            resource=site,
            bytes=total,
            via=f"store:{self.connector.kind}",
        )

    # -- eviction --------------------------------------------------------------
    def exists(self, key: str) -> bool:
        return self.connector.exists(key)

    def evict(self, key: str) -> None:
        """Drop ``key`` everywhere: backend and every site cache."""
        self.connector.evict(key)
        with self._caches_lock:
            caches = list(self._caches.values())
        for cache in caches:
            cache.evict(key, reason="explicit")

    def release(self, key: str) -> bool:
        """Evict-after-resolve: drop the *backend* copy exactly once.

        Site caches keep their replicas, so re-resolves on a site that
        already materialized the object (task retries, duplicate bus
        deliveries) stay cache hits instead of raising.  Subsequent calls
        are no-ops; a backend miss on a released key raises a targeted
        :class:`StoreError` explaining the evict-once semantics.
        """
        with self._released_lock:
            if key in self._released:
                counter_inc("store.release_skipped", store=self.name)
                return False
            self._released.add(key)
        self.connector.evict(key)
        counter_inc("store.released", store=self.name)
        return True

    # -- proxy API ---------------------------------------------------------------
    def proxy(self, obj: object, *, evict: bool = False, key: str | None = None) -> Proxy:
        """Place ``obj`` and return a transparent lazy reference to it."""
        key = self.put(obj, key=key)
        return Proxy(StoreFactory(self.name, key, evict=evict))

    def proxy_from_key(self, key: str, *, evict: bool = False) -> Proxy:
        """Build a proxy for an object that is already stored."""
        return Proxy(StoreFactory(self.name, key, evict=evict))

    def close(self) -> None:
        unregister_store(self.name)
        self.connector.close()

    def __repr__(self) -> str:
        return f"Store(name={self.name!r}, connector={self.connector.kind})"
