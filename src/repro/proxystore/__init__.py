"""Pass-by-reference data fabric (the ProxyStore substitute).

Quick use::

    store = Store("demo", RedisConnector(server, network))
    p = store.proxy(big_object)
    # `p` pickles to ~256 bytes; first use anywhere materializes the target.
"""

from repro.proxystore.cache import CacheStats, SiteCache
from repro.proxystore.connectors import (
    Connector,
    FileConnector,
    GlobusConnector,
    RedisConnector,
)
from repro.proxystore.prefetch import (
    PrefetchHint,
    apply_prefetch_hints,
    hints_for_proxies,
)
from repro.proxystore.proxy import (
    Factory,
    Proxy,
    SimpleFactory,
    extract,
    is_proxy,
    is_resolved,
    resolve,
    resolve_seconds,
)
from repro.proxystore.store import (
    PrefetchHandle,
    Store,
    StoreFactory,
    StoreMetrics,
    clear_store_registry,
    get_store,
    register_store,
    unregister_store,
)

__all__ = [
    "CacheStats",
    "SiteCache",
    "PrefetchHint",
    "PrefetchHandle",
    "apply_prefetch_hints",
    "hints_for_proxies",
    "Connector",
    "FileConnector",
    "GlobusConnector",
    "RedisConnector",
    "Factory",
    "Proxy",
    "SimpleFactory",
    "extract",
    "is_proxy",
    "is_resolved",
    "resolve",
    "resolve_seconds",
    "Store",
    "StoreFactory",
    "StoreMetrics",
    "clear_store_registry",
    "get_store",
    "register_store",
    "unregister_store",
]
