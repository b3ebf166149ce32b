"""An in-memory Redis-like key-value/queue server with network costs.

Three parts of the paper's stack sit on Redis:

* Colmena's client/task-server queues (``LPUSH``/``BLPOP``),
* the Redis backend of ProxyStore (``SET``/``GET``),
* FuncX's small-result store (Amazon ElastiCache).

:class:`KVServer` implements the data structures; :class:`KVClient` is the
handle components use, paying topology latency (and bandwidth time for the
value payload) on every operation.  A server bound on a site that does not
allow inbound connections refuses remote clients — this is the "requires a
third open port for Redis" deployment cost of the paper's Parsl+Redis
baseline.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Iterable

from repro.exceptions import PortPolicyError
from repro.net.clock import Clock, get_clock
from repro.net.context import current_site
from repro.net.topology import Network, Site

__all__ = ["KVServer", "KVClient"]


def _payload_size(value: object) -> int:
    """Approximate wire size of a value (bytes/str are measured exactly)."""
    nominal = getattr(value, "nominal_size", None)
    if isinstance(nominal, int):
        return nominal
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, str):
        return len(value.encode())
    if isinstance(value, (int, float)):
        return 8
    if value is None:
        return 1
    # Containers of measurable things; fall back to a small constant so the
    # simulator never charges for Python object overhead it can't know.
    if isinstance(value, (list, tuple)):
        return sum(_payload_size(v) for v in value) + 8
    return 64


class KVServer:
    """The server-side state: string keys to values and named FIFO queues."""

    #: Server-side value copy/protocol throughput: bulk values cost
    #: ``nbytes / processing_bandwidth`` on top of wire time — the cost of a
    #: single-threaded Redis shuffling large values through its protocol.
    DEFAULT_PROCESSING_BANDWIDTH = 400e6

    def __init__(
        self,
        site: Site,
        name: str = "redis",
        processing_bandwidth: float | None = None,
    ) -> None:
        self.site = site
        self.name = name
        self.processing_bandwidth = (
            processing_bandwidth or self.DEFAULT_PROCESSING_BANDWIDTH
        )
        self._data: dict[str, object] = {}
        self._queues: dict[str, deque] = {}
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        #: Concurrent bulk transfers over a tunnel to this server share one
        #: TCP stream; clients serialize their bandwidth time on this lock.
        self.tunnel_lock = threading.Lock()

    # The methods below are *semantic* operations with no latency; latency
    # is the client's job.

    def set(self, key: str, value: object) -> None:
        with self._lock:
            self._data[key] = value

    def get(self, key: str) -> object | None:
        with self._lock:
            return self._data.get(key)

    def delete(self, key: str) -> bool:
        with self._lock:
            return self._data.pop(key, None) is not None

    def exists(self, key: str) -> bool:
        with self._lock:
            return key in self._data

    def keys(self) -> list[str]:
        with self._lock:
            return list(self._data)

    def incr(self, key: str, amount: int = 1) -> int:
        with self._lock:
            value = int(self._data.get(key, 0)) + amount  # type: ignore[arg-type]
            self._data[key] = value
            return value

    def rpush(self, queue: str, value: object) -> int:
        with self._not_empty:
            q = self._queues.setdefault(queue, deque())
            q.append(value)
            self._not_empty.notify_all()
            return len(q)

    def lpush(self, queue: str, value: object) -> int:
        with self._not_empty:
            q = self._queues.setdefault(queue, deque())
            q.appendleft(value)
            self._not_empty.notify_all()
            return len(q)

    def lpop(self, queue: str) -> object | None:
        with self._lock:
            q = self._queues.get(queue)
            return q.popleft() if q else None

    def blpop(
        self, queues: Iterable[str], timeout: float | None, clock: Clock
    ) -> tuple[str, object] | None:
        """Block until any of ``queues`` has an item, for up to ``timeout``
        nominal seconds of the caller's ``clock``."""
        names = list(queues)

        def ready() -> list[str]:
            return [name for name in names if self._queues.get(name)]

        with self._not_empty:
            if not clock.wait_for(self._not_empty, ready, timeout):
                return None
            name = ready()[0]
            return name, self._queues[name].popleft()

    def llen(self, queue: str) -> int:
        with self._lock:
            q = self._queues.get(queue)
            return len(q) if q else 0

    def flush(self) -> None:
        with self._not_empty:
            self._data.clear()
            self._queues.clear()
            self._not_empty.notify_all()


class KVClient:
    """A client connection to a :class:`KVServer` from a particular site.

    Every operation pays one request latency, bandwidth time for the payload
    in the direction it travels, and one response latency.  Connections from
    a different site than the server's require the server's site to allow
    inbound traffic (or the connection to be tunneled).
    """

    #: Default effective throughput of a tunneled connection (bytes/s); a
    #: single encrypted TCP stream is far slower than the raw link.
    DEFAULT_TUNNEL_BANDWIDTH = 0.20e9

    def __init__(
        self,
        server: KVServer,
        network: Network,
        *,
        site: Site | None = None,
        via_tunnel: bool = False,
        tunnel_bandwidth: float | None = None,
        clock: Clock | None = None,
    ) -> None:
        self._server = server
        self._network = network
        self._site = site
        self._tunnel = via_tunnel
        self._tunnel_bw = tunnel_bandwidth or self.DEFAULT_TUNNEL_BANDWIDTH
        self._clock = clock or get_clock()
        self._check_policy(self._caller_site())

    # -- placement and cost ------------------------------------------------
    def _caller_site(self) -> Site:
        site = self._site or current_site()
        if site is None:
            # Unpinned callers (e.g. unit tests) are treated as local.
            return self._server.site
        return site

    def _check_policy(self, caller: Site) -> None:
        if not self._tunnel and not self._network.can_connect(
            caller, self._server.site
        ):
            raise PortPolicyError(
                f"site {self._server.site.name!r} does not accept inbound "
                f"connections from {caller.name!r}; deploy a tunnel "
                "(via_tunnel=True) or use an outbound-only fabric"
            )

    def _pay_leg(self, a: Site, b: Site, nbytes: int) -> None:
        """Sleep one direction's cost.  Tunneled cross-site legs cap their
        throughput AND serialize the bandwidth portion on the server's
        tunnel lock — concurrent bulk fetches share one TCP stream."""
        processing = nbytes / self._server.processing_bandwidth
        if self._tunnel and a.name != b.name:
            self._clock.sleep(self._network.latency(a, b) + processing)
            bandwidth = min(self._network.bandwidth(a, b), self._tunnel_bw)
            wire = nbytes / bandwidth
            if wire > 0:
                with self._server.tunnel_lock:
                    self._clock.sleep(wire)
        else:
            self._clock.sleep(self._network.transfer_time(a, b, nbytes) + processing)

    def _pay(self, send_bytes: int, recv_bytes: int) -> None:
        caller = self._caller_site()
        self._check_policy(caller)
        self._pay_leg(caller, self._server.site, send_bytes)
        self._pay_leg(self._server.site, caller, recv_bytes)

    # -- operations ----------------------------------------------------------
    def set(self, key: str, value: object) -> None:
        self._pay(_payload_size(value) + len(key), 8)
        self._server.set(key, value)

    def get(self, key: str) -> object | None:
        value = self._server.get(key)
        self._pay(len(key), _payload_size(value))
        return value

    def delete(self, key: str) -> bool:
        self._pay(len(key), 8)
        return self._server.delete(key)

    def exists(self, key: str) -> bool:
        self._pay(len(key), 8)
        return self._server.exists(key)

    def incr(self, key: str, amount: int = 1) -> int:
        self._pay(len(key) + 8, 8)
        return self._server.incr(key, amount)

    def rpush(self, queue: str, value: object) -> int:
        self._pay(_payload_size(value) + len(queue), 8)
        return self._server.rpush(queue, value)

    def lpush(self, queue: str, value: object) -> int:
        self._pay(_payload_size(value) + len(queue), 8)
        return self._server.lpush(queue, value)

    def lpop(self, queue: str) -> object | None:
        value = self._server.lpop(queue)
        self._pay(len(queue), _payload_size(value))
        return value

    def blpop(
        self, queues: Iterable[str] | str, timeout: float | None = None
    ) -> tuple[str, object] | None:
        """Blocking left-pop across queues; ``timeout`` in nominal seconds."""
        if isinstance(queues, str):
            queues = [queues]
        names = list(queues)
        caller = self._caller_site()
        self._check_policy(caller)
        # Request travels to the server, then we block server-side.
        self._clock.sleep(self._network.latency(caller, self._server.site))
        item = self._server.blpop(names, timeout, self._clock)
        if item is None:
            return None
        name, value = item
        self._pay_leg(self._server.site, caller, _payload_size(value))
        return name, value

    def llen(self, queue: str) -> int:
        self._pay(len(queue), 8)
        return self._server.llen(queue)
