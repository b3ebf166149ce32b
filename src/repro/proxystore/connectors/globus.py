"""Globus connector: wide-area pass-by-reference with no open ports.

§IV-C / §V-C2: an object ``put`` from site A is written to A's staging
volume and a managed transfer toward every other configured endpoint is
started at once — this ahead-of-time movement is what lets later proxy
resolutions overlap transfer latency with computation (the paper's 12 % of
inference proxies resolving in <100 ms).  A ``get`` on site B waits for the
transfer task to complete (with nothing inbound, for a landing there), then
reads the local replica; the wait is the "time on worker increases with
Globus" effect in Fig. 4.

Transfers follow the round (§V-D1's "fuse files into one task"): a ``put``
parks its file on the outbox of each ``source endpoint -> destination
endpoint`` route and returns; the outbox is submitted as ONE transfer task
whenever no submission for that route is in flight, so files that arrive
during a submission ride the next task.  The HTTPS submission is a timer on
the process reactor — no caller sleeps through it — and every other
modelled cost (per-task base, per-file overhead, status poll, the per-user
concurrency limit) is paid exactly where it was.
"""

from __future__ import annotations

import threading

from repro.exceptions import FileSystemError, ReproError, StoreError, TransferError
from repro.net.clock import get_clock
from repro.net.context import at_site, current_site
from repro.observe import current_context
from repro.proxystore.connectors.base import Connector
from repro.serialize import Payload
from repro.transfer.client import TransferClient
from repro.transfer.service import TransferEndpoint

__all__ = ["GlobusConnector"]


def _left(deadline: float | None) -> float | None:
    """What is left of a read's budget (``None``: no deadline)."""
    return None if deadline is None else deadline - get_clock().now()


def _holds(endpoint: TransferEndpoint, path: str) -> bool:
    """Whether the endpoint holds a replica of ``path`` (uncharged)."""
    try:
        endpoint.volume.size(path)
    except FileSystemError:
        return False
    return True


class _Shipment:
    """The files that ride one transfer task along one route."""

    __slots__ = ("paths", "site", "trace_ctx", "task_id", "error", "submitted")

    def __init__(self) -> None:
        self.paths: dict[str, str] = {}  # key -> staging path
        # The first file's putter pays the submission and owns its span.
        self.site = current_site()
        self.trace_ctx = current_context()
        self.task_id: str | None = None
        self.error: str | None = None
        self.submitted = threading.Event()

    def settle(self, outcome: "str | Exception") -> None:
        if isinstance(outcome, str):
            self.task_id = outcome
        else:
            self.error = str(outcome)
        self.submitted.set()


class _Route:
    """Outbox of one source endpoint -> destination endpoint pair."""

    __slots__ = ("src", "dst", "parked", "busy")

    def __init__(self, src: str, dst: str) -> None:
        self.src = src
        self.dst = dst
        self.parked: _Shipment | None = None
        self.busy = False  # a submission is in flight (or being armed)


class GlobusConnector(Connector):
    """Stores payloads on per-site staging volumes synchronized by the
    managed transfer service.

    Parameters
    ----------
    client:
        Transfer-service SDK handle (carries the user identity that the
        per-user concurrent-transfer limit applies to).
    endpoints:
        ``site name -> TransferEndpoint`` for every site participating in
        the store.  Two entries reproduce the paper's setup (CPU facility +
        GPU facility); more are allowed, and site names that share a file
        system map to the same endpoint (one shipment serves them all).
    """

    kind = "globus"
    #: Wall seconds ``close`` gives the submissions in flight to land (they
    #: need the process reactor; a torn-down one would never fire them).
    _DRAIN_WALL_S = 5.0

    def __init__(
        self,
        client: TransferClient,
        endpoints: dict[str, TransferEndpoint],
        directory: str = "proxystore-globus",
    ) -> None:
        if len(endpoints) < 2:
            raise ValueError("GlobusConnector needs at least two endpoints")
        self._client = client
        self._endpoints = dict(endpoints)
        self._by_id = {ep.endpoint_id: ep for ep in endpoints.values()}
        self._dir = directory.rstrip("/")
        self._routes = {
            (src, dst): _Route(src, dst)
            for src in self._by_id
            for dst in self._by_id
            if src != dst
        }
        # (key, destination endpoint id) -> the shipment carrying it, until
        # its task is confirmed landed (or the key is evicted).
        self._inbound: dict[tuple[str, str], _Shipment] = {}
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)

    # -- helpers ------------------------------------------------------------
    def _local_endpoint(self) -> TransferEndpoint:
        site = current_site()
        if site is None:
            # Unpinned callers act from the first configured endpoint.
            return next(iter(self._endpoints.values()))
        try:
            return self._endpoints[site.name]
        except KeyError:
            raise StoreError(
                f"site {site.name!r} has no endpoint in this Globus store"
            ) from None

    def _path(self, key: str) -> str:
        return f"{self._dir}/{key}"

    # -- write side: park, then one task per route per round --------------------
    def put(self, key: str, payload: Payload) -> None:
        self.put_batch({key: payload})

    def put_batch(self, items: dict[str, Payload]) -> None:
        """Stage the items locally and park them for every other endpoint.

        Returns once the local staging volume is written.  Everything parked
        on a route goes out as ONE transfer task — one HTTPS submission, one
        slot of the per-user concurrent-transfer limit (§V-D1) — as soon as
        the route's previous submission has landed.
        """
        if not items:
            return
        local = self._local_endpoint()
        paths = {key: self._path(key) for key in items}
        for key, payload in items.items():
            local.volume.write(paths[key], payload.data, payload.nominal_size)
        with local.landed:  # a reader at this endpoint may be waiting for it
            local.landed.notify_all()
        for (src, dst), route in self._routes.items():
            if src != local.endpoint_id:
                continue
            with self._lock:
                if route.parked is None:
                    route.parked = _Shipment()
                route.parked.paths.update(paths)
                for key in paths:
                    self._inbound[(key, dst)] = route.parked
                claimed = not route.busy
                route.busy = True
            if claimed:
                self._drain(route)

    def _drain(self, route: _Route) -> None:
        """Submit what is parked on ``route``; the caller holds its ``busy``
        claim, which passes to the submission or is dropped if nothing is
        parked.  Runs on a putting thread or, chained, on the reactor."""
        with self._lock:
            shipment, route.parked = route.parked, None
            if shipment is not None and not shipment.paths:
                shipment.submitted.set()  # every file was evicted while parked
                shipment = None
            if shipment is None:
                route.busy = False
                self._idle.notify_all()
                return

        def landed(outcome: "str | Exception") -> None:
            shipment.settle(outcome)
            self._drain(route)

        try:
            with at_site(shipment.site):
                self._client.submit(
                    route.src,
                    route.dst,
                    [(path, path) for path in shipment.paths.values()],
                    trace_ctx=shipment.trace_ctx,
                    then=landed,
                )
        except ReproError as exc:
            landed(exc)
            raise

    # -- read side ------------------------------------------------------------
    def _await(
        self, shipment: _Shipment, dst: str, wanted: set[str], deadline: float | None
    ) -> str | None:
        """Wait, until ``deadline``, for a shipment's submission, then its task;
        returns why it did not land (``None`` when it did, which retires it)."""
        if not get_clock().wait(shipment.submitted, _left(deadline)):
            return "timed out before its transfer was submitted"
        if shipment.task_id is None:
            return shipment.error
        try:
            # A reader that gives up cancels the task only when every file
            # on it is its own: neighbours keep their transfer.
            self._client.wait(
                shipment.task_id,
                timeout=_left(deadline),
                cancel_on_timeout=shipment.paths.keys() <= wanted,
            )
        except TransferError as exc:
            return str(exc)
        with self._lock:  # landed: later reads go straight to the replica
            for key in shipment.paths:
                if self._inbound.get((key, dst)) is shipment:
                    del self._inbound[(key, dst)]
        return None

    def get(self, key: str, timeout: float | None = None) -> Payload:
        return self.get_batch((key,), timeout=timeout)[key]

    def get_batch(
        self, keys: "list[str] | tuple[str, ...]", timeout: float | None = None
    ) -> dict[str, Payload]:
        """Fetch keys at the calling site, waiting each inbound transfer
        *task* once however many of the keys it carries.  ``timeout`` bounds
        the whole call, not each wait in it."""
        clock = get_clock()
        deadline = None if timeout is None else clock.now() + timeout
        local = self._local_endpoint()
        with self._lock:
            inbound = {key: self._inbound.get((key, local.endpoint_id)) for key in keys}
        failures = {
            shipment: self._await(shipment, local.endpoint_id, set(keys), deadline)
            for shipment in set(inbound.values()) - {None}
        }
        payloads: dict[str, Payload] = {}
        for key in keys:
            path = self._path(key)
            shipment = inbound[key]
            if shipment is None and deadline is not None:
                # Nothing inbound: a replica may still land by other means.
                with local.landed:
                    clock.wait_for(
                        local.landed, lambda: _holds(local, path), _left(deadline)
                    )
            try:
                payloads[key] = Payload(
                    data=local.volume.read(path),
                    nominal_size=local.volume.size(path),
                )
            except FileSystemError:
                why = "no transfer inbound" if shipment is None else failures[shipment]
                raise StoreError(
                    f"globus connector: no object under key {key!r} at "
                    f"{local.site.name}: {why or 'its transfer skipped it'}"
                ) from None
        return payloads

    def exists(self, key: str) -> bool:
        local = self._local_endpoint()
        if local.volume.exists(self._path(key)):
            return True
        with self._lock:
            return (key, local.endpoint_id) in self._inbound

    def evict(self, key: str) -> None:
        path = self._path(key)
        for endpoint in self._by_id.values():
            endpoint.volume.delete(path)
        with self._lock:
            for dst in self._by_id:
                self._inbound.pop((key, dst), None)
            for route in self._routes.values():
                if route.parked is not None:
                    route.parked.paths.pop(key, None)

    def close(self) -> None:
        """Let the submissions in flight (and what is parked behind them) go
        out, then fail the readers of anything that still has not."""
        with self._idle:
            self._idle.wait_for(
                lambda: not any(route.busy for route in self._routes.values()),
                timeout=self._DRAIN_WALL_S,
            )
            stranded = {s for s in self._inbound.values() if not s.submitted.is_set()}
        for shipment in stranded:
            shipment.settle(StoreError("store closed before the transfer was submitted"))

    def transfer_task_ids(self, key: str) -> dict[str, str | None]:
        """Destination site -> transfer task id for a key not yet confirmed
        landed there (introspection; waits for the submissions)."""
        with self._lock:
            inbound = {
                site: self._inbound.get((key, endpoint.endpoint_id))
                for site, endpoint in self._endpoints.items()
            }
        tasks: dict[str, str | None] = {}
        for site, shipment in inbound.items():
            if shipment is not None:
                shipment.submitted.wait()
                tasks[site] = shipment.task_id
        return tasks
