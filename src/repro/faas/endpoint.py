"""The user-deployed half of the FaaS platform (the FuncX endpoint).

An endpoint is a lightweight agent a user starts on a resource they can log
into.  It makes only *outbound* connections and runs on the process reactor:
it grants the cloud a credit window, the cloud pushes leased tasks down its
task subscription on the bus (``repro.bus``) as credit allows, and every
result a worker (provisioned through the local batch scheduler via a
:class:`~repro.resources.worker.WorkerPool`) puts in the outbox rings one
uplink drain.  The workers are the agent's only threads.  Pausing an
endpoint models the network blips §IV-A3 talks about: the cloud keeps
queueing tasks, what it pushed waits unacked at the bus, and the endpoint
takes both on reconnect — no work is lost.
"""

from __future__ import annotations

import functools
import queue
import threading
import traceback
from dataclasses import dataclass
from typing import Callable

from repro.batch.reactor import get_reactor
from repro.batch.round import Round
from repro.bench.recording import emit
from repro.bus import BusConsumer, Envelope
from repro.chaos.plan import attempt_from_key, chaos_check, chaos_enabled
from repro.exceptions import LeaseExpiredError, WorkflowError
from repro.faas.auth import Token
from repro.faas.cloud import FaasCloud, Push, TaskDispatch, task_topic
from repro.net.clock import Clock, get_clock
from repro.net.context import at_site
from repro.net.topology import Site
from repro.observe import (
    TraceContext,
    counter_inc,
    gauge_set,
    observe,
    record_span,
    trace_span,
)
from repro.proxystore.prefetch import apply_prefetch_hints
from repro.resources.worker import WorkerPool
from repro.serialize import (
    Payload,
    borrow,
    deserialize,
    deserialize_cost,
    serialize,
    serialize_cost,
)

__all__ = ["EndpointUtilization", "FaasEndpoint"]


@dataclass(frozen=True)
class EndpointUtilization:
    """One endpoint's worker/queue state at a point in time.

    This is *the* canonical utilization signal: the autoscaler, the CLI,
    and the benchmarks all read this snapshot instead of each recomputing
    it from pool internals.
    """

    workers: int
    active: int
    idle: int
    queue_depth: int


class FaasEndpoint:
    """Endpoint agent + worker pool for one resource.

    Parameters
    ----------
    name:
        Label used in the registered endpoint id.
    cloud / token:
        The cloud service and the credential this endpoint authenticates
        with (endpoints are paired with the platform at deploy time).
    site:
        Where the agent process runs (e.g. a login node).  Workers may run
        on a different site (compute nodes) — the pool's site decides.
    pool:
        Worker lanes executing the function bodies.
    failover_group:
        Endpoints registered under the same group name are interchangeable:
        if this endpoint's heartbeat lease expires, the cloud re-dispatches
        its tasks to a surviving group member.
    credit_window:
        How many pushed tasks may be on their way to this agent, not yet in
        hand, at once.
    """

    def __init__(
        self,
        name: str,
        cloud: FaasCloud,
        token: Token,
        site: Site,
        pool: WorkerPool,
        *,
        credit_window: int = 32,
        clock: Clock | None = None,
        failover_group: str | None = None,
        uplink_batching: bool = True,
    ) -> None:
        if credit_window <= 0:
            raise WorkflowError(
                f"credit_window must be a positive integer, got "
                f"{credit_window!r} (it must let at least one task be pushed)"
            )
        self.name = name
        self.cloud = cloud
        self.token = token
        self.site = site
        self.pool = pool
        self._max_tasks = credit_window
        self._clock = clock or get_clock()
        self._heartbeat_timer = None
        # Opportunistic uplink batching: when results pile up in the outbox
        # faster than the uplink drains them, ship the whole backlog
        # in a single ``report_results`` call.  ``False`` keeps one result
        # (and one result doorbell) per call: the batch composition depends
        # on thread timing, so rigs that verify bit-identical chaos ledgers
        # with store-tier-matched faults turn it off.
        self._uplink_batching = uplink_batching
        self.endpoint_id = cloud.register_endpoint(
            token, name, pool.site, failover_group=failover_group
        )
        self._functions: dict[str, Callable] = {}
        # Results waiting for the uplink; a put rings it (``_post``).
        self._outbox: queue.SimpleQueue[
            tuple[str, bool, Payload, TraceContext | None]
        ] = queue.SimpleQueue()
        self._running = False
        # Set while connected; cleared by ``pause()``, set again by
        # ``resume()``, ``stop()`` and a crash.
        self._resumed = threading.Event()
        self._resumed.set()
        self._crashed = threading.Event()
        # Reactor work in flight, under ``_in_flight``; a stop waits for it:
        # pushes on their way in (see ``_on_tasks``) and argument downloads
        # (see ``_dispatch``), the uplink (a drain armed or a request out,
        # see ``_ring_uplink``) and uplink rounds landing (``_uplink_batch``).
        self._handoffs = 0
        self._uplinking = False
        self._uplinks = 0
        self._in_flight = threading.Condition()
        # What the cloud refused beyond a stale lease; ``stop()`` raises it.
        self._uplink_errors: list[str] = []
        # The task subscription: the cloud publishes each push of leased
        # tasks on it, and the bus replays what is unacked after a lapse.
        self._consumer = BusConsumer(
            cloud.bus,
            task_topic(self.endpoint_id),
            self.endpoint_id,
            role="endpoint",
            chaos_label=name,
            clock=self._clock,
            max_batch=credit_window,
        )
        #: Called on the reactor at each push's receipt: an autoscaler wakes
        #: a dormant pool from it (``None``: nobody listens).
        self.on_push: Callable[[], None] | None = None
        # Gray degradation (``endpoint.slow`` chaos): decided once per agent
        # lifetime at ``start()``, then applied to every task this instance
        # executes.  The endpoint stays alive and heartbeating — the failure
        # the health tracker exists to catch, because the lease never lapses.
        self._gray_delay = 0.0

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "FaasEndpoint":
        if self._running:
            return self
        self._running = True
        spec = chaos_check("endpoint.slow", self.name, endpoint=self.name)
        if spec is not None:
            self._gray_delay = spec.delay
            counter_inc("endpoint.gray_degraded", endpoint=self.name)
        self.pool.start()
        # Renewals ride the shared process reactor: one scheduler thread
        # multiplexes every endpoint's heartbeat deadline instead of
        # each agent parking a thread in a sleep loop.
        self._heartbeat_timer = get_reactor().call_every(
            self.cloud.constants.endpoint_heartbeat_period,
            self._heartbeat_tick,
        )
        # Connect: the first beat leases the endpoint before the first push,
        # so a crash at any point of its life is observable as a lease
        # lapse, and results put before the start ship.
        self.resume()
        return self

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        crashed = self._crashed.is_set()
        if not crashed:
            self.cloud.grant_credit(self.token, self.endpoint_id, 0)
        self._consumer.detach()
        self._resumed.set()
        wedged: list[str] = []
        # Order matters for a graceful drain: nothing more is pushed once
        # the credit is withdrawn, so let the pushes on their way in and
        # every armed argument download reach the pool, then let the pool
        # run its queue dry *while the uplink still drains* so every result
        # is reported, and only then wait out the uplink rounds in flight.
        # The heartbeat keeps the lease all along: a stop is not a death.
        # A crashed endpoint skips the drain: its handoffs drop on landing,
        # its uplink rounds when they reach the cloud, and its backlog is
        # the failover group's problem.
        if not crashed:
            self._wait_in_flight(lambda: self._handoffs, "argument handoffs", wedged)
        dropped = self.pool.stop(drain=not crashed)
        if dropped:
            counter_inc("endpoint.closures_dropped", len(dropped), endpoint=self.name)
        self._ring_uplink()
        self._wait_in_flight(lambda: self._uplinking or self._uplinks, "uplink rounds", wedged)
        with self._in_flight:  # a beat in flight lands before the release
            timer, self._heartbeat_timer = self._heartbeat_timer, None
        if timer is not None:
            timer.cancel()
        if not crashed:
            self.cloud.release_lease(self.token, self.endpoint_id)
            self._consumer.close()
        problems = []
        if wedged:
            problems.append(f"{wedged} still in flight after 10 s")
        if self._uplink_errors:
            problems.append(
                f"{len(self._uplink_errors)} results the cloud refused: "
                f"{self._uplink_errors}"
            )
        if problems:
            raise WorkflowError(
                f"endpoint {self.name!r} shut down with " + "; and ".join(problems)
            )

    def _wait_in_flight(
        self, count: Callable[[], int], what: str, wedged: list[str]
    ) -> None:
        """Wait up to 10 wall seconds for the reactor work ``count()``
        counts to land; name what is left in ``wedged`` if it does not."""
        with self._in_flight:
            if not self._in_flight.wait_for(lambda: not count(), timeout=10):
                wedged.append(f"{int(count())} {what}")

    def simulate_crash(self) -> None:
        """Kill the endpoint process mid-lease (no goodbye to the cloud).

        The agent stops taking pushes, heartbeating, and uploading — exactly what
        the cloud sees when the node is reclaimed or the process dies.  The
        lease lapses after ``endpoint_lease_ttl`` and surviving members of
        the failover group inherit everything this endpoint held.  A crash
        is terminal for this instance; call :meth:`stop` to reap its pool.
        """
        self._crashed.set()
        self._resumed.set()
        self._consumer.detach()
        counter_inc("endpoint.crashes", endpoint=self.name)

    def pause(self) -> None:
        """Drop the cloud connection (network outage / restart): the cloud
        pushes nothing more, so new tasks wait in its queue, pushes already
        on their way wait unacked at the bus, and results in the outbox."""
        self._resumed.clear()
        self.cloud.grant_credit(self.token, self.endpoint_id, 0)
        self._consumer.detach()

    def resume(self, *, reclaim: bool = False) -> None:
        """Reconnect to the cloud.

        ``reclaim=True`` models a restart after a *crash* (rather than a
        network blip): any task this endpoint was pushed but did not finish
        is asked back from the cloud (what is still on its way is voided)
        and pushed again.
        """
        if reclaim:
            self._pay_api_call()
            self.cloud.requeue_dispatched(self.token, self.endpoint_id)
        self.cloud.heartbeat(self.token, self.endpoint_id)
        self._resumed.set()
        if self._running and not self._crashed.is_set():
            self._consumer.attach(self._on_tasks, self._on_lapse)
            self.cloud.grant_credit(self.token, self.endpoint_id, self._max_tasks)
            self._ring_uplink()

    def utilization(self) -> EndpointUtilization:
        """Snapshot worker/queue state and export it as the canonical
        ``endpoint.workers{state=}`` / ``endpoint.queue_depth`` gauges."""
        pool = self.pool
        workers = getattr(pool, "online_count", pool.n_workers)
        active = min(pool.active_count, workers)
        idle = max(0, workers - active)
        depth = pool.queue_depth
        gauge_set("endpoint.workers", active, endpoint=self.name, state="active")
        gauge_set("endpoint.workers", idle, endpoint=self.name, state="idle")
        gauge_set("endpoint.queue_depth", depth, endpoint=self.name)
        return EndpointUtilization(
            workers=workers, active=active, idle=idle, queue_depth=depth
        )

    # -- cloud communication helpers ---------------------------------------------
    def _api_legs(self) -> tuple[float, float]:
        """One HTTPS call's ``(request, response)`` legs (``Network.api_legs``)."""
        return self.cloud.network.api_legs(
            self.site, self.cloud.site, self.cloud.constants.faas_api_latency
        )

    def _pay_api_call(self) -> None:
        self._clock.sleep(sum(self._api_legs()))

    def _resolve_functions(
        self, dispatches: list[TaskDispatch], then: Callable[[dict], None]
    ) -> None:
        """Fetch the functions ``dispatches`` need that are not cached, one
        after another — each an API call plus its deserialization, paid
        together as one reactor timer — then ``then(failed)``, ``failed``
        mapping a function id to why it could not be had."""
        cost, fetched, failed = 0.0, {}, {}
        for dispatch in dispatches:
            func_id = dispatch.func_id
            if func_id in self._functions or func_id in fetched or func_id in failed:
                continue
            cost += sum(self._api_legs())
            try:
                fetched[func_id] = self.cloud.get_function(
                    self.token, func_id, dispatch.tenant
                )
                cost += deserialize_cost(fetched[func_id].nominal_size)
            except Exception as exc:  # noqa: BLE001 - reported per member
                failed[func_id] = exc
        if not cost:
            then(failed)
            return

        def fetched_all() -> None:
            for func_id, payload in fetched.items():
                try:
                    self._functions[func_id] = deserialize(payload)
                except Exception as exc:  # noqa: BLE001 - reported per member
                    failed[func_id] = exc
            then(failed)

        get_reactor().call_later(cost, fetched_all)

    # -- the reactor's callbacks -----------------------------------------------------
    def _heartbeat_tick(self):
        """One lease renewal, fired by the process reactor: the heartbeat
        call is one more timer, due when its request leg reaches the cloud
        (nothing waits on the answer), so the tick sleeps nothing on the
        reactor.  Returning ``False`` cancels the periodic timer (a crash
        must look exactly like a dead process: no more beats).  A stopping
        agent beats on until ``stop`` has drained and cancels the timer."""
        if self._crashed.is_set():
            return False
        if self._resumed.is_set():

            def beat() -> None:
                with self._in_flight:  # ``stop`` takes the timer under it
                    if self._heartbeat_timer is not None and not self._crashed.is_set():
                        self.cloud.heartbeat(self.token, self.endpoint_id)

            get_reactor().call_later(self._api_legs()[0], beat)
        return True

    def _on_tasks(self, envelopes: list[Envelope]) -> None:
        """Task listener (reactor): ack each push and take its dispatches in
        hand one cloud-to-agent latency later (``_in_hand``), the push's one
        WAN leg.  Acked on receipt, a push replayed or duplicated during
        that leg is dropped by the bus's sequence dedup."""
        for envelope in envelopes:
            self._consumer.done(envelope)
        with self._in_flight:
            self._handoffs += 1
        get_reactor().call_later(
            self.cloud.network.latency(self.cloud.site, self.site),
            functools.partial(self._in_hand, [envelope.payload for envelope in envelopes]),
        )
        if self.on_push is not None:
            self.on_push()

    def _on_lapse(self) -> None:
        """The task subscription lapsed (reactor): missed lease or a
        chaos-injected disconnect.  Resubscribe; the bus replays every push
        not yet acked."""
        self._consumer.resubscribe()

    def _in_hand(self, pushes: list[Push]) -> None:
        """The pushed dispatches are in hand: their credit goes back to the
        cloud one agent-to-cloud latency later, and they are dispatched once
        their functions are resolved."""
        got = [dispatch for push in pushes for dispatch in push.dispatches]
        for push in pushes:
            get_reactor().call_later(
                self.cloud.network.latency(self.site, self.cloud.site),
                functools.partial(self._return_credit, len(push.dispatches), push.epoch),
            )
        # Crash *while holding pushed-but-unfinished tasks* — the case the
        # lease/failover machinery exists for.
        if got and not self._crashed.is_set() and chaos_check(
            "endpoint.crash", self.name, endpoint=self.name
        ):
            self.simulate_crash()
        if self._crashed.is_set():
            got = []

        def resolved(failed: dict) -> None:
            if got:
                self._dispatch(got, failed)
            with self._in_flight:
                self._handoffs -= 1
                self._in_flight.notify_all()

        self._resolve_functions(got, resolved)

    def _return_credit(self, n: int, epoch: int) -> None:
        if not self._crashed.is_set():
            self.cloud.return_credit(self.token, self.endpoint_id, n, epoch)

    def _dispatch(
        self, dispatches: list[TaskDispatch], failed: dict[str, Exception] | None = None
    ) -> None:
        """Download one delivery round's arguments; each task reaches the
        pool when its own argument read lands.

        The cloud reads the round's argument payloads in one pipelined store
        round and streams them back in one response: a member lands at its
        own read plus one WAN latency and its own bytes, so no task waits
        for a slower batch-mate and a round of one charges exactly what a
        lone task always has.  The landings are one hand-off :class:`Round`
        armed on the reactor, at this agent's site; the push's receipt has
        resolved the functions (``_resolve_functions``) and ``failed`` says
        which could not be.  The store op, the ``endpoint.fetch`` span and
        ``data_transfer`` event, and failure stay per member: a member whose
        read or function lookup fails is reported failed alone, when its
        read lands.
        """
        failed = failed or {}
        started = self._clock.now()
        size = len(dispatches)
        observe("endpoint.push_size", size, endpoint=self.name)
        live: list[tuple[TaskDispatch, object]] = []
        for dispatch in dispatches:
            try:
                # Fire the advisory cache warm first: the weights transfer
                # toward the *worker* site overlaps the argument download
                # and the pool's queueing delay, so the task's first proxy
                # resolve lands hot.
                if dispatch.prefetch and apply_prefetch_hints(
                    dispatch.prefetch, self.pool.site, via=f"endpoint:{self.name}"
                ):
                    counter_inc("endpoint.prefetches", endpoint=self.name)
            except Exception as exc:  # noqa: BLE001 - report, don't drop
                self._fail_dispatch(dispatch, exc, started, size)
                continue
            fn: object = self._functions.get(dispatch.func_id) or failed.get(
                dispatch.func_id,
                WorkflowError(f"function {dispatch.func_id!r} was not resolved"),
            )
            live.append((dispatch, fn))
        if not live:
            return
        reads = self.cloud.store.read_round([d.args_locator for d, _ in live])
        # The round streams back in one response: one WAN latency for the
        # round, then each member's own bytes.
        network = self.cloud.network
        wan = bandwidth = None
        offsets = reads.offsets()
        for i, ((_dispatch, fn), read) in enumerate(zip(live, reads.answer)):
            if not isinstance(read, Exception) and not isinstance(fn, Exception):
                if wan is None:
                    wan = network.latency(self.cloud.site, self.site)
                    bandwidth = network.bandwidth(self.cloud.site, self.site)
                offsets[i] += wan + read.nominal_size / bandwidth

        def hand_off(members: list[int]) -> list:
            # A dead process takes its downloads in flight with it; the
            # lease lapse re-dispatches them.
            if self._crashed.is_set():
                counter_inc("endpoint.handoffs_dropped", len(members), endpoint=self.name)
                return []
            now = self._clock.now()
            with at_site(self.site):
                for i in members:
                    (dispatch, fn), read = live[i], reads.answer[i]
                    failure = read if isinstance(read, Exception) else fn
                    if isinstance(failure, Exception):
                        self._fail_dispatch(dispatch, failure, started, size)
                    else:
                        self._hand_to_pool(dispatch, fn, read, started, size, now)
            return []

        def handed_off(_answer: list) -> None:
            with self._in_flight:
                self._handoffs -= len(live)
                self._in_flight.notify_all()

        with self._in_flight:
            self._handoffs += len(live)
        Round.grouped([None] * len(live), [], offsets, hand_off).arm(handed_off)

    def _hand_to_pool(
        self,
        dispatch: TaskDispatch,
        fn: Callable,
        args_payload: Payload,
        started: float,
        size: int,
        in_hand: float,
    ) -> None:
        """One member's argument download has landed (at ``in_hand``): queue
        it for a worker."""
        emit(
            "data_transfer",
            resource=self.site.name,
            bytes=args_payload.nominal_size,
            via="faas-cloud",
        )
        try:
            self.pool.submit(
                self._make_work(
                    dispatch.task_id,
                    fn,
                    args_payload,
                    dispatch.trace_ctx,
                    chaos_key=dispatch.chaos_key,
                    deadline_at=dispatch.deadline_at,
                )
            )
        except Exception as exc:  # noqa: BLE001 - report, don't drop
            self._fail_dispatch(dispatch, exc, started, size)
            return
        record_span(
            "endpoint.fetch",
            start=started,
            end=in_hand,
            parent=dispatch.trace_ctx,
            endpoint=self.name,
            batch_size=size,
        )

    def _fail_dispatch(
        self, dispatch: TaskDispatch, exc: Exception, started: float, size: int
    ) -> None:
        """Report one member's dispatch failure as that task's result."""
        counter_inc("endpoint.dispatch_errors", endpoint=self.name)
        record_span(
            "endpoint.fetch",
            start=started,
            end=self._clock.now(),
            parent=dispatch.trace_ctx,
            endpoint=self.name,
            batch_size=size,
            error=repr(exc),
        )
        body = {
            "success": False,
            "error": repr(exc),
            "traceback": "".join(traceback.format_exception(exc)),
        }
        self._post((dispatch.task_id, False, serialize(body), dispatch.trace_ctx))

    def _make_work(
        self,
        task_id: str,
        fn: Callable,
        args_payload: Payload,
        trace_ctx: TraceContext | None = None,
        *,
        chaos_key: str | None = None,
        deadline_at: float | None = None,
    ) -> Callable[[], None]:
        endpoint_site = self.site
        worker_site = self.pool.site
        network = self.cloud.network
        clock = self._clock

        def work() -> None:
            # Manager -> worker forwarding inside the resource.  The span
            # lives on this worker thread's stack, so the ColmenaTask's
            # ``worker.execute`` span (raised inside ``fn``) nests under it.
            with trace_span("worker.run", parent=trace_ctx, endpoint=self.name):
                clock.sleep(
                    network.transfer_time(
                        endpoint_site, worker_site, args_payload.nominal_size
                    )
                )
                clock.sleep(deserialize_cost(args_payload.nominal_size))
                if deadline_at is not None and clock.now() >= deadline_at:
                    # Deadline propagation's endpoint-side cut: the budget
                    # lapsed while the task sat in the pool queue, so
                    # burning a worker on it helps nobody.  Report the miss
                    # instead of the (now worthless) value.
                    counter_inc("endpoint.deadline_skips", endpoint=self.name)
                    self._post(
                        (
                            task_id,
                            False,
                            serialize(
                                {
                                    "success": False,
                                    "error": (
                                        f"DeadlineExceededError: task {task_id} "
                                        f"missed its deadline ({deadline_at:.3f}s) "
                                        "before execution"
                                    ),
                                    "traceback": None,
                                }
                            ),
                            trace_ctx,
                        )
                    )
                    return
                counter_inc("endpoint.executions", endpoint=self.name)
                if self._gray_delay:
                    # Gray endpoint: every task pays the degradation, but
                    # the work still completes — only latency betrays it.
                    clock.sleep(self._gray_delay)
                try:
                    if chaos_enabled():
                        self._worker_faults(task_id, chaos_key)
                    args, kwargs = deserialize(args_payload)
                    value = fn(*args, **kwargs)
                    body = {"success": True, "value": value}
                    success = True
                except Exception as exc:
                    body = {
                        "success": False,
                        "error": repr(exc),
                        "traceback": traceback.format_exc(),
                    }
                    success = False
                result_payload = serialize(body)
                clock.sleep(serialize_cost(result_payload.nominal_size))
                clock.sleep(
                    network.transfer_time(
                        worker_site, endpoint_site, result_payload.nominal_size
                    )
                )
            self._post((task_id, success, result_payload, trace_ctx))

        return work

    def _worker_faults(self, task_id: str, chaos_key: str | None) -> None:
        """The worker's fault hooks, for one task about to run: raises the
        injected failure, if one fires."""
        attempt = attempt_from_key(chaos_key)
        spec = chaos_check(
            "worker.execute", chaos_key or task_id, attempt=attempt, endpoint=self.name
        )
        if spec is not None:
            if spec.delay:
                self._clock.sleep(spec.delay)
            raise WorkflowError(
                f"injected fault {spec.mode!r}: worker raised "
                f"while executing task {task_id}"
            )
        # Poison keys on the attempt- and hedge-stripped content base: the
        # *same* inputs fail the same way on every endpoint and every retry —
        # the deterministic failure shape the quarantine quorum exists to
        # catch.
        poison = chaos_check(
            "worker.poison",
            (chaos_key or task_id).partition("#")[0],
            attempt=attempt,
            endpoint=self.name,
        )
        if poison is not None:
            raise WorkflowError(
                f"injected fault {poison.mode!r}: task {task_id} "
                "fails deterministically on every endpoint"
            )

    def _post(self, item: tuple[str, bool, Payload, TraceContext | None]) -> None:
        """Put a result in the outbox and ring the uplink."""
        self._outbox.put(item)
        self._ring_uplink()

    def _ring_uplink(self) -> None:
        """Arm one outbox drain on the reactor, unless one is armed or an
        uplink request is out (its arrival drains again).  Results that
        arrive meanwhile wait and ship together: that is what makes the
        uplink's batches."""
        with self._in_flight:
            if self._uplinking or self._outbox.empty():
                return
            self._uplinking = True
        get_reactor().call_later(0.0, self._drain_outbox)

    def _drain_outbox(self) -> None:
        """The outbox drain (reactor): ship the backlog as one uplink round
        of up to a credit window (one result without uplink batching), or
        give the uplink back when there is nothing to ship.  Results wait
        in the outbox while paused (store-and-forward on our side);
        ``resume()`` rings for them."""
        limit = self._max_tasks if self._uplink_batching else 1
        while True:
            with self._in_flight:
                items = []
                while (
                    len(items) < limit
                    and self._resumed.is_set()
                    and not self._outbox.empty()
                ):
                    items.append(self._outbox.get_nowait())
                if not items:
                    self._uplinking = False
                    self._in_flight.notify_all()
                    return
            if not self._crashed.is_set():
                self._uplink_batch(items)
                return
            # The dead process takes its unsent results with it; the cloud
            # re-dispatches the tasks once the lease lapses.
            counter_inc("endpoint.results_lost", len(items), endpoint=self.name)

    def _uplink_batch(
        self, items: list[tuple[str, bool, Payload, TraceContext | None]]
    ) -> None:
        """Report one result, or a drained backlog, in one API round trip.

        Results that share the uplink message ride it inline (borrowed), so
        the small ones skip the redis hop; a lone result takes the store.
        The round is reactor timers, like a client flush round: the request
        lands at the cloud one request leg after the drain, where
        ``report_results(then=)`` lands its store round and commit, and the
        uplink is free for the next drain one response leg later.  A
        crashed agent's round is dropped when it reaches the cloud.  Every
        member gets the ``result.uplink`` span in its own trace, and the
        outcomes are checked when the round lands."""
        counter_inc("endpoint.uplink_batches", endpoint=self.name)
        size = len(items)
        results = [
            (task_id, success, borrow(payload) if size > 1 else payload)
            for task_id, success, payload, _ in items
        ]
        started = self._clock.now()
        request, response = self._api_legs()

        def arrived() -> None:
            if self._crashed.is_set():
                counter_inc("endpoint.results_lost", size, endpoint=self.name)
                settled()
            else:
                try:
                    self.cloud.report_results(
                        self.token, self.endpoint_id, results, then=landed
                    )
                except Exception as exc:  # noqa: BLE001 - a reactor round must settle
                    landed([exc] * size)
            get_reactor().call_later(response, self._drain_outbox)

        def landed(outcomes: list) -> None:
            try:
                ended = self._clock.now()
                for _task_id, _success, _payload, trace_ctx in items:
                    record_span(
                        "result.uplink",
                        start=started,
                        end=ended,
                        parent=trace_ctx,
                        endpoint=self.name,
                        batch_size=size,
                    )
                for outcome in outcomes:
                    if isinstance(outcome, LeaseExpiredError):
                        # Our lease lapsed (long pause / stall) and the task
                        # was handed to a peer; the peer's result is the
                        # real one.
                        counter_inc("endpoint.stale_results", endpoint=self.name)
                    elif isinstance(outcome, Exception):
                        # Anything beyond a stale lease is a protocol
                        # violation: counted, kept for ``stop()`` to raise,
                        # and the uplink goes on for every other result.
                        counter_inc("endpoint.uplink_errors", endpoint=self.name)
                        self._uplink_errors.append(repr(outcome))
            finally:
                settled()

        def settled() -> None:
            with self._in_flight:
                self._uplinks -= 1
                self._in_flight.notify_all()

        with self._in_flight:
            self._uplinks += 1
        get_reactor().call_later(request, arrived)

    def __enter__(self) -> "FaasEndpoint":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
