"""Client SDK for the FaaS platform: futures, executor, notification, retry.

``FaasClient.submit`` serializes arguments, parks the submission in the
client's batch accumulator and returns a ``concurrent.futures.Future`` at
once — the funcX executor's contract: the caller never waits on the WAN.  A
flush (when a batch fills, or after a short adaptive hold) is one submit
leg on the process reactor, one HTTPS round trip for everything parked; it
sets ``future.task_id``, and whatever the cloud refused at admission reaches the
caller through the future.  The client's result stream (modeling the SDK's
result websocket) pushes each delivery onto the reactor too, where its
download is planned as a :class:`repro.batch.Round` that completes the
futures when it lands — including converting remote failures into
:class:`repro.exceptions.TaskError` with the remote traceback attached.

Hand the client a :class:`repro.chaos.RetryPolicy` and failed attempts —
admission rejects and remote failures alike — are retried transparently: the
already-serialized argument payload is resubmitted under the *same* future
after a backoff, so the caller only ever sees the final outcome (the value,
or ``RetryExhaustedError`` once the budget is spent).  Without a policy the
original fail-fast semantics are intact: the future raises the rejection
itself, or the remote failure as a ``TaskError``.

Two resilience hooks ride the submit path (see DESIGN.md §11).  A
:class:`repro.resilience.HedgePolicy` passed as ``_hedge`` arms *hedged
execution*: when an attempt outlives the client's p95-derived hedge delay,
the reactor launches a speculative duplicate on a different endpoint and
the first successful leg wins — losers are cancelled (or, too late, their
results dropped), reconciled exactly once in ``client.hedges{outcome=}``.
A ``_deadline`` becomes an absolute ``deadline_at`` that rides the task
record end to end; once it passes, retries stop and the future fails with
:class:`~repro.exceptions.DeadlineExceededError` instead of burning budget
on work that can no longer finish.

:class:`FaasExecutor` adapts the client to the standard
``concurrent.futures.Executor`` interface, the integration surface FuncX
exposes and Colmena's task server builds on.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import threading
import uuid
from concurrent.futures import Executor, Future
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.batch import BatchAccumulator, BatchPolicy, Round, get_reactor
from repro.bench.recording import emit
from repro.bus import BusConsumer
from repro.chaos.policy import RetryPolicy
from repro.exceptions import (
    DeadlineExceededError,
    InvalidFunctionError,
    ReproError,
    ResultNotReadyError,
    RetryExhaustedError,
    TaskError,
    TaskQuarantinedError,
    ThrottledError,
    WorkflowError,
)
from repro.faas.auth import Token
from repro.faas.cloud import (
    FaasCloud,
    TaskStatus,
    TaskSubmission,
    result_topic,
)
from repro.tenancy.tenant import DEFAULT_TENANT, validate_function_name
from repro.net.clock import Clock, get_clock
from repro.net.defaults import CLIENT_CLOSE_TIMEOUT, CLIENT_RECEIVE_INTERVAL
from repro.net.context import current_site
from repro.net.topology import Site
from repro.observe import TraceContext, counter_inc, observe, record_span, trace_span
from repro.resilience.hedge import HedgePolicy, LatencyReservoir
from repro.serialize import (
    Payload,
    borrow,
    deserialize,
    deserialize_cost,
    serialize,
    serialize_cost,
)

__all__ = ["FaasClient", "FaasExecutor"]

#: How many completions for ids nobody has registered (yet) a client keeps:
#: a result can outrun the return of the submit call that mints its task id,
#: and registration looks here before anyone waits on the future.  Oldest
#: first out — ids that are never registered (a cancelled task, a hedge
#: loser's wasted execution, a duplicate delivery) age out of the window.
_EARLY_ARRIVALS_MAX = 1024


@dataclass
class _PendingTask:
    """Everything needed to retry one submission under the same future."""

    future: Future
    trace_ctx: TraceContext | None
    func_id: str
    endpoint_id: str
    args_payload: Payload
    attempt: int
    #: Content digest of the argument payload — the stable base for chaos
    #: keys and retry jitter (task ids are allocation-order dependent).
    chaos_base: str
    #: Advisory prefetch hints re-attached on every resubmission, so a
    #: retried task still warms (or re-warms) its target endpoint.
    prefetch: tuple = ()
    #: Clock time of the *first* submission — the anchor for the retry
    #: policy's ``max_elapsed`` wall-clock budget.
    started_at: float = 0.0
    #: Absolute nominal-clock deadline riding every attempt and hedge leg;
    #: once it passes, no retry or hedge is worth launching.
    deadline_at: float | None = None
    #: Hedging policy (``None`` = never hedge) plus the live race group for
    #: the current attempt.  ``leg`` is 0 for the attempt's primary
    #: submission, ``n`` for its n-th speculative duplicate.
    hedge_policy: HedgePolicy | None = None
    hedge: "_HedgeGroup | None" = None
    leg: int = 0
    #: When *this leg* was submitted — the anchor the hedge delay is
    #: measured from, and the start of the latency sample it contributes.
    attempt_at: float = 0.0


@dataclass
class _HedgeGroup:
    """Shared race state for one attempt's legs (primary + hedges).

    All legs complete the same future; the group tracks who is still in
    flight so the first success can cancel the rest, and so an attempt only
    counts as failed once *every* leg has failed (the last error wins).
    Only the reactor thread mutates a group, so no extra lock is needed.
    """

    primary: _PendingTask
    #: Legs still racing, by task id.
    legs: dict[str, _PendingTask] = field(default_factory=dict)
    #: Hedge legs launched (or being sent) for this attempt, primary excluded.
    launched: int = 0
    resolved: bool = False
    last_error: str = "remote task failed"
    last_traceback: str | None = None


class FaasClient:
    """A user's connection to the FaaS cloud from one site."""

    def __init__(
        self,
        cloud: FaasCloud,
        token: Token,
        *,
        site: Site | None = None,
        clock: Clock | None = None,
        retry_policy: RetryPolicy | None = None,
        throttle_policy: RetryPolicy | None = None,
        batch: BatchPolicy | None = None,
        tenant: str = DEFAULT_TENANT,
        chaos_label: str = "client",
        client_id: str | None = None,
        close_timeout: float = CLIENT_CLOSE_TIMEOUT,
    ) -> None:
        self.cloud = cloud
        self.token = token
        self.tenant = tenant
        # A stable ``client_id`` lets a resumed campaign reconnect to the
        # completed feed / result topic of a crashed predecessor and drain
        # the results it never saw.
        self.client_id = client_id or f"client-{uuid.uuid4().hex[:8]}"
        self._close_timeout = close_timeout
        self._site = site
        self._clock = clock or get_clock()
        self._retry_policy = retry_policy
        # Throttle responses (429-shaped ThrottledError) are *always*
        # retried with backoff — the funcX SDK's ThrottledBaseClient
        # behavior — independent of the failure retry policy: a throttle is
        # the service asking the client to wait, not a failed task.
        self._throttle_policy = throttle_policy or RetryPolicy(
            max_attempts=10, base_delay=0.1, max_delay=4.0
        )
        # Adaptive batching (DESIGN.md §12): ``submit`` parks submissions in
        # a per-(tenant, endpoint) accumulator and a flush — on a
        # size/bytes trigger, or when an adaptive hold timer fires — pays
        # one API round trip for the whole batch, on the shared reactor.  An
        # explicit policy also opts into zero-copy: members ride the submit
        # message borrowed, so the small ones skip the payload store.  By
        # default every member takes the store tier its size selects.
        self._zero_copy = batch is not None
        self._batcher = BatchAccumulator(batch or BatchPolicy(), clock=self._clock)
        # Pin the home site now: flushes run on the process reactor
        # thread, which carries no site context of its own.
        self._site = self._home_site()
        # What the reactor has in hand, by kind: ``flush`` rounds not yet
        # settled (``flush_batches`` waits them out, so a flush a hold timer
        # claimed is not missed), and ``landing`` download rounds and
        # hedge-loser cancels (``close`` waits those out).
        self._in_flight = collections.Counter()
        self._in_flight_cond = threading.Condition()
        # In-flight work by task id; a retried attempt re-registers the same
        # _PendingTask (same future) under the new task id.
        self._pending: dict[str, _PendingTask] = {}
        # Completions that found no pending entry, insertion-ordered and
        # bounded by ``_EARLY_ARRIVALS_MAX``; ``_register`` drains it.
        self._early: dict[str, None] = {}
        self._futures_lock = threading.Lock()
        # Completion latencies (submit -> result, successful legs only):
        # the sample the hedge delay's p95 quantile is derived from.
        self._latencies = LatencyReservoir()
        # Registration cache: holds a strong reference to each function so
        # identity (``is``) stays valid — caching by bare id() would break
        # when CPython reuses a collected object's address.
        self._registered: list[tuple[Callable, str]] = []
        # Event-driven result delivery: subscribe before any submit so no
        # completion can slip past the stream.  Deliveries and a lapse are
        # pushed onto the reactor (``_on_results``, ``_on_lapse``).
        self._consumer = BusConsumer(
            cloud.bus,
            result_topic(self.client_id),
            self.client_id,
            role="client",
            chaos_label=chaos_label,
            clock=self._clock,
        )
        # The bus sequence numbers of the envelopes whose download rounds
        # are still in flight: those rounds ack them when they land.
        self._downloading: set[int] = set()
        # Whether the overdue-hedge scan is armed on the reactor: only
        # while a hedge-armed primary is pending.
        self._hedge_scan = False
        self._running = True
        self._killed = False
        self._consumer.attach(self._on_results, self._on_lapse)

    def _home_site(self) -> Site:
        return self._site or current_site() or self.cloud.site

    def _api_legs(self) -> tuple[float, float]:
        """One HTTPS call's ``(request, response)`` legs (``Network.api_legs``)."""
        return self.cloud.network.api_legs(
            self._home_site(), self.cloud.site, self.cloud.constants.faas_api_latency
        )

    def _pay_api_call(self) -> None:
        self._clock.sleep(sum(self._api_legs()))

    # -- API ------------------------------------------------------------------
    def register_function(self, fn: Callable, *, name: str | None = None) -> str:
        """Register a function body with the cloud; idempotent per object.

        The registered name defaults to ``fn.__name__`` when that is a
        valid function name (lambdas and exotic callables register
        anonymously)."""
        for known, func_id in self._registered:
            if known is fn:
                return func_id
        if name is None:
            try:
                name = validate_function_name(getattr(fn, "__name__", None))
            except InvalidFunctionError:
                name = None
        payload = serialize(fn)
        self._clock.sleep(serialize_cost(payload.nominal_size))
        self._pay_api_call()
        func_id = self.cloud.register_function(
            self.token, payload, tenant=self.tenant, name=name
        )
        self._registered.append((fn, func_id))
        return func_id

    def submit(
        self,
        func_id: str,
        endpoint_id: str,
        /,
        *args: object,
        _trace_ctx: TraceContext | None = None,
        _prefetch_hints: tuple = (),
        _hedge: HedgePolicy | None = None,
        _deadline: float | None = None,
        **kwargs: object,
    ) -> Future:
        """Invoke a registered function on an endpoint; returns a future.

        The submission is parked, not sent: ``future.task_id`` is ``None``
        until a flush assigns the real id (``flush_batches()`` forces one
        now), and an admission reject arrives as the future's exception.  A
        size/bytes trigger flushes at once and otherwise the accumulator's
        adaptive hold is armed, both on the process reactor, so the caller
        pays only serialization and a lone task under an idle batcher still
        goes out within ``min_hold``.

        ``_trace_ctx`` (underscored: the name is reserved, never forwarded
        to the function) joins this invocation to an observe trace; the
        context also rides the cloud dispatch record so the endpoint and
        worker side can parent their spans to the same trace.
        ``_prefetch_hints`` (same convention) ride the dispatch record so
        the endpoint can warm its site's proxy cache before the task runs.
        ``_hedge`` arms hedged execution for this task (see the module
        docstring); ``_deadline`` is a relative nominal-seconds budget that
        becomes an absolute ``deadline_at`` riding the task record — the
        cloud refuses or expires work past it, and the client stops
        retrying once it lapses.
        """
        with trace_span(
            "cloud.submit", parent=_trace_ctx, endpoint=endpoint_id, tenant=self.tenant
        ) as span:
            # Direct SDK use has no task-level context; root the task's
            # trace at this submit span so the endpoint/worker/download
            # spans still join up into one trace.
            ctx = _trace_ctx if _trace_ctx is not None else span.context
            args_payload = serialize((args, kwargs))
            self._clock.sleep(serialize_cost(args_payload.nominal_size))
            started_at = self._clock.now()
            future: Future = Future()
            future.task_id = None  # type: ignore[attr-defined]  # set at flush
            pending = _PendingTask(
                future=future,
                trace_ctx=ctx,
                func_id=func_id,
                endpoint_id=endpoint_id,
                args_payload=args_payload,
                attempt=0,
                chaos_base=hashlib.sha256(args_payload.data).hexdigest()[:16],
                prefetch=tuple(_prefetch_hints),
                started_at=started_at,
                deadline_at=None if _deadline is None else started_at + _deadline,
                hedge_policy=_hedge,
                attempt_at=started_at,
            )
            self._park(pending)
            return future

    def _park(self, pending: _PendingTask) -> None:
        """Park a submission in its accumulator: a size/bytes trigger
        flushes the batch now, on the reactor's submit leg; otherwise the
        first arrival arms the hold timer on the process reactor."""
        key = (self.tenant, pending.endpoint_id)
        ready, hold, generation = self._batcher.add(
            key, pending, pending.args_payload.nominal_size
        )
        if ready is not None:
            self._flush_batch(ready)
        elif hold is not None:
            get_reactor().call_later(hold, lambda: self._flush_due(key, generation))

    def _register(self, entries: list[tuple[str, _PendingTask]]) -> None:
        """Bind pending records to the task ids the cloud just minted.

        The id only exists once the cloud call returns, and by then the
        task may already have run and its completion been consumed by the
        result listener, which parked it in ``_early``.  Such a completion is
        delivered here, on the registering thread, so no future is ever
        stranded behind a doorbell that was already acked.
        """
        with self._futures_lock:
            self._pending.update(entries)
            early = [task_id for task_id, _ in entries if task_id in self._early]
            for task_id in early:
                del self._early[task_id]
        self._watch_hedges([pending for _, pending in entries])
        if early:
            counter_inc("client.early_completions", len(early))
            self._handle_completions(early)

    def run(
        self,
        fn: Callable,
        endpoint_id: str,
        /,
        *args: object,
        _trace_ctx: TraceContext | None = None,
        _prefetch_hints: tuple = (),
        _hedge: HedgePolicy | None = None,
        _deadline: float | None = None,
        **kwargs: object,
    ) -> Future:
        """Register-if-needed and submit in one call."""
        return self.submit(
            self.register_function(fn),
            endpoint_id,
            *args,
            _trace_ctx=_trace_ctx,
            _prefetch_hints=_prefetch_hints,
            _hedge=_hedge,
            _deadline=_deadline,
            **kwargs,
        )

    # -- adaptive batching -----------------------------------------------------
    def _flush_due(self, key: tuple, generation: int) -> None:
        """Hold timer fired (reactor thread): flush if not already flushed."""
        if not self._running:
            return  # close() drains explicitly; kill() drops like a crash
        batch = self._batcher.take(key, generation)
        if batch:
            self._flush_batch(batch)

    def flush_batches(self) -> int:
        """Flush every parked batch now; returns how many tasks that sent.
        On return every earlier ``submit`` has been through the cloud — its
        ``future.task_id`` set, or its rejection handed to the retry path —
        including batches a hold timer claimed first: every flush round in
        flight is waited for (up to ``close_timeout`` wall seconds), a retry
        still backing off is not."""
        flushed = 0
        for _key, items in self._batcher.take_all():
            self._flush_batch(items)
            flushed += len(items)
        self._drain("flush")
        return flushed

    def _flush_batch(self, items: list[_PendingTask]) -> None:
        """Send an accumulated batch — or one retried task — down the
        submit leg, in a single cloud round trip; returns at once.

        Accepted members are bound to their task ids.  Per-item rejections
        split back into singles: each re-enters the retry path
        (``_finish_attempt``) under its own future, with its tenant,
        deadline, prefetch hints, and hedge policy intact.
        """
        sent = self._clock.now()
        submissions = [
            TaskSubmission(
                func_id=p.func_id,
                endpoint_id=p.endpoint_id,
                # Zero-copy (explicit policy only): a flush's members ride
                # the batched submit message, so the small ones skip the
                # redis hop's second (de)serialization (``_submit_leg``
                # charges their bytes as transfer).  A retry sends its
                # payload as it is.
                args_payload=(
                    borrow(p.args_payload)
                    if self._zero_copy and not p.attempt
                    else p.args_payload
                ),
                trace_ctx=p.trace_ctx,
                chaos_key=f"{p.chaos_base}#a{p.attempt}",
                prefetch=p.prefetch,
                deadline_at=p.deadline_at,
            )
            for p in items
        ]

        def settle(outcomes: list) -> None:
            now = self._clock.now()
            accepted: list[tuple[str, _PendingTask]] = []
            rejected: list[tuple[_PendingTask, Exception]] = []
            for pending, outcome in zip(items, outcomes):
                if pending.attempt:  # a retry: ``submit`` spans the first
                    record_span(
                        "cloud.submit",
                        start=sent,
                        end=now,
                        parent=pending.trace_ctx,
                        endpoint=pending.endpoint_id,
                        tenant=self.tenant,
                    )
                if isinstance(outcome, str):
                    pending.attempt_at = now
                    pending.future.task_id = outcome  # type: ignore[attr-defined]
                    accepted.append((outcome, pending))
                else:
                    rejected.append((pending, outcome))
            try:
                self._register(accepted)
            finally:
                self._track("flush", -1)
            for pending, exc in rejected:
                if not self._running:
                    self._abandon(pending)  # closed while the leg was out
                    continue
                counter_inc("client.batch_splits", endpoint=pending.endpoint_id)
                self._finish_attempt(pending, repr(exc), None, reject=exc)

        self._track("flush", 1)
        self._submit_leg(submissions, settle)

    def _submit_leg(
        self, submissions: list[TaskSubmission], then: Callable[[list], object]
    ) -> None:
        """One cloud submit — of a batch, or of one task — on the process
        reactor, with transparent throttle backoff; returns at once, and
        ``then(outcomes)`` runs on the reactor once the call has settled.

        Each round trip is a timer for the API request leg, the service's
        round, landed through ``submit_batch(then=)``, and a timer for the
        response leg; nothing is slept, so no heartbeat, lease renewal or
        other flush in the process waits on it.  Outcomes are positional: a
        task id, or the member's rejection (a call that fails as a whole is
        every member's outcome).  Throttled members are re-sent together
        under the *same* chaos keys (a throttle retry is the same logical
        submission — the attempt counter is reserved for failure retries)
        after a ``max(retry_after, backoff)`` timer, until the throttle
        policy's budget runs out; what is still throttled then stands as its
        outcome.
        """
        outcomes: list = [None] * len(submissions)
        policy = self._throttle_policy
        small = self.cloud.constants.faas_small_object_threshold
        reactor = get_reactor()
        started = self._clock.now()

        def send(live: list[int], throttle_attempt: int) -> None:
            if not self._running:
                then(outcomes)  # closed while backing off
                return
            batch = [submissions[i] for i in live]
            counter_inc("faas.api_calls", op="submit")
            request, response = self._api_legs()
            # Zero-copy payloads ride the submit message itself, so their
            # bytes are charged as request transfer, not as store ops.
            inline_bytes = sum(
                [
                    s.args_payload.nominal_size
                    for s in batch
                    if s.args_payload.borrowed and s.args_payload.nominal_size < small
                ]
            )
            if inline_bytes:
                request += inline_bytes / self.cloud.network.bandwidth(
                    self._home_site(), self.cloud.site
                )

            # The cloud acts when the request arrives; its answer reaches
            # the caller one response leg after the round lands.
            def answer(results: list) -> None:
                reactor.call_later(response, lambda: landed(live, results, throttle_attempt))

            reactor.call_later(request, lambda: arrived(batch, answer))

        def arrived(batch: list, answer: Callable[[list], None]) -> None:
            try:
                self.cloud.submit_batch(
                    self.token, self.client_id, batch, tenant=self.tenant, then=answer
                )
            except Exception as exc:  # noqa: BLE001 - a reactor round must settle
                answer([exc] * len(batch))

        def landed(live: list[int], results: list, throttle_attempt: int) -> None:
            throttled: list[int] = []
            retry_after = 0.0
            for i, result in zip(live, results):
                outcomes[i] = result
                if isinstance(result, ThrottledError):
                    throttled.append(i)
                    retry_after = max(retry_after, result.retry_after)
            if not throttled or not policy.retries_left(
                throttle_attempt, elapsed=self._clock.now() - started
            ):
                then(outcomes)
                return
            first = submissions[throttled[0]]
            counter_inc(
                "client.throttled",
                len(throttled),
                tenant=self.tenant,
                endpoint=first.endpoint_id,
            )
            delay = max(
                retry_after,
                policy.delay_for(throttle_attempt, key=first.chaos_key or first.func_id),
            )
            reactor.call_later(delay, lambda: send(throttled, throttle_attempt + 1))

        # Even the first request is drawn and armed on the reactor, so a
        # caller whose submit filled a batch pays none of its flush.
        reactor.call_later(0.0, lambda: send(list(range(len(submissions))), 0))

    def cancel_pending(self, endpoint_id: str | None = None) -> int:
        """Cancel in-flight futures (optionally only those targeting one
        endpoint) and forget them; returns how many were cancelled.  Parked
        submissions are flushed first, so they are cancelled like the rest.

        A cancelled task may still execute remotely — its notification
        arrives to find no pending entry and is parked until it ages out of
        the early-arrival window, the same dead-letter path an
        already-retried task id takes.
        """
        self.flush_batches()  # parked submissions are in flight too
        cancelled = 0
        with self._futures_lock:
            for task_id, pending in list(self._pending.items()):
                if endpoint_id is not None and pending.endpoint_id != endpoint_id:
                    continue
                if pending.future.cancel():
                    del self._pending[task_id]
                    cancelled += 1
                    counter_inc("client.cancelled", endpoint=pending.endpoint_id)
        return cancelled

    def close(self) -> None:
        # Parked submissions must go out before delivery stops — otherwise
        # their futures would be abandoned below.  Stale hold timers on the
        # reactor no-op: the generation has moved on.
        self.flush_batches()
        self._running = False
        self._drain("landing")  # download rounds and cancels still land
        self._consumer.close()
        # Nobody is listening for results anymore: fail what is still in
        # flight so callers blocked on .result() see the close instead of
        # hanging forever.
        with self._futures_lock:
            abandoned = list(self._pending.values())
            self._pending.clear()
        for pending in abandoned:
            self._abandon(pending)

    def _abandon(self, pending: _PendingTask) -> None:
        if not pending.future.done():
            counter_inc("client.abandoned", endpoint=pending.endpoint_id)
            pending.future.set_exception(
                WorkflowError("client closed with the task still in flight")
            )

    def kill(self) -> None:
        """Simulate a process crash: detach the result listener, and let
        download rounds in flight land to nothing (no settle, no ack), but
        do *not* close the bus subscription or fail the in-flight futures.

        A dead process never says goodbye — the broker keeps the
        subscription and its unacked redelivery window, so a successor
        client constructed with the *same* ``client_id`` (see ``attach``)
        resumes delivery from the acked frontier.  ``close`` after ``kill``
        would ack that frontier away; a crashed client must never be
        closed.
        """
        self._killed = True
        self._running = False
        self._consumer.detach()
        counter_inc("client.killed")
        with self._futures_lock:
            self._pending.clear()

    def attach(
        self,
        task_id: str,
        *,
        endpoint_id: str,
        func_id: str = "",
        args_payload: Payload | None = None,
        trace_ctx: TraceContext | None = None,
    ) -> Future:
        """Adopt a task submitted by a crashed predecessor client.

        Registers a pending entry for ``task_id`` (the predecessor must
        have shared this ``client_id`` — the cloud routes the result
        notification by it) and returns a fresh future for it.  If the
        task already completed while nobody was listening, its download is
        planned at once from the cloud's ledger; otherwise the result
        listener picks it up from the re-established feed.  Payload-less
        attaches cannot be retried on failure (there is nothing to
        resubmit), so they surface terminal errors directly.
        """
        payload = args_payload if args_payload is not None else serialize(((), {}))
        chaos_base = hashlib.sha256(payload.data).hexdigest()[:16]
        future: Future = Future()
        future.task_id = task_id  # type: ignore[attr-defined]
        pending = _PendingTask(
            future=future,
            trace_ctx=trace_ctx,
            func_id=func_id,
            endpoint_id=endpoint_id,
            args_payload=payload,
            # Attach exhausts the retry budget when there is no real payload
            # to resubmit: a failure completes the future with the error.
            attempt=0 if args_payload is not None else (1 << 30),
            chaos_base=chaos_base,
            started_at=self._clock.now(),
            attempt_at=self._clock.now(),
        )
        with self._futures_lock:
            self._pending[task_id] = pending
        counter_inc("client.attached", endpoint=endpoint_id)
        # The crash window: the task may have completed (and its doorbell
        # may have been acked) before the predecessor died.  The ledger is
        # ground truth — download terminal tasks now; `_handle_completions`
        # pops the pending entry, so a late duplicate doorbell is a no-op.
        try:
            record = self.cloud.task(task_id)
        except WorkflowError:
            record = None
        if record is not None and record.status.terminal:
            self._handle_completions([task_id])
        return future

    # -- result delivery -----------------------------------------------------------
    def _on_results(self, envelopes: list) -> None:
        """Result listener (reactor): plan one download round for a
        delivery's doorbells.  A round still downloading keeps its
        envelopes unacked, so the bus may redeliver them; the round in
        flight acks them."""
        if not self._running:
            return
        with self._futures_lock:
            envelopes = [e for e in envelopes if e.seq not in self._downloading]
        if not envelopes:
            return
        # One round, one download: every id its doorbells carry (one each,
        # or a comma-joined list) shares one streamed response, and a crash
        # before it settles redelivers them.
        task_ids: list[str] = []
        for envelope in envelopes:
            if isinstance(envelope.payload, str):
                task_ids.extend(envelope.payload.split(","))
            else:  # malformed: acked with the round, never redelivered
                counter_inc("client.notify_errors")
        self._plan_round(task_ids, envelopes)

    def _on_lapse(self) -> None:
        """The result subscription lapsed (reactor): fall back to the
        completed feed, the ground truth the doorbells ring over."""
        if self._running:
            counter_inc("bus.fallback_engaged", role="client")
            self._drain_completed()

    def _drain_completed(self) -> None:
        """Drain the completed feed until it is empty, then resubscribe,
        which replays every unacked notification.  Completions whose
        notifications were trimmed from the redelivery window have no
        doorbell left, which is why the drain comes first.  A drain that
        raises is counted and retried after a redelivery backoff."""
        if not self._running:
            return
        try:
            while task_ids := self.cloud.next_completed_batch(self.client_id):
                self._plan_round(task_ids, [])
        except Exception:  # noqa: BLE001 - a reactor callback must not raise
            counter_inc("client.notify_errors")
            get_reactor().call_later(
                self.cloud.constants.bus_redelivery_base, self._drain_completed
            )
            return
        self._consumer.resubscribe()

    def _plan_round(self, task_ids: list[str], envelopes: list) -> None:
        """Arm one delivery round's download; what escapes is counted and
        its envelopes stay unacked, so the bus redelivers them.  A round
        with nothing to download acks its envelopes now."""
        try:
            download = self._handle_completions(task_ids, envelopes)
        except Exception:  # noqa: BLE001 - a reactor callback must not raise
            counter_inc("client.notify_errors")
            return
        if download is None:
            for envelope in envelopes:
                self._consumer.done(envelope)

    def _track(self, kind: str, step: int) -> None:
        """Count a reactor round of ``kind`` into (1) or out of (-1) flight."""
        with self._in_flight_cond:
            self._in_flight[kind] += step
            self._in_flight_cond.notify_all()

    def _drain(self, kind: str) -> None:
        """Wait up to ``close_timeout`` wall seconds for no ``kind`` round."""
        with self._in_flight_cond:
            self._in_flight_cond.wait_for(
                lambda: not self._in_flight[kind], timeout=self._close_timeout
            )

    # -- hedged execution ------------------------------------------------------
    def _watch_hedges(self, pendings: list[_PendingTask]) -> None:
        """Arm the overdue scan (``_scan_hedges``) unless it is armed, once
        one of ``pendings`` hedges: a client that never hedges arms nothing."""
        if all(pending.hedge_policy is None for pending in pendings):
            return
        with self._futures_lock:
            if self._hedge_scan:
                return
            self._hedge_scan = True
        get_reactor().call_every(CLIENT_RECEIVE_INTERVAL, self._scan_hedges)

    def _scan_hedges(self) -> bool:
        """Launch speculative duplicates for overdue hedge-armed primaries:
        a reactor timer every ``CLIENT_RECEIVE_INTERVAL`` (so a hedge launches
        within one interval of its delay) that disarms once none is pending.
        The reactor settles completions too, so only external pops
        (``close``, ``cancel_pending``) race a candidate; ``_hedge_sent``
        checks for them."""
        now = self._clock.now()
        with self._futures_lock:
            primaries = [
                (task_id, pending)
                for task_id, pending in self._pending.items()
                if pending.hedge_policy is not None
                and pending.leg == 0
                and not pending.future.done()
            ]
            if not self._running or not primaries:
                self._hedge_scan = False
                return False
        for task_id, pending in primaries:
            policy = pending.hedge_policy
            if pending.hedge is not None and pending.hedge.launched >= policy.max_hedges:
                continue  # every leg it may have is out (or being sent)
            delay = policy.hedge_delay(self._latencies)
            if delay is None or now - pending.attempt_at < delay:
                continue  # not overdue yet (or no latency sample to judge by)
            if pending.deadline_at is not None and now >= pending.deadline_at:
                continue  # past deadline: the cloud would refuse the leg
            taken = {pending.endpoint_id}
            if pending.hedge is not None:
                taken.update(leg.endpoint_id for leg in pending.hedge.legs.values())
            target = policy.hedge_target(exclude=taken)
            if target is None:
                continue  # every candidate endpoint already carries a leg
            self._launch_hedge(task_id, pending, target)
        return True

    def _launch_hedge(self, primary_id: str, pending: _PendingTask, target: str) -> None:
        """Send a hedge leg down the submit leg; ``_hedge_sent`` races it
        once the cloud has answered."""
        group = pending.hedge
        if group is None:
            group = _HedgeGroup(primary=pending)
            group.legs[primary_id] = pending
            pending.hedge = group
        # The leg holds its slot while its submit is out, so the scan sends
        # no second one meanwhile; a refusal gives the slot back.
        group.launched += 1
        # ``#h<n>`` keeps the hedge leg's chaos identity distinct from the
        # primary's while preserving the content base (``partition('#')``
        # strips it for poison fingerprints) and the ``#a<attempt>`` suffix.
        chaos_key = f"{pending.chaos_base}#h{group.launched}#a{pending.attempt}"
        # A hedge leg rides the primary's already-serialized payload too.
        counter_inc("client.serialize_skipped", endpoint=target)
        submission = TaskSubmission(
            pending.func_id, target, pending.args_payload, pending.trace_ctx,
            chaos_key, pending.prefetch, pending.deadline_at,
        )
        self._submit_leg(
            [submission],
            functools.partial(self._hedge_sent, primary_id, group, target, group.launched),
        )

    def _hedge_sent(
        self, primary_id: str, group: _HedgeGroup, target: str, n: int, outcomes: list
    ) -> None:
        """The cloud answered hedge leg ``n`` (reactor thread): race it."""
        hedge_id = outcomes[0]
        if not isinstance(hedge_id, str):
            # The duplicate was refused (throttle budget, breaker, quota...):
            # the primary keeps racing alone; try again next scan.
            group.launched -= 1
            counter_inc("client.hedge_rejected", endpoint=target)
            return
        leg = replace(
            group.primary, endpoint_id=target, hedge=group, leg=n, attempt_at=self._clock.now()
        )
        with self._futures_lock:
            stale = group.resolved or primary_id not in self._pending
            if not stale:
                self._pending[hedge_id] = leg
                group.legs[hedge_id] = leg
        if stale:
            # The race resolved (or the caller cancelled) while the leg's
            # submit was out; reel the duplicate back in.
            self._cancel_leg(hedge_id, leg)
            return
        counter_inc("client.hedges_launched", endpoint=target)

    def _cancel_leg(self, task_id: str, leg: _PendingTask) -> None:
        """Cancel one losing leg once its API request has reached the cloud
        (a reactor timer); reconcile its outcome exactly once.

        A hedge leg cancelled while still queued never executed (``lost``);
        one the cloud could no longer cancel is a duplicate execution whose
        eventual result finds no pending entry and is dropped (``wasted``).
        """

        def arrived() -> None:
            try:
                counter_inc("faas.api_calls", op="cancel")
                cancelled = self.cloud.cancel_task(self.token, task_id)
                if leg.leg > 0:
                    counter_inc(
                        "client.hedges",
                        outcome="lost" if cancelled else "wasted",
                        endpoint=leg.endpoint_id,
                    )
            finally:
                self._track("landing", -1)

        self._track("landing", 1)
        get_reactor().call_later(self._api_legs()[0], arrived)

    def _settle_leg(
        self,
        task_id: str,
        pending: _PendingTask,
        ok: bool,
        value: object,
        error: str,
        traceback_text: str | None,
    ) -> None:
        """Resolve one completed leg against its (possible) hedge race."""
        group = pending.hedge
        if group is None:
            if ok:
                self._latencies.add(self._clock.now() - pending.attempt_at)
                pending.future.set_result(value)
            else:
                self._finish_attempt(pending, error, traceback_text)
            return
        group.legs.pop(task_id, None)
        if group.resolved:
            return  # a duplicate delivery raced the resolution; drop it
        if ok:
            group.resolved = True
            self._latencies.add(self._clock.now() - pending.attempt_at)
            losers = list(group.legs.items())
            group.legs.clear()
            with self._futures_lock:
                for other_id, _ in losers:
                    self._pending.pop(other_id, None)
            for other_id, other in losers:
                self._cancel_leg(other_id, other)
            if pending.leg > 0:
                counter_inc(
                    "client.hedges", outcome="won", endpoint=pending.endpoint_id
                )
            pending.future.set_result(value)
            return
        group.last_error, group.last_traceback = error, traceback_text
        if group.legs:
            # Other legs are still racing; this one just drops out.  A
            # failed hedge leg bought nothing — pure duplicate work.
            if pending.leg > 0:
                counter_inc(
                    "client.hedges", outcome="wasted", endpoint=pending.endpoint_id
                )
            return
        # Every leg failed: the *attempt* failed.  Retry (or give up) under
        # the primary's pending record so a resubmission returns to the
        # originally requested endpoint.
        group.resolved = True
        group.primary.hedge = None
        self._finish_attempt(group.primary, group.last_error, group.last_traceback)

    def _handle_completions(
        self, task_ids: list[str], envelopes: list | tuple = ()
    ) -> Round | None:
        """Plan the download of every announced completion as one round
        and arm it on the reactor; returns the round.

        The ids of a delivery round — however many doorbells announced them
        — pay *one* notification-push latency, one ``download_round`` call,
        and one streamed response (a WAN latency plus the summed bytes),
        then each task is deserialized and settled on its own: dedupe,
        retry, and hedge reconciliation are per task, and a member whose
        read fails burns only its own attempt.  Nothing is slept: the round
        lands once its charges have passed, and ``_settle_round`` settles
        it and acks ``envelopes`` then.  A round of one is charged exactly
        what a lone completion always has.

        An id nobody registered is parked (see ``_early``): its submit may
        simply not have returned yet.
        """
        entries: list[tuple[str, _PendingTask]] = []
        with self._futures_lock:
            for task_id in task_ids:
                pending = self._pending.pop(task_id, None)
                if pending is not None:
                    entries.append((task_id, pending))
                else:
                    self._early[task_id] = None
                    if len(self._early) > _EARLY_ARRIVALS_MAX:
                        del self._early[next(iter(self._early))]
        if not entries:
            return None
        site = self._home_site()
        network = self.cloud.network
        size = len(entries)
        observe("client.download_batch_size", size)
        started = self._clock.now()
        # Notification push + result download, charged to the client.
        charges = [network.latency(self.cloud.site, site)]
        try:
            # A download round is settled when it is planned: its answer is
            # the reads, its charges what they cost.
            reads = self.cloud.download_round(self.token, [t for t, _ in entries])
            charges += reads.charges
            outcomes = reads.answer
        except ReproError as exc:
            outcomes = [exc] * size
        delivered = [
            outcome[1].nominal_size
            for outcome in outcomes
            if not isinstance(outcome, Exception)
        ]
        if delivered:
            charges.append(network.transfer_time(self.cloud.site, site, sum(delivered)))
        # Each member's span ends with its own deserialization.
        ended = started + sum(charges)
        ends = []
        for outcome in outcomes:
            if not isinstance(outcome, Exception):
                charges.append(deserialize_cost(outcome[1].nominal_size))
                ended += charges[-1]
            ends.append(ended)
        download = Round.settled(outcomes, charges)
        with self._futures_lock:
            self._downloading.update(envelope.seq for envelope in envelopes)
        self._track("landing", 1)
        download.arm(
            functools.partial(self._settle_round, started, entries, ends, envelopes)
        )
        return download

    def _settle_round(
        self,
        started: float,
        entries: list[tuple[str, _PendingTask]],
        ends: list[float],
        envelopes: list,
        outcomes: list,
    ) -> None:
        """A download round has landed (reactor thread): settle each
        member, then ack the round's envelopes.  After ``kill()`` it
        settles and acks nothing: a crashed process never saw the round."""
        try:
            if self._killed:
                return
            for (task_id, pending), outcome, ended in zip(entries, outcomes, ends):
                span = {"start": started, "end": ended, "batch_size": len(entries)}
                try:
                    self._settle_download(task_id, pending, outcome, span)
                except Exception:  # noqa: BLE001 - the other members still settle
                    counter_inc("client.notify_errors")
            for envelope in envelopes:
                self._consumer.done(envelope)
            with self._futures_lock:
                self._downloading.difference_update(e.seq for e in envelopes)
        finally:
            self._track("landing", -1)

    def _settle_download(
        self, task_id: str, pending: _PendingTask, outcome: object, span: dict
    ) -> None:
        """Settle one member of a landed download round (``span``: its
        ``result.download`` span's start, end and round size)."""
        if isinstance(outcome, ResultNotReadyError):
            # The doorbell outran the durable state (a crash-discarded shard
            # instance rang it): the task is still in flight and its
            # re-leased copy rings again, so keep waiting on it.  A real
            # completion announced while this round landed was parked as
            # early: re-registering delivers it.
            counter_inc("client.spurious_doorbells")
            self._register([(task_id, pending)])
            return
        # A failed download (e.g. the cloud store returned corrupt data)
        # consumes an attempt of its own task like a remote failure.
        failure = outcome if isinstance(outcome, Exception) else None
        if failure is None:
            status, payload = outcome
            site = self._home_site().name
            emit("data_transfer", resource=site, bytes=payload.nominal_size, via="faas-cloud")
            try:
                body = deserialize(payload)
            except ReproError as exc:
                failure = exc
        record_span(
            "result.download",
            parent=pending.trace_ctx,
            **span,
            **({} if failure is None else {"error": repr(failure)}),
        )
        if failure is not None:
            self._settle_leg(task_id, pending, False, None, repr(failure), None)
        elif status is TaskStatus.SUCCESS and body.get("success"):
            self._settle_leg(task_id, pending, True, body["value"], "", None)
        else:
            error = body.get("error", "remote task failed")
            self._settle_leg(task_id, pending, False, None, error, body.get("traceback"))

    def _finish_attempt(
        self,
        pending: _PendingTask,
        error: str,
        traceback_text: str | None,
        *,
        reject: Exception | None = None,
    ) -> None:
        """A task attempt failed: retry under the same future, or give up.

        ``reject`` is the cloud's admission rejection when the attempt never
        got in: retrying it counts as ``client.submit_retries`` (nothing ran,
        so ``client.retries`` does not move), and with no retry policy the
        future raises the rejection itself.  The backoff is a reactor timer
        and the retry is sent when it fires (``_retry``): nothing here
        sleeps, so the reactor goes on settling other results."""
        if pending.attempt and isinstance(
            reject, (DeadlineExceededError, TaskQuarantinedError)
        ):
            # A resubmission's terminal verdict: the deadline lapsed before
            # the cloud accepted it, or the payload was quarantined as
            # poison.  More attempts cannot change either.
            counter_inc("client.terminal_rejections", endpoint=pending.endpoint_id)
            pending.future.set_exception(reject)
            return
        if error.startswith("DeadlineExceededError"):
            # The cloud already ruled the work too late (expired in queue,
            # or skipped endpoint-side): retrying cannot beat a deadline
            # that has passed.
            counter_inc("client.deadline_failures", endpoint=pending.endpoint_id)
            pending.future.set_exception(DeadlineExceededError(error))
            return
        policy = self._retry_policy
        attempt = pending.attempt
        if policy is None or not policy.retries_left(
            attempt, elapsed=self._clock.now() - pending.started_at
        ):
            self._give_up(pending, attempt, error, traceback_text, reject)
            return
        if pending.deadline_at is not None and self._clock.now() >= pending.deadline_at:
            counter_inc("client.deadline_abandoned", endpoint=pending.endpoint_id)
            pending.future.set_exception(
                DeadlineExceededError(
                    f"deadline ({pending.deadline_at:.3f}s) passed after "
                    f"{attempt + 1} attempt(s); last error: {error}"
                )
            )
            return
        counter_inc(
            "client.retries" if reject is None else "client.submit_retries",
            endpoint=pending.endpoint_id,
        )
        delay = policy.delay_for(attempt, key=pending.chaos_base)
        get_reactor().call_later(
            delay, lambda: self._retry(pending, attempt, error, traceback_text, reject)
        )

    def _retry(
        self,
        pending: _PendingTask,
        attempt: int,
        error: str,
        traceback_text: str | None,
        reject: Exception | None,
    ) -> None:
        """A failed attempt's backoff is over (reactor thread): send the
        next one as a submit leg of its own, under a fresh task id.

        The arguments were serialized (and ``serialize_cost`` paid) exactly
        once, at first submit; a retry reuses ``pending.args_payload``
        as-is.  The counter pins that invariant — it must move in lockstep
        with ``client.retries`` + ``client.submit_retries`` or a
        double-serialization charge crept in.
        """
        if not self._running:
            self._abandon(pending)  # closed during the backoff
            return
        if not self._retry_policy.retries_left(
            attempt, elapsed=self._clock.now() - pending.started_at
        ):
            # The backoff itself can blow the ``max_elapsed`` budget;
            # re-check after it so a retry never launches past the budget
            # it was granted under.
            self._give_up(pending, attempt, error, traceback_text, reject)
            return
        counter_inc("client.serialize_skipped", endpoint=pending.endpoint_id)
        pending.attempt = attempt + 1
        # A fresh attempt races from scratch: no hedge group yet, and the
        # hedge delay measures from its submission.
        pending.hedge = None
        pending.leg = 0
        self._flush_batch([pending])

    def _give_up(
        self,
        pending: _PendingTask,
        attempt: int,
        error: str,
        traceback_text: str | None,
        reject: Exception | None,
    ) -> None:
        """No retry is left: the future raises the last error."""
        policy = self._retry_policy
        if policy is None:
            pending.future.set_exception(
                reject or TaskError(error, remote_traceback=traceback_text)
            )
        else:
            counter_inc("client.retries_exhausted", endpoint=pending.endpoint_id)
            pending.future.set_exception(
                RetryExhaustedError(
                    f"task failed after {attempt + 1} attempts: {error}",
                    attempts=attempt + 1,
                    last_error=error,
                )
            )

    def __enter__(self) -> "FaasClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class FaasExecutor(Executor):
    """``concurrent.futures.Executor`` over one (client, endpoint) pair —
    the interface parity FuncX advertises (§IV-B)."""

    def __init__(self, client: FaasClient, endpoint_id: str) -> None:
        self._client = client
        self._endpoint_id = endpoint_id
        self._shutdown = False

    def submit(self, fn: Callable, /, *args: object, **kwargs: object) -> Future:
        if self._shutdown:
            raise RuntimeError("cannot submit to a shut-down executor")
        return self._client.run(fn, self._endpoint_id, *args, **kwargs)

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        """Match ``concurrent.futures.Executor`` semantics:
        ``cancel_futures=True`` cancels this executor's still-pending
        futures (and forgets them at the client) instead of ignoring them."""
        self._shutdown = True
        if cancel_futures:
            self._client.cancel_pending(self._endpoint_id)
