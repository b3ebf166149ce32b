"""Shared fixtures: fast clock, clean registries, canonical testbed."""

from __future__ import annotations

import heapq
import queue
import threading

import pytest
from hypothesis import HealthCheck, settings

from repro.apps.environment import clear_software
from repro.batch.reactor import Reactor, reset_reactor
from repro.bench.recording import set_global_log
from repro.chaos.plan import set_injector
from repro.net.clock import Clock, get_clock, reset_clock
from repro.net.defaults import build_paper_testbed
from repro.observe import set_metrics, set_tracer
from repro.proxystore.store import clear_store_registry

# Property tests share the module-scoped clean_state fixture; silence the
# (irrelevant here) function-scoped-fixture health check.
settings.register_profile(
    "repro",
    suppress_health_check=[HealthCheck.function_scoped_fixture],
    deadline=None,
    max_examples=50,
)
settings.load_profile("repro")

#: One nominal second = 2 ms of wall time in tests.
TEST_TIME_SCALE = 0.002


@pytest.fixture(autouse=True)
def clean_state():
    # The reactor holds timers scheduled against the previous test's clock
    # epoch; drop it before the clock resets so none can fire across tests.
    reset_reactor()
    reset_clock(TEST_TIME_SCALE)
    clear_store_registry()
    clear_software()
    set_global_log(None)
    set_tracer(None)
    set_metrics(None)
    set_injector(None)
    yield
    set_global_log(None)
    set_tracer(None)
    set_metrics(None)
    set_injector(None)
    clear_store_registry()
    clear_software()


@pytest.fixture
def testbed():
    return build_paper_testbed(seed=42)


class RecordingClock:
    """The process clock plus a log of every modelled charge paid through it.

    Hand it to a component as ``clock=`` and each ``sleep`` that component
    makes is recorded as ``(thread name, nominal seconds)`` before it is
    paid.  Timestamps, scale and timeouts are the process clock's, so
    recorded and unrecorded components still agree on what time it is.
    Tests compare these *modelled* charges instead of wall-derived elapsed
    time, which host load magnifies by ``1 / time_scale``.

    A charge paid as a timer on the process reactor instead of a sleep is
    recorded in ``timers`` the same way, under the thread that armed it
    (the fixture installs the hook; hold timers are timers too).
    """

    def __init__(self) -> None:
        self._clock = get_clock()
        self.charges: list[tuple[str, float]] = []
        self.timers: list[tuple[str, float, str]] = []

    def clear(self) -> None:
        """Forget every charge and timer recorded so far."""
        del self.charges[:]
        del self.timers[:]

    def armed(self, thread: str | None = None) -> list[float]:
        """The reactor timers armed so far, optionally by one thread."""
        return [s for name, s, _fn in list(self.timers) if thread in (None, name)]

    def armed_calls(self, thread: str | None = None) -> list[tuple[str, float]]:
        """Like :meth:`armed`, each timer with the qualified name of the
        callback it fires (a ``functools.partial``'s function's)."""
        return [(fn, s) for name, s, fn in list(self.timers) if thread in (None, name)]

    def sleep(self, nominal_seconds: float) -> None:
        if nominal_seconds > 0:
            self.charges.append((threading.current_thread().name, nominal_seconds))
        self._clock.sleep(nominal_seconds)

    def __getattr__(self, name: str):
        return getattr(self._clock, name)

    def charged(self, thread: str | None = None) -> list[float]:
        """The charges so far, optionally only those one thread paid."""
        return [s for name, s in list(self.charges) if thread in (None, name)]


@pytest.fixture
def recording_clock(clean_state, monkeypatch):
    clock = RecordingClock()
    call_later = Reactor.call_later

    def recording_call_later(reactor, delay, fn):
        if delay > 0:
            name = getattr(getattr(fn, "func", fn), "__qualname__", "")
            clock.timers.append((threading.current_thread().name, delay, name))
        return call_later(reactor, delay, fn)

    monkeypatch.setattr(Reactor, "call_later", recording_call_later)
    return clock


def record_downloads(client) -> list:
    """Keep every result-download round ``client`` plans, in order.

    A download is not slept on the notifier thread: it is a
    :class:`repro.batch.Round` armed on the reactor whose ``charges`` are
    the ones a sleeping notifier paid, in the same order.  Import it with
    ``from conftest import record_downloads``."""
    planned: list = []
    plan = client._handle_completions

    def recorded(*args):
        download = plan(*args)
        if download is not None:
            planned.append(download)
        return download

    client._handle_completions = recorded
    return planned


class ManualClock(Clock):
    """A clock whose time moves only when a modelled charge, a timed-out
    wait or the test moves it.

    Timed waits never block: one whose condition does not already hold
    advances ``now`` by its whole budget and reports a timeout, so a
    single-threaded test can pass real timeouts without spinning.  A wait
    with no timeout (forever) still blocks on the real primitive.  Import
    it with ``from conftest import ManualClock``.
    """

    def __init__(self) -> None:
        super().__init__()
        self._now = 0.0

    def now(self) -> float:
        return self._now

    def sleep(self, nominal_seconds: float) -> None:
        self._now += max(nominal_seconds, 0.0)

    def _time_out(self, timeout: float) -> bool:
        self.sleep(timeout)
        return False

    def wait(self, waitable, timeout):
        if timeout is None:
            return waitable.wait()
        return waitable.wait(0.0) or self._time_out(timeout)

    def wait_for(self, cond, predicate, timeout):
        if timeout is None:
            return bool(cond.wait_for(predicate))
        return bool(predicate()) or self._time_out(timeout)

    def get(self, q, timeout):
        if timeout is None:
            return q.get()
        try:
            return q.get_nowait()
        except queue.Empty:
            self.sleep(timeout)
            raise


class ManualReactor(Reactor):
    """The process reactor under a :class:`ManualClock`: timers fire when
    the test runs them, each with the clock moved to its deadline.  Patch
    it in where rounds are armed (``repro.batch.round.get_reactor``) or
    outages end (``repro.tenancy.router.get_reactor``) and import it with
    ``from conftest import ManualReactor``.  Its timers are the reactor's
    own (``cancel``, ``call_every``), but a callback that raises fails the
    test instead of being counted."""

    def __init__(self, clock: ManualClock) -> None:
        super().__init__(clock)

    def _ensure_thread_locked(self) -> None:
        """No thread: :meth:`run` fires the timers."""

    def run(self, until: float | None = None) -> None:
        """Fire every live timer in deadline order -- only those due by
        ``until`` (then move the clock there), if given; a periodic timer
        keeps firing, so a reactor with one needs ``until``."""
        while True:
            with self._cond:
                while self._heap and self._heap[0][2].cancelled:
                    heapq.heappop(self._heap)
                if not self._heap or (until is not None and self._heap[0][0] > until):
                    break
                when, _, timer = heapq.heappop(self._heap)
            self._clock._now = max(self._clock._now, when)
            keep = timer.fn()
            if timer.period is not None and keep is not False and not timer.cancelled:
                timer.when = self._clock.now() + timer.period
                self._arm(timer)
        if until is not None:
            self._clock._now = max(self._clock._now, until)


class Inbox:
    """A bus listener that keeps what it is pushed, oldest first, and
    counts the lapses it is told of; ``Inbox.on(subscription)`` attaches
    one, ``consumer.attach(inbox.deliver, inbox.lapsed)`` hands one to a
    :class:`~repro.bus.BusConsumer`.  Under a :class:`ManualClock`, patch
    ``repro.bus.broker.get_reactor`` with a :class:`ManualReactor` and
    ``run(until=clock.now())`` it to deliver.  Import it with ``from
    conftest import Inbox``."""

    def __init__(self) -> None:
        self.envelopes: list = []
        self.lapses = 0

    @classmethod
    def on(cls, subscription, max_n: int = 100) -> "Inbox":
        inbox = cls()
        subscription.attach(inbox.deliver, inbox.lapsed, max_n)
        return inbox

    def deliver(self, envelopes) -> None:
        self.envelopes.extend(envelopes)

    def lapsed(self) -> None:
        self.lapses += 1

    def take(self) -> list:
        """What was pushed since the last ``take``."""
        taken, self.envelopes = self.envelopes, []
        return taken


class Doorbells:
    """A client's result topic, read without a client.  Build it before the
    completions (the bus keeps envelopes only for registered subscribers);
    ``take()`` returns the task ids rung since the last take, oldest first,
    and acks them on the client's behalf.  Import it with ``from conftest
    import Doorbells``."""

    def __init__(self, bus, client_id: str) -> None:
        from repro.faas.cloud import result_topic

        self.bus = bus
        self.key = (result_topic(client_id), client_id)
        bus.register_subscriber(*self.key)

    def take(self) -> list[str]:
        window = self.bus._states[self.key].window
        rung = [task_id for seq in sorted(window) for task_id in window[seq].payload.split(",")]
        self.bus.discard(*self.key)
        return rung


def hardened_router(clock: Clock, *, n_functions: int = 1, n_endpoints: int = 1):
    """A journaled 2-shard :class:`~repro.tenancy.CloudRouter` with health
    and poison tracking on ``clock``, driven through its API with no agent
    thread: ``(router, token, tenant, func_ids, endpoint_ids)``.  The
    functions are registered for tenant ``alice`` under fixed ids, so each
    lands on a fixed shard; the endpoints share one failover group.  Import it with ``from conftest import
    hardened_router``."""
    from repro.durable import FileJournalBackend, Journal
    from repro.faas import SCOPE_COMPUTE, AuthServer
    from repro.net.fs import FileSystem
    from repro.resilience import HealthPolicy, PoisonPolicy
    from repro.serialize import serialize
    from repro.tenancy import CloudRouter, tenant_scope

    testbed = build_paper_testbed(seed=42)
    auth = AuthServer()
    token = auth.issue_token(
        auth.register_identity("u", "anl"), {SCOPE_COMPUTE, tenant_scope("alice")}
    )
    wal = FileSystem("wal", clock=clock)
    router = CloudRouter(
        testbed.faas_cloud,
        testbed.network,
        auth,
        testbed.constants,
        clock,
        n_shards=2,
        journal_factory=lambda shard_id: Journal(
            FileJournalBackend(wal, shard_id), name=shard_id
        ),
        health_policy=HealthPolicy(),
        poison_policy=PoisonPolicy(),
    )
    router.create_tenant("alice")
    func_ids = [
        router.register_function(token, serialize(len), tenant="alice", func_id=f"fn-{n}")
        for n in range(n_functions)
    ]
    endpoint_ids = [
        router.register_endpoint(
            token, f"ep{n}", testbed.theta_compute, failover_group="pair"
        )
        for n in range(n_endpoints)
    ]
    return router, token, "alice", func_ids, endpoint_ids
