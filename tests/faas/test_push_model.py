"""Property: pushed tasks run once, from their lease holder, within credit.

Random single-threaded sequences drive a 2-shard router and two agents in
one failover group on a :class:`ManualClock`.  Every reactor the stack arms
through is one :class:`ManualReactor` the test runs, and a worker pool that
runs work only when told stands in for the agents' threads.  A seeded fault
plan loses, duplicates and force-lapses the agents' deliveries; the steps
submit, let time pass, run work, replay a subscription from its last ack,
pause and resume an agent (with or without a reclaim), let an agent's
lease lapse until it is reaped, and darken a shard.

After every step:

* a result is accepted at most once per task, and only from the
  endpoint that holds the task's lease;
* no agent has more dispatches unacked at the bus than its credit allows:
  they and the credit the cloud still holds for it fit in its window;
* no push published before a reclaim or a reap of its endpoint is
  delivered after it.

After a final drain every task is accepted exactly once.
"""

from __future__ import annotations

import pytest
from conftest import ManualClock, ManualReactor
from hypothesis import given
from hypothesis import strategies as st

from repro.chaos.plan import FaultInjector, FaultPlan, FaultSpec, set_injector
from repro.faas import SCOPE_COMPUTE, AuthServer, FaasEndpoint
from repro.faas.cloud import TaskSubmission, task_topic
from repro.net.defaults import PaperConstants, build_paper_testbed
from repro.serialize import serialize
from repro.tenancy import CloudRouter
from repro.tenancy.tenant import DEFAULT_TENANT

WINDOW = 2  # small, so the credit binds
CONSTANTS = PaperConstants(endpoint_heartbeat_period=1.0, endpoint_lease_ttl=3.0)
#: The modules that arm timers on the process reactor.
REACTOR_USERS = (
    "repro.faas.endpoint",
    "repro.bus.broker",
    "repro.batch.round",
    "repro.tenancy.router",
)
AGENTS = ("a", "b")
OPS = st.one_of(
    st.tuples(
        st.just("submit"), st.sampled_from(AGENTS), st.integers(0, 1), st.integers(1, 3)
    ),
    st.tuples(st.just("run"), st.sampled_from([0.01, 0.1, 0.5, 2.0])),
    st.tuples(st.just("work"), st.sampled_from(AGENTS)),
    st.tuples(st.just("resubscribe"), st.sampled_from(AGENTS)),
    st.tuples(st.just("pause"), st.sampled_from(AGENTS)),
    st.tuples(st.just("resume"), st.sampled_from(AGENTS), st.booleans()),
    st.tuples(st.just("lapse"), st.sampled_from(AGENTS)),
    st.tuples(st.just("outage"), st.sampled_from(["s0", "s1"])),
)


class StepPool:
    """A worker pool whose work runs only when the test says so."""

    def __init__(self, site):
        self.site = site
        self.work = []

    def start(self):
        return self

    def submit(self, work):
        self.work.append(work)

    def run_one(self):
        if self.work:
            self.work.pop(0)()

    def stop(self, *, drain=True):
        return []


class Fleet:
    def __init__(self, monkeypatch):
        self.clock = clock = ManualClock()
        self.reactor = ManualReactor(clock)
        for module in REACTOR_USERS:
            monkeypatch.setattr(f"{module}.get_reactor", lambda: self.reactor)
        testbed = build_paper_testbed(seed=42, constants=CONSTANTS)
        auth = AuthServer()
        self.token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
        self.router = router = CloudRouter(
            testbed.faas_cloud, testbed.network, auth, CONSTANTS, clock, n_shards=2
        )
        by_shard = {}
        for n in range(256):
            by_shard.setdefault(router._shard_for_partition(DEFAULT_TENANT, f"fn-{n}"), n)
        self.funcs = [
            router.register_function(self.token, serialize(abs), func_id=f"fn-{n}")
            for _, n in sorted(by_shard.items())
        ]
        self.task_ids: list[str] = []
        self.accepted: dict[str, int] = {}
        # Per task topic: the dispatches each push carried, by its sequence
        # number (every publish to a topic takes the next one); the last
        # sequence number published before the endpoint's last reap or
        # reclaim; and a model of its credit -- the dispatches pushed since
        # the cloud last took everything back and not yet returned, and the
        # epochs they were pushed under.
        self.pushed: dict[str, dict[int, int]] = {}
        self.voided: dict[str, int] = {}
        self.outstanding: dict[str, int] = {}
        self.epochs: dict[str, set[int]] = {}
        publish = router.bus.publish

        def recording_publish(topic, payload, **kwargs):
            if topic.startswith("tasks/"):
                pushes = self.pushed.setdefault(topic, {})
                pushes[len(pushes) + 1] = len(payload.dispatches)
                self.outstanding[topic] = self.outstanding.get(topic, 0) + len(
                    payload.dispatches
                )
                self.epochs.setdefault(topic, set()).add(payload.epoch)
            return publish(topic, payload, **kwargs)

        monkeypatch.setattr(router.bus, "publish", recording_publish)
        reap = router.fabric.endpoints.reap

        def recording_reap(now):
            lapsed = reap(now)
            for endpoint_id in lapsed:
                self.take_back(endpoint_id)
            return lapsed

        monkeypatch.setattr(router.fabric.endpoints, "reap", recording_reap)
        return_credit = router.return_credit

        def recording_return(token, endpoint_id, n, epoch):
            topic = task_topic(endpoint_id)
            if epoch in self.epochs.get(topic, ()):
                self.outstanding[topic] -= n
            return return_credit(token, endpoint_id, n, epoch)

        monkeypatch.setattr(router, "return_credit", recording_return)
        for shard_id in router.shard_ids:
            ledger = router.shard(shard_id).ledger
            apply = ledger.apply

            def recording_apply(record, _apply=apply, **live):
                effects = _apply(record, **live)
                if record.kind == "result":
                    for task in effects.completions:
                        assert task.endpoint_id == record.endpoint_id
                        count = self.accepted.get(task.task_id, 0) + 1
                        assert count == 1, f"{task.task_id} accepted twice"
                        self.accepted[task.task_id] = count
                return effects

            ledger.apply = recording_apply
        self.agents = {}
        for name in AGENTS:
            agent = FaasEndpoint(
                name,
                router,
                self.token,
                testbed.theta_login,
                StepPool(testbed.theta_compute),
                credit_window=WINDOW,
                clock=clock,
                failover_group="pair",
            )
            agent._on_tasks = self._checked(agent._on_tasks)
            self.agents[name] = agent.start()

    def take_back(self, endpoint_id):
        """A reap or a reclaim: nothing pushed to the endpoint so far may
        reach it, and none of it is owed back."""
        topic = task_topic(endpoint_id)
        self.voided[topic] = len(self.pushed.get(topic, {}))
        self.outstanding[topic] = 0
        self.epochs[topic] = set()

    def _checked(self, deliver):
        def on_tasks(envelopes):
            for envelope in envelopes:
                voided = self.voided.get(envelope.topic, 0)
                assert envelope.seq > voided, f"push {envelope.seq} delivered after its void"
            deliver(envelopes)

        return on_tasks

    def run(self, seconds):
        self.reactor.run(until=self.clock.now() + seconds)

    def step(self, op, *args):
        agent = self.agents.get(args[0]) if args and args[0] in AGENTS else None
        if op == "submit":
            _, func, n = args
            items = [
                TaskSubmission(
                    self.funcs[func],
                    agent.endpoint_id,
                    serialize(((len(self.task_ids) + i,), {})),
                )
                for i in range(n)
            ]
            answer = self.router.submit_batch(self.token, "client", items)
            self.task_ids += [t for t in answer if isinstance(t, str)]  # not throttled
        elif op == "run":
            self.run(args[0])
        elif op == "work":
            agent.pool.run_one()
        elif op == "resubscribe":
            agent._consumer.resubscribe()
        elif op == "pause" and agent._resumed.is_set():
            agent.pause()
        elif op == "resume":
            if args[1]:
                self.take_back(agent.endpoint_id)
            agent.resume(reclaim=args[1])
        elif op == "lapse":  # silent past its lease: reaped by the next sweep
            if agent._resumed.is_set():
                agent.pause()
            self.run(CONSTANTS.endpoint_lease_ttl + 2 * CONSTANTS.endpoint_heartbeat_period)
            agent.resume()
        elif op == "outage":
            self.router._begin_outage(args[0])

    def check(self):
        table = self.router.fabric.endpoints
        for agent in self.agents.values():
            endpoint_id = agent.endpoint_id
            topic = task_topic(endpoint_id)
            pushes = self.pushed.get(topic, {})
            # Acks are cumulative: a push processed past a gap stays unacked
            # at the bus until the gap is, but it is in the agent's hands.
            waiting = set(self.router.bus.unacked(topic, endpoint_id))
            unacked = sum(pushes[seq] for seq in waiting - agent._consumer._done_ahead)
            outstanding = self.outstanding.get(topic, 0)
            credit = table.credit(endpoint_id)
            assert unacked <= outstanding <= WINDOW, (agent.name, unacked, outstanding)
            assert outstanding + credit <= WINDOW, (agent.name, outstanding, credit)

    def drain(self):
        for agent in self.agents.values():
            if not agent._resumed.is_set():
                agent.resume()
        for _ in range(200):
            for agent in self.agents.values():
                while agent.pool.work:
                    agent.pool.run_one()
            self.run(1.0)
            self.check()
            if all(self.router.task(t).status.terminal for t in self.task_ids):
                return
        pytest.fail("the fleet never drained")


@given(seed=st.integers(0, 2**16), ops=st.lists(OPS, min_size=1, max_size=25))
def test_pushed_tasks_run_once_from_their_lease_holder_within_credit(seed, ops):
    set_injector(
        FaultInjector(
            FaultPlan.build(
                seed,
                [
                    FaultSpec(
                        "bus.deliver", "notification_loss", rate=0.3, match={"role": "endpoint"}
                    ),
                    FaultSpec(
                        "bus.duplicate",
                        "notification_duplicate",
                        rate=0.3,
                        match={"role": "endpoint"},
                    ),
                    FaultSpec(
                        "bus.subscription.drop",
                        "subscription_drop",
                        rate=0.1,
                        match={"role": "endpoint"},
                    ),
                ],
            )
        )
    )
    try:
        with pytest.MonkeyPatch.context() as monkeypatch:
            fleet = Fleet(monkeypatch)
            for op in ops:
                fleet.step(*op)
                fleet.check()
            fleet.drain()
            assert sorted(fleet.accepted) == sorted(fleet.task_ids)
    finally:
        set_injector(None)
