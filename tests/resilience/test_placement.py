"""The one placement rule (``FaasCloud._place``) under composed faults.

Admission and every sweep ask one rule where a failover group's work goes:
a reaped member's to a live peer, an open breaker's to a healthy one, a
struck fingerprint's to a peer that has not voted, and everything else
stays.  These tests drive the cloud API directly on a ``ManualClock`` with
no threads, so every lease lapse and breaker trip happens at a known
instant.
"""

from __future__ import annotations

import hashlib

from conftest import ManualClock

from repro.durable import FileJournalBackend, Journal
from repro.faas import SCOPE_COMPUTE, AuthServer, FaasCloud
from repro.faas.cloud import TaskStatus
from repro.net.defaults import PaperConstants, build_paper_testbed
from repro.net.fs import FileSystem
from repro.observe import MetricsRegistry, set_metrics
from repro.resilience import (
    BREAKER_OPEN,
    EndpointHealthTracker,
    HealthPolicy,
    PoisonPolicy,
    PoisonTracker,
)
from repro.serialize import serialize
from repro.tenancy.tenant import DEFAULT_TENANT

TTL = 3.0

#: One slow sample opens a breaker and it stays open for the whole test;
#: heartbeat jitter is not under test.
GRAY = dict(
    latency_baseline=1.0,
    latency_threshold=2.0,
    min_samples=1,
    open_score=0.5,
    latency_alpha=1.0,
    open_duration=600.0,
    heartbeat_tolerance=1e6,
)


class Group:
    """A journaled cloud on a manual clock with one failover group."""

    def __init__(self, names="ab", *, ttl=TTL, health=None, poison=None):
        constants = PaperConstants(endpoint_heartbeat_period=1.0, endpoint_lease_ttl=ttl)
        testbed = build_paper_testbed(seed=7, constants=constants)
        self.clock = ManualClock()
        self.ttl = ttl
        auth = AuthServer()
        self.token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
        self.journal = Journal(FileJournalBackend(FileSystem("wal", clock=self.clock), "c"))
        self.cloud = FaasCloud(
            testbed.faas_cloud,
            testbed.network,
            auth,
            constants,
            self.clock,
            journal=self.journal,
            health=health,
            poison=poison,
        )
        self.ep = {
            name: self.cloud.register_endpoint(
                self.token, name, testbed.theta_compute, failover_group="group"
            )
            for name in names
        }
        self.func_id = self.cloud.register_function(self.token, serialize(len))

    def name(self, endpoint_id):
        return next(name for name, e in self.ep.items() if e == endpoint_id)

    def beat(self, *names):
        for name in names:
            self.cloud.heartbeat(self.token, self.ep[name])

    def lapse(self, *alive):
        """Everyone else goes silent for over a TTL while ``alive`` beat on."""
        for _ in range(2):
            self.clock.sleep(0.6 * self.ttl)
            self.beat(*alive)

    def submit(self, name, value=1):
        return self.cloud.submit(
            self.token, "client", self.func_id, self.ep[name], serialize(((value,), {}))
        )

    def owner(self, task_id):
        return self.name(self.cloud.task(task_id).endpoint_id)

    def fetch(self, name):
        fetched = self.cloud.fetch_tasks(self.token, self.ep[name], 10)
        return [d.task_id for d in fetched]

    def run_slowly(self, name, value, seconds):
        """``name`` fetches one task and reports it ``seconds`` later."""
        task_id = self.submit(name, value)
        assert self.fetch(name) == [task_id]
        self.clock.sleep(seconds)
        self.cloud.report_result(self.token, self.ep[name], task_id, True, serialize({}))

    def fingerprint(self, value):
        digest = hashlib.sha256(serialize(((value,), {})).data).hexdigest()[:16]
        return f"{self.func_id}:{digest}"

    def strike(self, name, value):
        """``name`` votes against ``value``'s fingerprint."""
        self.cloud.poison.note_failure(
            DEFAULT_TENANT,
            self.fingerprint(value),
            self.ep[name],
            func_id=self.func_id,
            task_id="task",
            args_locator="locator",
            client_id="client",
            error="boom",
            now=self.clock.now(),
        )

    def rehomes(self):
        _, log = self.journal.records()
        return [
            (self.name(doc["source"]), self.name(doc["target"]))
            for doc in log
            if doc["type"] == "rehome"
        ]


def test_submit_after_a_reap_is_admitted_to_the_live_peer():
    metrics = MetricsRegistry()
    set_metrics(metrics)
    group = Group()
    group.beat("a", "b")
    group.lapse("b")
    task_id = group.submit("a")
    assert group.owner(task_id) == "b"
    assert set(group.cloud.fabric.endpoints.reaps) == {group.ep["a"]}
    assert metrics.counter_total("faas.failovers") == 1
    assert group.fetch("b") == [task_id]


def test_a_member_back_from_a_whole_group_outage_drains_the_dead_queues():
    group = Group()
    group.beat("a", "b")
    group.clock.sleep(2 * TTL)
    task_id = group.submit("a")  # its sweep reaps both: nowhere else to go
    assert group.owner(task_id) == "a"
    group.beat("b")
    assert group.rehomes() == [("a", "b")]
    assert group.fetch("b") == [task_id]


def test_the_dead_member_itself_coming_back_keeps_its_queue():
    group = Group()
    group.beat("a", "b")
    group.clock.sleep(2 * TTL)
    task_id = group.submit("a")
    group.beat("a")
    assert group.rehomes() == []
    assert group.fetch("a") == [task_id]


def test_a_released_lease_is_not_a_reap_and_its_queue_stays_put():
    group = Group()
    group.beat("a", "b")
    group.cloud.release_lease(group.token, group.ep["a"])
    task_id = group.submit("a")
    group.lapse("b")
    assert group.cloud.expire_leases() == []
    assert group.rehomes() == []
    assert group.owner(task_id) == "a"
    assert group.cloud.task(task_id).status is TaskStatus.WAITING


def test_a_struck_fingerprint_is_placed_toward_quorum():
    metrics = MetricsRegistry()
    set_metrics(metrics)
    group = Group(poison=PoisonTracker(PoisonPolicy(quorum=3)))
    group.beat("a", "b")
    group.strike("a", 7)
    assert group.owner(group.submit("a", 7)) == "b"
    assert group.owner(group.submit("a", 8)) == "a"  # other content: no strike
    group.strike("b", 7)
    assert group.owner(group.submit("a", 7)) == "a"  # every peer voted: stays
    assert metrics.counter_total("resilience.poison_steered") == 1


def _struck_e_and_open_u():
    """Group {E, U, W}: E has voted against payload 7 and U's breaker is
    open after one result ten times slower than the baseline."""
    health = EndpointHealthTracker(HealthPolicy(**GRAY))
    group = Group(
        "euw", ttl=120.0, health=health, poison=PoisonTracker(PoisonPolicy(quorum=3))
    )
    group.beat("e", "u", "w")
    group.strike("e", 7)
    group.run_slowly("u", 9, 10.0)
    now = group.clock.now()
    assert [health.evaluate(group.ep[n], now) == BREAKER_OPEN for n in "euw"] == [
        False,
        True,
        False,
    ]
    return group


def test_a_retry_struck_on_e_skips_the_open_u_for_the_untried_w():
    """The old poison step picked U (untried) and the breaker step then
    picked U's first healthy peer, E: back onto the endpoint that voted."""
    metrics = MetricsRegistry()
    set_metrics(metrics)
    group = _struck_e_and_open_u()
    assert group.owner(group.submit("e", 7)) == "w"
    assert metrics.counter_total("resilience.poison_steered") == 1
    assert metrics.counter_total("resilience.steered") == 0


def test_work_steered_off_an_open_breaker_passes_over_a_voter():
    """Aimed at the open U, the payload E voted against goes to W, not to
    E, U's first healthy peer."""
    metrics = MetricsRegistry()
    set_metrics(metrics)
    group = _struck_e_and_open_u()
    assert group.owner(group.submit("u", 7)) == "w"
    assert group.owner(group.submit("u", 8)) == "e"  # no votes: first healthy
    assert metrics.counter_total("resilience.steered") == 2
