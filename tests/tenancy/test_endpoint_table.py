"""One endpoint table for the fleet.

A router's shards share one :class:`~repro.faas.cloud.EndpointTable`:
registrations, leases and reaps live once, so a heartbeat, a lease lapse
and a failover each count as one event however many shards there are, and
each shard still moves its own share of a dead endpoint's work within one
heartbeat.  Every test runs a 4-shard router on a :class:`ManualClock`, so
a lease lapses only when the test sleeps past it.
"""

from __future__ import annotations

import sys
import threading

from conftest import Inbox, ManualClock, ManualReactor

from repro.faas import SCOPE_COMPUTE, AuthServer
from repro.faas.cloud import TaskStatus, task_topic
from repro.net.defaults import build_paper_testbed
from repro.observe import MetricsRegistry, set_metrics
from repro.serialize import serialize
from repro.tenancy import CloudRouter
from repro.tenancy.tenant import DEFAULT_TENANT

N_SHARDS = 4


class Fleet:
    """A 4-shard router with endpoints ``a`` and ``b`` in one failover
    group and one function on every shard."""

    def __init__(self):
        self.metrics = MetricsRegistry()
        set_metrics(self.metrics)
        testbed = build_paper_testbed(seed=42)
        self.ttl = testbed.constants.endpoint_lease_ttl
        self.clock = ManualClock()
        auth = AuthServer()
        self.token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
        self.router = CloudRouter(
            testbed.faas_cloud,
            testbed.network,
            auth,
            testbed.constants,
            self.clock,
            n_shards=N_SHARDS,
        )
        self.ep = {
            name: self.router.register_endpoint(
                self.token, name, testbed.theta_compute, failover_group="g"
            )
            for name in "ab"
        }
        # One function per shard: fixed ids, placed by the ring.
        self.func_ids = {}
        for n in range(256):
            shard_id = self.router._shard_for_partition(DEFAULT_TENANT, f"fn-{n}")
            self.func_ids.setdefault(shard_id, f"fn-{n}")
        assert sorted(self.func_ids) == self.router.shard_ids
        for func_id in self.func_ids.values():
            self.router.register_function(self.token, serialize(len), func_id=func_id)

    def beat(self, name):
        return self.router.heartbeat(self.token, self.ep[name])

    def lapse_a(self):
        """``a`` goes silent for more than one TTL while ``b`` beats on."""
        for _ in range(2):
            self.clock.sleep(0.6 * self.ttl)
            self.beat("b")

    def count(self, name):
        return self.metrics.counter_total(name)


def test_one_heartbeat_writes_one_lease_in_one_table():
    fleet = Fleet()
    router, table = fleet.router, fleet.router.fabric.endpoints
    expiry = fleet.beat("a")
    assert expiry == fleet.clock.now() + fleet.ttl
    assert {id(router.shard(s).fabric.endpoints) for s in router.shard_ids} == {id(table)}
    assert table.lease(fleet.ep["a"]) == expiry
    assert table.lease(fleet.ep["b"]) is None  # never heartbeat: never leased
    assert fleet.count("faas.heartbeats") == 1


def test_one_lapse_is_one_reap_and_each_moved_task_counts_once():
    fleet = Fleet()
    router = fleet.router
    fleet.beat("a")
    fleet.beat("b")
    task_ids = [
        router.submit(fleet.token, "c", func_id, fleet.ep["a"], serialize(((n,), {})))
        for n, func_id in enumerate(fleet.func_ids.values())
    ]
    assert {task_id.split("-")[1] for task_id in task_ids} == set(router.shard_ids)
    fetched = router.fetch_tasks(fleet.token, fleet.ep["a"], 2)
    assert len(fetched) == 2  # two fetched, two still queued, on four shards

    fleet.lapse_a()

    assert fleet.count("faas.lease_expiries") == 1
    assert set(router.fabric.endpoints.reaps) == {fleet.ep["a"]}
    assert fleet.count("faas.failovers") == len(task_ids)
    for task_id in task_ids:
        record = router.task(task_id)
        assert record.status is TaskStatus.WAITING
        assert (record.endpoint_id, record.previous_endpoints) == (
            fleet.ep["b"],
            [fleet.ep["a"]],
        )
        assert record.requeues == 1
    fleet.beat("b")  # a later sweep moves nothing twice
    assert fleet.count("faas.failovers") == len(task_ids)
    refetched = router.fetch_tasks(fleet.token, fleet.ep["b"], 10)
    assert sorted(d.task_id for d in refetched) == sorted(task_ids)


def test_a_fetch_renews_no_lease_however_many_shards_it_drains():
    """Only a heartbeat keeps an agent alive: a fetch that sweeps all four
    shards leaves the one lease where the beat put it."""
    fleet = Fleet()
    table = fleet.router.fabric.endpoints
    expiry = fleet.beat("a")
    fleet.clock.sleep(0.6 * fleet.ttl)
    fleet.router.fetch_tasks(fleet.token, fleet.ep["a"], 10)
    assert table.lease(fleet.ep["a"]) == expiry
    fleet.clock.sleep(0.6 * fleet.ttl)
    fleet.beat("b")  # past the beat's TTL
    assert list(table.reaps) == [fleet.ep["a"]]
    assert fleet.count("faas.lease_expiries") == 1


def test_racing_sweeps_move_each_task_once_and_count_one_reap():
    """Eight threads sweep the four shards at once -- heartbeats, bare
    sweeps and empty fetches -- right after ``a``'s lease has lapsed: the
    table reaps once, and each shard moves its share once."""
    fleet = Fleet()
    router = fleet.router
    fleet.beat("a")
    fleet.beat("b")
    task_ids = [
        router.submit(fleet.token, "c", func_id, fleet.ep["a"], serialize(((n,), {})))
        for n, func_id in enumerate(fleet.func_ids.values())
    ]
    router.fetch_tasks(fleet.token, fleet.ep["a"], 2)
    fleet.clock.sleep(0.6 * fleet.ttl)
    fleet.beat("b")
    fleet.clock.sleep(0.6 * fleet.ttl)  # `a` has lapsed; nothing swept yet
    sweeps = [
        lambda: fleet.beat("b"),
        lambda: router.fetch_tasks(fleet.token, fleet.ep["b"], 0),
        *(router.shard(s).expire_leases for s in router.shard_ids),
    ]
    start = threading.Barrier(8)

    def worker(n):
        start.wait(timeout=10)
        for i in range(20):
            sweeps[(n + i) % len(sweeps)]()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert fleet.count("faas.lease_expiries") == 1
    assert fleet.count("faas.failovers") == len(task_ids)
    for task_id in task_ids:
        record = router.task(task_id)
        assert (record.endpoint_id, record.requeues) == (fleet.ep["b"], 1)


def test_racing_pushes_never_overdraw_the_credit(monkeypatch):
    """Eight threads push ``a`` at once while forty tasks wait across the
    four shards and ``a`` has a credit window of ten: exactly ten tasks
    are leased and published, each once, and no credit is left."""
    fleet = Fleet()
    router, endpoint_id = fleet.router, fleet.ep["a"]
    for n in range(40):
        func_id = list(fleet.func_ids.values())[n % N_SHARDS]
        router.submit(fleet.token, "c", func_id, endpoint_id, serialize(((n,), {})))
    table = router.fabric.endpoints
    table.grant(endpoint_id, fleet.token, 10)  # the window, not yet pushed
    start = threading.Barrier(8)

    def worker():
        start.wait(timeout=10)
        for _ in range(5):
            router._push(endpoint_id)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    reactor = ManualReactor(fleet.clock)
    monkeypatch.setattr("repro.bus.broker.get_reactor", lambda: reactor)
    inbox = Inbox.on(router.bus.subscribe(task_topic(endpoint_id), endpoint_id))
    reactor.run(until=fleet.clock.now())
    pushes = inbox.take()
    pushed = [d.task_id for push in pushes for d in push.payload.dispatches]
    assert len(pushed) == len(set(pushed)) == 10
    assert table.credit(endpoint_id) == 0
    assert router.queue_depth(endpoint_id) == 30
