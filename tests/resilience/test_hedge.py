"""Hedged execution end to end: first result wins, losers reconciled
exactly once under ``client.hedges{outcome=}``."""

from __future__ import annotations

import hashlib

import pytest

from repro.chaos.plan import FaultInjector, FaultPlan, FaultSpec, set_injector
from repro.chaos.policy import RetryPolicy
from repro.faas import (
    SCOPE_COMPUTE,
    AuthServer,
    FaasClient,
    FaasCloud,
    FaasEndpoint,
)
from repro.net.clock import get_clock
from repro.net.context import at_site
from repro.net.defaults import PaperConstants, build_paper_testbed
from repro.observe import MetricsRegistry, set_metrics
from repro.resilience import HedgePolicy
from repro.resources import WorkerPool
from repro.serialize import serialize

# A generous lease TTL: at the test time scale a 3 s nominal lease is only
# ~6 ms of wall time, so scheduler jitter could spuriously expire leases and
# fail work over mid-test.  Hedging, not lease failover, is under test here.
FAST = dict(endpoint_heartbeat_period=1.0, endpoint_lease_ttl=30.0)


def _add(a, b):
    return a + b


def _count(metrics, name, **labels):
    return sum(
        counter.value
        for n, lab, counter in metrics.counters()
        if n == name and all(lab.get(k) == v for k, v in labels.items())
    )


class HedgeRig:
    """Two-endpoint fabric with an optional gray (slow) primary."""

    def __init__(self, seed=11, specs=(), retry_policy=None, failover_group="pair"):
        self.metrics = MetricsRegistry()
        set_metrics(self.metrics)
        self.injector = FaultInjector(FaultPlan.build(seed, specs))
        set_injector(self.injector)
        constants = PaperConstants(**FAST)
        self.testbed = build_paper_testbed(seed=seed, constants=constants)
        auth = AuthServer()
        identity = auth.register_identity("u", "anl")
        self.token = auth.issue_token(identity, {SCOPE_COMPUTE})
        self.cloud = FaasCloud(
            self.testbed.faas_cloud, self.testbed.network, auth, constants
        )
        self.endpoints = [
            FaasEndpoint(
                name,
                self.cloud,
                self.token,
                self.testbed.theta_login,
                WorkerPool(self.testbed.theta_compute, 2, name=f"{name}-pool"),
                failover_group=failover_group,
            ).start()
            for name in ("ep-a", "ep-b")
        ]
        self.client = FaasClient(
            self.cloud,
            self.token,
            site=self.testbed.theta_login,
            retry_policy=retry_policy,
        )

    def close(self):
        self.client.close()
        for endpoint in self.endpoints:
            endpoint.stop()
        set_injector(None)


def _gray(endpoint_name, delay):
    """The primary endpoint is alive but everything it runs crawls."""
    return FaultSpec(
        "endpoint.slow",
        "endpoint_slow",
        rate=1.0,
        match={"endpoint": endpoint_name},
        delay=delay,
    )


def test_hedge_wins_against_a_gray_primary():
    rig = HedgeRig(specs=[_gray("ep-a", 8.0)])
    try:
        ep_a, ep_b = (e.endpoint_id for e in rig.endpoints)
        policy = HedgePolicy(endpoints=(ep_b,), delay=2.0)
        with at_site(rig.testbed.theta_login):
            future = rig.client.run(_add, ep_a, 3, b=4, _hedge=policy)
        assert future.result(timeout=60) == 7
        assert _count(rig.metrics, "client.hedges_launched") == 1
        assert _count(rig.metrics, "client.hedges", outcome="won") == 1
        # The gray primary was already executing: too late to cancel, and
        # the primary leg never gets a hedge outcome of its own.
        assert _count(rig.metrics, "client.hedges", outcome="lost") == 0
        assert _count(rig.metrics, "client.hedges", outcome="wasted") == 0
        # The primary's eventual slow result must drop without a second
        # future resolution (give it time to land).
        get_clock().sleep(12.0)
        assert future.result() == 7
    finally:
        rig.close()


def test_hedge_loses_while_still_queued():
    # No failover group here: a paused endpoint stops heartbeating, and its
    # 30 s lease is only ~60 ms of wall time at the test scale.  On a loaded
    # host the lease lapsed before the primary finished, the group failed
    # the parked duplicate over to ep-a, it executed there, and the loss
    # was (correctly) counted as ``wasted`` instead of ``lost``.  Without a
    # group a lapsed lease leaves the queued leg where it is.
    rig = HedgeRig(specs=[_gray("ep-a", 4.0)], failover_group=None)
    try:
        ep_a, ep_b = (e.endpoint_id for e in rig.endpoints)
        rig.endpoints[1].pause()  # the hedge target parks the duplicate
        policy = HedgePolicy(endpoints=(ep_b,), delay=1.0)
        with at_site(rig.testbed.theta_login):
            future = rig.client.run(_add, ep_a, 1, b=1, _hedge=policy)
        assert future.result(timeout=60) == 2
        assert _count(rig.metrics, "client.hedges_launched") == 1
    finally:
        rig.close()
    # Primary finished first; the queued duplicate was cancelled before any
    # endpoint fetched it: no duplicate execution.  The cancel is a reactor
    # timer that ``close`` waits out, so the counters are read after it.
    assert _count(rig.metrics, "client.hedges", outcome="lost") == 1
    assert _count(rig.metrics, "client.hedges", outcome="won") == 0
    assert _count(rig.metrics, "resilience.cancels") == 1


def test_failed_hedge_is_wasted_work():
    specs = [
        _gray("ep-a", 6.0),
        # The duplicate lands on ep-b and dies there; the primary wins.
        FaultSpec(
            "worker.execute",
            "worker_exception",
            rate=1.0,
            occurrences=tuple(range(8)),
            match={"endpoint": "ep-b"},
        ),
    ]
    rig = HedgeRig(specs=specs)
    try:
        ep_a, ep_b = (e.endpoint_id for e in rig.endpoints)
        policy = HedgePolicy(endpoints=(ep_b,), delay=1.0)
        with at_site(rig.testbed.theta_login):
            future = rig.client.run(_add, ep_a, 5, b=5, _hedge=policy)
        assert future.result(timeout=60) == 10
        assert _count(rig.metrics, "client.hedges", outcome="wasted") == 1
        assert _count(rig.metrics, "client.hedges", outcome="won") == 0
        assert _count(rig.metrics, "client.retries") == 0
    finally:
        rig.close()


def test_all_legs_failing_retries_to_the_original_endpoint():
    specs = [
        _gray("ep-a", 3.0),
        # Every first attempt dies wherever it runs; the retry succeeds.
        FaultSpec("worker.execute", "worker_exception", rate=1.0, match={"attempt": 0}),
    ]
    rig = HedgeRig(
        specs=specs,
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.2, max_delay=1.0),
    )
    try:
        ep_a, ep_b = (e.endpoint_id for e in rig.endpoints)
        policy = HedgePolicy(endpoints=(ep_b,), delay=1.0)
        with at_site(rig.testbed.theta_login):
            future = rig.client.run(_add, ep_a, 6, b=7, _hedge=policy)
        assert future.result(timeout=120) == 13
        assert _count(rig.metrics, "client.retries") == 1
        # The retry returns to the originally requested endpoint.
        records = rig.cloud.task_records()
        retried = [
            r
            for r in records
            if (r.chaos_key or "").endswith("#a1") and "#h" not in (r.chaos_key or "")
        ]
        assert len(retried) == 1
        assert retried[0].endpoint_id == ep_a
    finally:
        rig.close()


def _crash_race_ledger(seed):
    """Satellite: gray primary + hedge endpoint crashing mid-flight.

    The hedge leg dies with its endpoint, so the gray primary's slow result
    is the one that resolves the future; every other delivery (the orphaned
    hedge, lease reaps) is reconciled as duplicate/stale and the future
    resolves exactly once.  Returns a digest of the chaos ledger + outcome
    for determinism checks.
    """
    rig = HedgeRig(seed=seed, specs=[_gray("ep-a", 10.0)])
    try:
        ep_a, ep_b = (e.endpoint_id for e in rig.endpoints)
        policy = HedgePolicy(endpoints=(ep_b,), delay=1.0)
        with at_site(rig.testbed.theta_login):
            future = rig.client.run(_add, ep_a, 2, b=3, _hedge=policy)
        get_clock().sleep(2.0)  # hedge launched and dispatched on ep-b
        rig.endpoints[1].simulate_crash()
        value = future.result(timeout=120)
        assert value == 5
        # Exactly-once: a settled future stays settled through the late
        # deliveries (gray primary result, failover copy, lease reaps).
        get_clock().sleep(15.0)
        assert future.result() == 5
        assert _count(rig.metrics, "client.hedges_launched") == 1
        fires = sorted(
            (fire.hook, fire.mode, fire.key) for fire in rig.injector.fires()
        )
        ledger = repr((fires, value))
        return hashlib.sha256(ledger.encode()).hexdigest()[:16]
    finally:
        rig.close()


def test_hedge_crash_race_resolves_once_and_deterministically():
    assert _crash_race_ledger(23) == _crash_race_ledger(23)
