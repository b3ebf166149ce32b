"""Poison-task quarantine end to end: quorum, refusal, journal durability,
and the operator retry/drop paths."""

from __future__ import annotations

import pytest

from repro.chaos.plan import FaultInjector, FaultPlan, FaultSpec, set_injector
from repro.chaos.policy import RetryPolicy
from repro.durable import FileJournalBackend, Journal, recover_cloud
from repro.exceptions import TaskQuarantinedError
from repro.faas import (
    SCOPE_COMPUTE,
    AuthServer,
    FaasClient,
    FaasCloud,
    FaasEndpoint,
)
from repro.faas.cloud import TaskStatus
from repro.net.clock import get_clock
from repro.net.context import at_site
from repro.net.defaults import PaperConstants, build_paper_testbed
from repro.net.fs import FileSystem
from repro.observe import MetricsRegistry, set_metrics
from repro.resilience import PoisonPolicy, PoisonTracker
from repro.resources import WorkerPool
from repro.serialize import serialize

FAST = dict(endpoint_heartbeat_period=1.0, endpoint_lease_ttl=30.0)


def _add(a, b):
    return a + b


POISON_EVERYTHING = FaultSpec(
    "worker.poison", "poison_task", rate=1.0, occurrences=tuple(range(32))
)


def test_quarantine_reaches_quorum_across_endpoints_then_refuses(testbed):
    metrics = MetricsRegistry()
    set_metrics(metrics)
    set_injector(FaultInjector(FaultPlan.build(3, [POISON_EVERYTHING])))
    auth = AuthServer()
    identity = auth.register_identity("u", "anl")
    token = auth.issue_token(identity, {SCOPE_COMPUTE})
    cloud = FaasCloud(
        testbed.faas_cloud,
        testbed.network,
        auth,
        testbed.constants,
        poison=PoisonTracker(PoisonPolicy(quorum=2)),
    )
    endpoints = [
        FaasEndpoint(
            name,
            cloud,
            token,
            testbed.theta_login,
            WorkerPool(testbed.theta_compute, 2, name=f"{name}-pool"),
            failover_group="dlq-pair",
        ).start()
        for name in ("ep-a", "ep-b")
    ]
    client = FaasClient(
        cloud,
        token,
        site=testbed.theta_login,
        retry_policy=RetryPolicy(max_attempts=5, base_delay=0.1, max_delay=1.0),
    )
    try:
        with at_site(testbed.theta_login):
            future = client.run(_add, endpoints[0].endpoint_id, 1, b=2)
        with pytest.raises(TaskQuarantinedError):
            future.result(timeout=120)
        # One strike per endpoint, steered to reach quorum, then refused.
        assert metrics.counter_total("resilience.poison_steered") == 1
        assert metrics.counter_total("resilience.quarantined") == 1
        assert metrics.counter_total("resilience.quarantine_refusals") == 1
        assert metrics.counter_total("client.terminal_rejections") == 1
        entries = cloud.deadletters()
        assert len(entries) == 1
        assert set(entries[0].endpoints) == {
            endpoints[0].endpoint_id,
            endpoints[1].endpoint_id,
        }
        # The "bad deploy" is rolled back: an operator retry completes.
        set_injector(None)
        entry = entries[0]
        task_id = cloud.deadletter_retry(
            token, entry.tenant, entry.fingerprint, endpoints[1].endpoint_id
        )
        assert task_id is not None
        deadline = get_clock().now() + 60.0
        while not cloud.task(task_id).status.terminal:
            assert get_clock().now() < deadline
            get_clock().sleep(0.5)
        assert cloud.task(task_id).status is TaskStatus.SUCCESS
        assert cloud.deadletters() == []
    finally:
        client.close()
        for endpoint in endpoints:
            endpoint.stop()
        set_injector(None)


class DurableRig:
    """A journaled, poison-aware cloud that can crash and recover."""

    def __init__(self, testbed):
        self.testbed = testbed
        self.auth = AuthServer()
        identity = self.auth.register_identity("u", "anl")
        self.token = self.auth.issue_token(identity, {SCOPE_COMPUTE})
        self.wal = FileSystem("wal", op_latency=1e-4)
        self.journal = Journal(FileJournalBackend(self.wal, "cloud"))
        self.cloud = self._build()
        self.ep_a = self.cloud.register_endpoint(
            self.token, "a", testbed.theta_login, failover_group="pair"
        )
        self.ep_b = self.cloud.register_endpoint(
            self.token, "b", testbed.theta_login, failover_group="pair"
        )
        self.func_id = self.cloud.register_function(self.token, serialize(_add))

    def _build(self, fabric=None):
        return FaasCloud(
            self.testbed.faas_cloud,
            self.testbed.network,
            self.auth,
            self.testbed.constants,
            fabric=fabric,
            journal=self.journal,
            poison=PoisonTracker(PoisonPolicy(quorum=2)),
        )

    def crash(self):
        fresh = self._build(fabric=self.cloud.fabric)
        recover_cloud(fresh)
        self.cloud = fresh
        return fresh

    def fail_once(self, endpoint_id):
        """Submit the canonical args to ``endpoint_id`` and report a
        terminal failure from it; returns the record's fingerprint."""
        with at_site(self.testbed.theta_login):
            task_id = self.cloud.submit(
                self.token,
                "client",
                self.func_id,
                endpoint_id,
                serialize(((1, 2), {})),
            )
            self.cloud.heartbeat(self.token, endpoint_id)
            dispatched = self.cloud.fetch_tasks(self.token, endpoint_id, 10)
            assert task_id in [d.task_id for d in dispatched]
            self.cloud.report_result(
                self.token,
                endpoint_id,
                task_id,
                False,
                serialize({"success": False, "error": "boom", "traceback": None}),
            )
        return self.cloud.task(task_id).fingerprint


def test_quarantine_survives_crash_recovery(testbed):
    rig = DurableRig(testbed)
    fingerprint = rig.fail_once(rig.ep_a)
    assert rig.fail_once(rig.ep_b) == fingerprint  # same content, same print
    assert rig.cloud.poison.is_quarantined("default", fingerprint)
    rig.crash()
    # The journaled quarantine outlives the process: the rebuilt shard
    # still refuses the fingerprint.
    assert rig.cloud.poison.is_quarantined("default", fingerprint)
    with at_site(testbed.theta_login):
        with pytest.raises(TaskQuarantinedError):
            rig.cloud.submit(
                rig.token, "client", rig.func_id, rig.ep_a, serialize(((1, 2), {}))
            )
    # A drop is journaled too: after another crash the entry stays gone.
    assert rig.cloud.deadletter_drop(rig.token, "default", fingerprint) is not None
    rig.crash()
    assert not rig.cloud.poison.is_quarantined("default", fingerprint)
    assert rig.cloud.deadletters() == []
    with at_site(testbed.theta_login):
        task_id = rig.cloud.submit(
            rig.token, "client", rig.func_id, rig.ep_a, serialize(((1, 2), {}))
        )
    assert rig.cloud.task(task_id).status is TaskStatus.WAITING
