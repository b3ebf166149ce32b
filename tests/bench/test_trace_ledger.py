"""Trace spans must agree with the Result ledger they narrate.

Runs the Fig. 3 no-op cell (FuncX fabric, by-value payloads) with tracing
enabled and cross-checks span medians against the ledger-derived component
times.  The reconstructed hops (``fabric.dispatch``, ``fabric.collect``) are
built from the same timestamps, so they must match exactly; the live spans
(``task``, ``worker.execute``) are stamped by independent clock reads and
must land within ±20 %.
"""

from __future__ import annotations

import statistics

from repro.core.queues import ColmenaQueues, TopicSpec
from repro.core.task_server import FuncXTaskServer, MethodSpec
from repro.faas import SCOPE_COMPUTE, AuthServer, FaasClient, FaasCloud, FaasEndpoint
from repro.net.context import at_site
from repro.net.kvstore import KVServer
from repro.observe import MetricsRegistry, Tracer, find_orphans, set_metrics, set_tracer
from repro.resources import WorkerPool
from repro.serialize import Blob

N_TASKS = 12
PAYLOAD_BYTES = 10_000


def noop_task(payload=None):
    return None


def _run_traced_cell(testbed):
    queues = ColmenaQueues(
        KVServer(testbed.theta_login),
        testbed.network,
        topic_specs={"bench": TopicSpec("bench")},
    )
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("bench", "anl"), {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, testbed.constants)
    pool = WorkerPool(testbed.theta_compute, 1, name="trace-ledger")
    endpoint = FaasEndpoint("theta", cloud, token, testbed.theta_login, pool).start()
    client = FaasClient(cloud, token, site=testbed.theta_login)
    server = FuncXTaskServer(
        queues,
        [MethodSpec(noop_task, target=endpoint.endpoint_id)],
        testbed.theta_login,
        client,
    )
    server.start()
    results = []
    try:
        with at_site(testbed.theta_login):
            for _ in range(N_TASKS):
                queues.send_request("noop_task", args=(Blob(PAYLOAD_BYTES),), topic="bench")
                result = queues.get_result("bench", timeout=240)
                assert result is not None and result.success
                results.append(result)
            queues.send_kill_signal()
        server.join(timeout=10)
    finally:
        server.stop()
        endpoint.stop()
    return results


def _median_span(spans, name):
    durations = [s.duration for s in spans if s.name == name and s.duration is not None]
    assert durations, f"no complete {name!r} spans recorded"
    return statistics.median(durations)


def _median_ledger(results, attr):
    return statistics.median(getattr(r, attr) for r in results)


def _within(a, b, rel):
    return abs(a - b) <= rel * max(a, b)


def test_trace_medians_agree_with_result_ledger(testbed):
    tracer = Tracer()
    set_tracer(tracer)
    set_metrics(MetricsRegistry())
    results = _run_traced_cell(testbed)
    spans = tracer.spans()

    # Every task produced one trace, correlated by task id, with no orphans.
    assert len({s.trace_id for s in spans}) == N_TASKS
    assert {s.trace_id for s in spans} == {r.task_id for r in results}
    assert find_orphans(spans) == []

    # Reconstructed hops reuse the ledger's own timestamps: exact agreement.
    assert _within(
        _median_span(spans, "fabric.dispatch"),
        _median_ledger(results, "comm_server_to_worker"),
        1e-9,
    )
    assert _within(
        _median_span(spans, "fabric.collect"),
        _median_ledger(results, "comm_worker_to_server"),
        1e-9,
    )
    assert _within(
        _median_span(spans, "task"),
        _median_ledger(results, "task_lifetime"),
        1e-9,
    )

    # Live spans stamp their own clock reads around the same work: ±20 %.
    assert _within(
        _median_span(spans, "worker.execute"),
        _median_ledger(results, "time_on_worker"),
        0.20,
    )
    # worker.run is the envelope around worker.execute: it adds the
    # manager<->worker transfers and the FaaS payload (de)serialization,
    # so it must strictly contain the ledger's on-worker window.
    assert _median_span(spans, "worker.run") >= _median_ledger(
        results, "time_on_worker"
    )


def test_metrics_count_the_campaign(testbed):
    registry = MetricsRegistry()
    set_metrics(registry)
    results = _run_traced_cell(testbed)
    assert len(results) == N_TASKS
    assert registry.counter_total("queues.tasks_submitted") == N_TASKS
    assert registry.counter_total("queues.results_received") == N_TASKS
    assert registry.counter_total("server.tasks_dispatched") == N_TASKS
    assert registry.counter_total("faas.api_calls") >= N_TASKS
    assert registry.histogram("task.lifetime_s", topic="bench").count == N_TASKS
    # Every task reached its endpoint in a push, and no push was empty:
    # the dispatch rounds carried the tasks once each.
    rounds = [
        size
        for name, _labels, hist in registry.histograms()
        if name == "endpoint.push_size"
        for size in hist.values()
    ]
    assert sum(rounds) == N_TASKS and min(rounds) >= 1
    assert 1 <= registry.counter("bus.published", role="endpoint").value <= N_TASKS
