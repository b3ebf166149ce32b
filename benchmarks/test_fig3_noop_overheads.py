"""Figure 3 — component times of no-op tasks over FuncX, with and without
ProxyStore.

Paper setup (§V-C1): Thinker + Task Server on a Theta login node, one FuncX
endpoint executing on a Theta KNL node, 50 no-op tasks per cell, inputs of
10 kB and 1 MB, proxy threshold zero.  Compared backends: none (everything
through the FuncX cloud), ProxyStore-file (Lustre), ProxyStore-redis.

Paper claims under test:
* Task-Server→worker communication dominates the by-value task lifetime;
* proxying cuts that communication 2–3× at 10 kB and up to 10× at 1 MB;
* Thinker↔Task-Server gains appear for large objects.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics

import pytest

from common import fmt_s, noop_task
from repro.batch import BatchPolicy
from repro.bench.reporting import ReportTable
from repro.core.queues import ColmenaQueues, TopicSpec
from repro.core.task_server import FuncXTaskServer, MethodSpec
from repro.faas import SCOPE_COMPUTE, AuthServer, FaasClient, FaasCloud, FaasEndpoint
from repro.net.clock import get_clock
from repro.net.context import at_site
from repro.net.defaults import build_paper_testbed
from repro.net.kvstore import KVServer
from repro.observe import MetricsRegistry, set_metrics
from repro.proxystore import FileConnector, RedisConnector, Store
from repro.resources import WorkerPool
from repro.serialize import Blob

N_TASKS = 30
SIZES = {"10kB": 10_000, "1MB": 1_000_000}
BACKENDS = ("none", "file", "redis")

#: Small-task storm scale for the default-vs-zero-copy comparison;
#: REPRO_BATCH_QUICK=1 shrinks it for the CI smoke job.
STORM_TASKS = 60 if os.environ.get("REPRO_BATCH_QUICK") else 200
STORM_SINGLES = 4 if os.environ.get("REPRO_BATCH_QUICK") else 8
STORM_PAYLOAD = 10_000  # the redis band: the second-hop cost zero-copy skips


def _run_cell(backend: str, payload_bytes: int, seed: int) -> list:
    testbed = build_paper_testbed(seed=seed)
    if backend == "none":
        store, threshold = None, None
    elif backend == "file":
        store = Store(f"f3-file-{seed}", FileConnector(testbed.mounts.volume("theta-lustre")))
        threshold = 0
    else:
        store = Store(
            f"f3-redis-{seed}",
            RedisConnector(KVServer(testbed.theta_login, name="data"), testbed.network),
        )
        threshold = 0

    queues = ColmenaQueues(
        KVServer(testbed.theta_login),
        testbed.network,
        topic_specs={"bench": TopicSpec("bench", store=store, proxy_threshold=threshold)},
    )
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("bench", "anl"), {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, testbed.constants)
    pool = WorkerPool(testbed.theta_compute, 1, name=f"f3-{backend}-{payload_bytes}")
    endpoint = FaasEndpoint("theta", cloud, token, testbed.theta_login, pool).start()
    client = FaasClient(cloud, token, site=testbed.theta_login)
    server = FuncXTaskServer(
        queues,
        [
            MethodSpec(
                noop_task,
                target=endpoint.endpoint_id,
                output_store=store.name if store else None,
                output_threshold=threshold,
            )
        ],
        testbed.theta_login,
        client,
    )
    server.start()
    results = []
    try:
        with at_site(testbed.theta_login):
            for _ in range(N_TASKS):
                # One task in flight at a time: clean per-component medians.
                queues.send_request("noop_task", args=(Blob(payload_bytes),), topic="bench")
                result = queues.get_result("bench", timeout=240)
                assert result is not None and result.success
                results.append(result)
            queues.send_kill_signal()
        server.join(timeout=10)
    finally:
        server.stop()
        endpoint.stop()
        if store is not None:
            store.close()
    return results


def _median(results, attr):
    return statistics.median(getattr(r, attr) for r in results)


@pytest.mark.benchmark(group="fig3")
def test_fig3_noop_overheads(benchmark, report_sink):
    cells: dict[tuple[str, str], list] = {}

    def run():
        for size_label, nbytes in SIZES.items():
            for backend in BACKENDS:
                cells[(size_label, backend)] = _run_cell(backend, nbytes, seed=11)
        return cells

    benchmark.pedantic(run, rounds=1, iterations=1)

    table = ReportTable("Fig. 3 — no-op task component medians (FuncX fabric)")
    for size_label in SIZES:
        for backend in BACKENDS:
            results = cells[(size_label, backend)]
            table.add(
                f"{size_label}/{backend}: lifetime",
                "-",
                fmt_s(_median(results, "task_lifetime")),
            )
            table.add(
                f"{size_label}/{backend}: server->worker",
                "dominant (by value)",
                fmt_s(_median(results, "comm_server_to_worker")),
            )
            table.add(
                f"{size_label}/{backend}: thinker->server",
                "-",
                fmt_s(_median(results, "comm_client_to_server")),
            )
            table.add(
                f"{size_label}/{backend}: on worker",
                "-",
                fmt_s(_median(results, "time_on_worker")),
            )
            table.add(
                f"{size_label}/{backend}: serialization",
                "-",
                fmt_s(_median(results, "time_serialization")),
            )

    # Claim 1: by-value, server->worker communication dominates lifetime.
    by_value = cells[("1MB", "none")]
    s2w = _median(by_value, "comm_server_to_worker")
    dominant = s2w >= max(
        _median(by_value, "comm_client_to_server"),
        _median(by_value, "time_on_worker"),
        _median(by_value, "time_serialization"),
    )
    table.add(
        "1MB by-value: server->worker dominates",
        "yes",
        "yes" if dominant else "no",
        holds=dominant,
    )

    # Claim 2: proxying speeds up server->worker 2-3x at 10 kB, up to 10x at 1 MB.
    for size_label, low, high in (("10kB", 1.5, 30.0), ("1MB", 3.0, 100.0)):
        base = _median(cells[(size_label, "none")], "comm_server_to_worker")
        best = min(
            _median(cells[(size_label, b)], "comm_server_to_worker")
            for b in ("file", "redis")
        )
        speedup = base / best
        claim = "2-3x" if size_label == "10kB" else "up to 10x"
        table.add(
            f"{size_label}: proxy speedup (server->worker)",
            claim,
            f"{speedup:.1f}x",
            holds=speedup >= low,
        )

    # Claim 3: proxied lifetimes beat by-value lifetimes at both sizes.
    for size_label in SIZES:
        base = _median(cells[(size_label, "none")], "task_lifetime")
        best = min(
            _median(cells[(size_label, b)], "task_lifetime") for b in ("file", "redis")
        )
        table.add(
            f"{size_label}: proxied lifetime < by-value",
            "yes",
            f"{best:.2f}s vs {base:.2f}s",
            holds=best < base,
        )

    report_sink("fig3_noop_overheads", table)
    assert table.all_hold, "Fig. 3 qualitative claims diverged; see table"


def _storm_cell(zero_copy: bool, seed: int) -> dict:
    """Drive one small-task storm straight through the FaaS client and
    measure sustained throughput plus per-task overhead operations.

    Both columns coalesce their submits and drain their uplinks — that is
    the default stack.  ``zero_copy`` adds the explicit batch policy, whose
    members ride the submit message borrowed and skip the payload store."""
    testbed = build_paper_testbed(seed=seed)
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("bench", "anl"), {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, testbed.constants)
    pool = WorkerPool(testbed.theta_compute, 8, name=f"storm-{zero_copy}")
    endpoint = FaasEndpoint("theta", cloud, token, testbed.theta_login, pool).start()
    metrics = MetricsRegistry()
    set_metrics(metrics)
    client = FaasClient(
        cloud,
        token,
        site=testbed.theta_login,
        batch=(
            BatchPolicy(max_batch=32, flush_deadline=0.05, min_hold=0.002)
            if zero_copy
            else None
        ),
    )
    clock = get_clock()
    try:
        with at_site(testbed.theta_login):
            func_id = client.register_function(noop_task)
            started = clock.now()
            futures = [
                client.submit(func_id, endpoint.endpoint_id, Blob(STORM_PAYLOAD))
                for _ in range(STORM_TASKS)
            ]
            for future in futures:
                assert future.result(timeout=1200) is None
            makespan = clock.now() - started
            storm_ops = _overhead_ops(metrics)
            # Sequential lone tasks: what a Thinker waiting on each result
            # sees, with nothing to coalesce with.
            single_latencies = []
            for _ in range(STORM_SINGLES):
                t0 = clock.now()
                client.submit(
                    func_id, endpoint.endpoint_id, Blob(STORM_PAYLOAD)
                ).result(timeout=1200)
                single_latencies.append(clock.now() - t0)
    finally:
        client.close()
        endpoint.stop()
        set_metrics(None)
    api_calls, second_hop_ops = storm_ops
    return {
        "zero_copy": zero_copy,
        "n_tasks": STORM_TASKS,
        "makespan_s": round(makespan, 4),
        "tasks_per_s": round(STORM_TASKS / makespan, 2),
        "api_calls_per_task": round(api_calls / STORM_TASKS, 3),
        "second_hop_store_ops_per_task": round(second_hop_ops / STORM_TASKS, 3),
        "single_task_p50_s": round(statistics.median(single_latencies), 4),
        "batch_submits": int(metrics.counter_total("cloud.batch_submits")),
        "uplink_batches": int(metrics.counter_total("endpoint.uplink_batches")),
    }


def _overhead_ops(metrics: MetricsRegistry) -> tuple[int, int]:
    """(API round trips, store ops outside the inline tier) so far."""
    second_hop_ops = sum(
        int(counter.value)
        for name, labels, counter in metrics.counters()
        if name in ("faas.store_writes", "faas.store_reads")
        and labels.get("tier") != "inline"
    )
    return int(metrics.counter_total("faas.api_calls")), second_hop_ops


@pytest.mark.benchmark(group="fig3")
def test_fig3_batched_storm(benchmark, report_sink):
    """What zero-copy buys on top of the coalescing the default stack
    already does.  Both columns pay well under one API round trip per task;
    the default keeps the paper's ElastiCache tier (one write and one read
    per 10 kB argument — the cost Fig. 3's proxy rows are measured against),
    zero-copy deletes it, and that is worth a lone-task p50 at most 0.8x
    the default's.  The burst's throughput ratio is reported, not asserted:
    a round of 32 pays its two store sleeps once, so in an open burst at
    this time scale the ratio sits inside the run-to-run spread (0.9-1.7x
    over five runs); the closed-loop figure is ``perf/``'s ``storm`` vs
    ``storm_hardened``."""
    cells: dict[str, dict] = {}

    def run():
        cells["default"] = _storm_cell(False, seed=17)
        cells["zero_copy"] = _storm_cell(True, seed=17)
        return cells

    benchmark.pedantic(run, rounds=1, iterations=1)
    default, fast = cells["default"], cells["zero_copy"]
    throughput_ratio = fast["tasks_per_s"] / default["tasks_per_s"]
    p50_ratio = fast["single_task_p50_s"] / default["single_task_p50_s"]

    table = ReportTable("Fig. 3 addendum — zero-copy on top of default coalescing")
    table.add("default tasks/s", "-", f"{default['tasks_per_s']:.1f}")
    table.add("zero_copy tasks/s", "-", f"{fast['tasks_per_s']:.1f}")
    for column, cell in cells.items():
        calls = cell["api_calls_per_task"]
        table.add(
            f"{column}: API round trips / task", "<= 0.25", f"{calls:.2f}",
            holds=calls <= 0.25,
        )
    table.add(
        "default: second-hop store ops / task", "2 (redis write + read)",
        f"{default['second_hop_store_ops_per_task']:.2f}",
        holds=default["second_hop_store_ops_per_task"] == 2.0,
    )
    table.add(
        "zero_copy: second-hop store ops / task", "0",
        f"{fast['second_hop_store_ops_per_task']:.2f}",
        holds=fast["second_hop_store_ops_per_task"] == 0.0,
    )
    table.add(
        "lone-task p50, zero_copy / default", "<= 0.8x", f"{p50_ratio:.2f}x",
        holds=p50_ratio <= 0.8,
    )
    table.add(
        "storm throughput, zero_copy / default", "-", f"{throughput_ratio:.2f}x"
    )
    report_sink("fig3_batched_storm", table)

    results_dir = pathlib.Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "BENCH_fig3.json").write_text(
        json.dumps(
            {
                "figure": "fig3-batched-storm",
                "payload_bytes": STORM_PAYLOAD,
                "default": default,
                "zero_copy": fast,
                "claims": {
                    "api_calls_per_task_target": 0.25,
                    "second_hop_store_ops_per_task": [2.0, 0.0],
                    "single_task_p50_ratio_x": round(p50_ratio, 3),
                    "single_task_p50_target_x": 0.8,
                    "throughput_ratio_x": round(throughput_ratio, 2),
                },
            },
            indent=2,
        )
        + "\n"
    )
    assert table.all_hold, "zero-copy storm claims diverged; see table"
