"""Elastic endpoints benchmark — autoscaling vs static pilots, scale-to-zero,
and runtime task-ratio steering.

The paper's pilot jobs are fixed-size: a campaign requests N nodes up front
and pays for them through every lull.  ``repro.elastic`` makes the pilot a
runtime variable — an ``Autoscaler`` watches the endpoint's canonical demand
signals (local queue depth + active closures + the cloud-side tenant
backlog) and grows/drains the ``ElasticWorkerPool``, releasing *all* nodes
when the endpoint goes idle and re-provisioning from a bus doorbell on the
next submission.  This benchmark quantifies the three claims:

* **Bursty efficiency** — on a diurnal burst/lull trace, the elastic
  endpoint beats an equal-throughput static pilot by >= 1.3x mean worker
  utilization OR <= 0.8x node-hours, while staying within a 1.35x makespan
  envelope;
* **Scale-from-zero** — waking a dormant (zero-worker) endpoint is
  event-driven and bounded: time-to-first-task is recorded
  (``autoscale.time_to_first_task_s``) and stays under 15 nominal s;
* **Task-ratio steering** — the molecular-design campaign with
  ``elastic_steering`` on re-apportions workers from the simulation lane to
  the training lane at the learning threshold (the bragg.py move) with zero
  lost tasks, even under ``provision_delay`` chaos, and the chaos cell's
  ledger digest is bit-identical across reruns.

Quick mode (``REPRO_ELASTIC_QUICK=1``, the CI smoke job) shrinks the trace
and the steered campaign but keeps every assertion.
"""

from __future__ import annotations

import os

import pytest

from repro.bench.reporting import ReportTable
from repro.chaos.campaign import run_cell
from repro.chaos.plan import FaultInjector, FaultPlan, FaultSpec, set_injector
from repro.elastic import AutoscalePolicy, Autoscaler, ElasticWorkerPool
from repro.faas import SCOPE_COMPUTE, AuthServer, FaasClient, FaasCloud, FaasEndpoint
from repro.net.clock import get_clock
from repro.net.context import at_site
from repro.net.defaults import build_paper_testbed
from repro.observe import MetricsRegistry, set_metrics
from repro.resources import WorkerPool

QUICK = os.environ.get("REPRO_ELASTIC_QUICK", "") not in ("", "0")

#: The diurnal trace: bursts of equal work separated by long lulls.
BURSTS = 2 if QUICK else 3
TASKS_PER_BURST = 8 if QUICK else 14
TASK_DURATION = 8.0  # nominal s of compute per task
LULL = 30.0 if QUICK else 45.0  # nominal s of silence between bursts
STATIC_WORKERS = 8  # the fixed pilot the elastic endpoint competes with

TTFT_BOUND = 15.0  # nominal s: doorbell wake -> first closure starts
MAKESPAN_TOLERANCE = 1.35

ELASTIC_POLICY = AutoscalePolicy(
    min_workers=0,
    max_workers=STATIC_WORKERS,
    target_tasks_per_worker=1.5,
    scale_up_step=3,
    scale_down_step=2,
    interval=1.0,
    cooldown=1.0,
    idle_grace=4.0,
    zero_grace=8.0,
)


def _sim_task(duration):
    get_clock().sleep(duration)
    return duration


def _run_trace(elastic: bool) -> dict:
    """Drive the burst/lull trace through one endpoint; return the ledger."""
    testbed = build_paper_testbed(seed=7)
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("bench", "anl"), {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, testbed.constants)
    if elastic:
        pool: WorkerPool = ElasticWorkerPool(
            testbed.theta_compute, 0, name="fig-elastic"
        )
    else:
        pool = WorkerPool(testbed.theta_compute, STATIC_WORKERS, name="fig-static")
    endpoint = FaasEndpoint(
        "trace", cloud, token, testbed.theta_login, pool
    ).start()
    client = FaasClient(cloud, token, site=testbed.theta_login)
    scaler = Autoscaler(endpoint, policy=ELASTIC_POLICY).start() if elastic else None

    clock = get_clock()
    start = clock.now()
    try:
        for burst in range(BURSTS):
            with at_site(testbed.theta_login):
                futures = [
                    client.run(_sim_task, endpoint.endpoint_id, TASK_DURATION)
                    for _ in range(TASKS_PER_BURST)
                ]
            for future in futures:
                assert future.result(timeout=240) == TASK_DURATION
            if burst < BURSTS - 1:
                clock.sleep(LULL)
        makespan = clock.now() - start
        if elastic:
            node_seconds = pool.node_seconds_total()
            wakes = list(pool.wake_latencies)
            decisions = [d.action for d in scaler.decisions]
        else:
            node_seconds = STATIC_WORKERS * makespan
            wakes, decisions = [], []
        busy = pool.busy_seconds
    finally:
        if scaler is not None:
            scaler.stop()
        client.close()
        endpoint.stop()
    return {
        "makespan": makespan,
        "node_seconds": node_seconds,
        "busy_seconds": busy,
        "utilization": busy / node_seconds if node_seconds > 0 else 0.0,
        "wake_latencies": wakes,
        "decisions": decisions,
    }


def _steered_campaign() -> dict:
    """The moldesign campaign with elastic steering, under provision chaos."""
    from repro.apps.moldesign import MolDesignConfig, run_moldesign_campaign

    config = MolDesignConfig(
        n_molecules=300 if QUICK else 400,
        max_simulations=36 if QUICK else 60,
        n_initial=12 if QUICK else 16,
        retrain_after=10 if QUICK else 12,
        n_ensemble=2,
        inference_chunks=2,
        elastic_steering=True,
    )
    # Half of all first provision attempts stall 1 nominal s, then fail; the
    # pool's retry policy must absorb every one.  The fixed run_id pins the
    # chaos keys (``<run_id>-cpu|w<i>``) so fires are deterministic.
    injector = FaultInjector(
        FaultPlan.build(
            23,
            (FaultSpec("scheduler.provision", "provision_delay", rate=0.5,
                       delay=1.0, match={"attempt": 0}),),
        )
    )
    set_injector(injector)
    try:
        outcome = run_moldesign_campaign(
            "funcx+globus",
            config,
            seed=23,
            run_id="fig-elastic-steer",
            n_cpu_workers=6,
            n_gpu_workers=6,
            join_timeout=400,
        )
    finally:
        set_injector(None)
    return {"outcome": outcome, "fires": injector.fire_count()}


@pytest.mark.benchmark(group="elastic")
def test_fig_elastic_endpoints(benchmark, report_sink):
    state: dict = {}

    def run():
        registry = MetricsRegistry()
        set_metrics(registry)
        try:
            state["static"] = _run_trace(elastic=False)
            state["elastic"] = _run_trace(elastic=True)
            state["ttft_recorded"] = sum(
                h.count
                for name, _, h in registry.histograms()
                if name == "autoscale.time_to_first_task_s"
            )
            state["wake_count"] = registry.counter_total("autoscale.wakes")
        finally:
            set_metrics(None)
        state["steered"] = _steered_campaign()
        state["cells"] = [
            run_cell("provision_delay", "faas-file", seed=23, n_tasks=6)
            for _ in range(2)
        ]
        return state

    benchmark.pedantic(run, rounds=1, iterations=1)

    table = ReportTable(
        "Elastic endpoints — autoscaling, scale-to-zero, task-ratio steering"
    )

    static, elastic = state["static"], state["elastic"]
    util_ratio = elastic["utilization"] / max(static["utilization"], 1e-9)
    hour_ratio = elastic["node_seconds"] / max(static["node_seconds"], 1e-9)
    makespan_ratio = elastic["makespan"] / max(static["makespan"], 1e-9)
    table.add(
        "mean worker utilization (static vs elastic)",
        ">= 1.3x OR <= 0.8x node-hours",
        f"{100 * static['utilization']:.0f}% vs "
        f"{100 * elastic['utilization']:.0f}% ({util_ratio:.2f}x util, "
        f"{hour_ratio:.2f}x node-hours)",
        holds=util_ratio >= 1.3 or hour_ratio <= 0.8,
    )
    table.add(
        "node-seconds consumed on the bursty trace",
        "elastic well below static",
        f"{static['node_seconds']:.0f}s vs {elastic['node_seconds']:.0f}s",
    )
    table.add(
        "makespan envelope (elastic ramp-up cost)",
        f"<= {MAKESPAN_TOLERANCE:.2f}x static",
        f"{static['makespan']:.0f}s vs {elastic['makespan']:.0f}s "
        f"({makespan_ratio:.2f}x)",
        holds=makespan_ratio <= MAKESPAN_TOLERANCE,
    )

    wakes = elastic["wake_latencies"]
    table.add(
        "scale-from-zero: time-to-first-task",
        f"recorded, each < {TTFT_BOUND:.0f}s nominal",
        f"{len(wakes)} wake(s): "
        + ", ".join(f"{w:.2f}s" for w in wakes[:4]),
        holds=bool(wakes)
        and all(w < TTFT_BOUND for w in wakes)
        and state["ttft_recorded"] >= len(wakes)
        and state["wake_count"] >= 1,
    )
    table.add(
        "scale-to-zero actually happened during lulls",
        "to_zero decision(s)",
        ", ".join(sorted(set(elastic["decisions"]))) or "-",
        holds="to_zero" in elastic["decisions"],
    )

    steered = state["steered"]
    outcome = steered["outcome"]
    events = outcome.steering_events
    retrain_moves = [e for e in events if e.reason.startswith("retrain")]
    gpu_heavy = bool(retrain_moves) and all(
        e.targets["gpu"] > e.targets["cpu"] for e in retrain_moves
    )
    table.add(
        "steered campaign: sim->train reallocation at the learning threshold",
        "gpu-heavy targets on retrain",
        f"{len(events)} steer(s), retrain targets "
        + (str(retrain_moves[0].targets) if retrain_moves else "none"),
        holds=gpu_heavy,
    )
    table.add(
        "steered campaign under provision_delay chaos: lost tasks",
        "0 failures, >= 1 fire",
        f"{outcome.n_failures} failures over {outcome.n_simulated} sims, "
        f"{steered['fires']} provision fault(s)",
        holds=outcome.n_failures == 0
        and outcome.n_simulated > 0
        and steered["fires"] >= 1,
    )

    cell_a, cell_b = state["cells"]
    table.add(
        "provision_delay chaos cell: deterministic ledger digest",
        "bit-identical across reruns",
        f"{cell_a.digest[:16]} vs {cell_b.digest[:16]}",
        holds=cell_a.passed and cell_b.passed and cell_a.digest == cell_b.digest,
    )

    table.note(
        f"trace: {BURSTS} bursts x {TASKS_PER_BURST} tasks x "
        f"{TASK_DURATION:.0f}s, {LULL:.0f}s lulls; static pilot = "
        f"{STATIC_WORKERS} workers"
        + (" (quick mode)" if QUICK else "")
    )
    report_sink("fig_elastic", table)
    assert table.all_hold, "elastic endpoint claims diverged; see table"
