"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``testbed``
    Print the simulated §V-A testbed: sites, policies, links, volumes.
``moldesign``
    Run a molecular design campaign (§III-A) and print its outcome.
``finetune``
    Run a surrogate fine-tuning campaign (§III-B) and print its outcome.
``compare``
    Run the same synthetic task batch through all three workflow
    configurations and print the latency decomposition side by side.
``trace``
    Reconstruct a recorded campaign from a span JSONL file (written with
    ``--trace-out``): per-component medians, orphan check, and the critical
    path of a chosen task.
``chaos``
    Sweep the fault-injection matrix (worker exceptions, endpoint crashes
    mid-lease, payload-cap rejections, store corruption, transfer faults,
    shard outages) over the workflow configurations and audit the
    no-lost-tasks, no-orphan-spans, and retry-reconciliation invariants
    per cell.
``resume``
    Kill a molecular design campaign mid-flight, resume it from its
    write-ahead decision journal, and audit that nothing was recomputed;
    ``--verify-determinism`` also runs an uninterrupted control and
    requires bit-identical ledger digests.
``tenants``
    Run a short multi-tenant storm on a sharded cloud and print the
    per-tenant usage/quota table (weights, rate limits, throttles).
``pools``
    Run a short bursty workload against autoscaled elastic endpoints and
    print the per-pool worker/decision table (grow, shrink, scale-to-zero).
``deadletter``
    Run a short storm with deterministically poisoned payloads against a
    quarantine-enabled cloud, then ``list``, ``retry``, or ``drop`` the
    per-tenant dead-letter queue the quorum produced.
"""

from __future__ import annotations

import argparse
import contextlib
import statistics
import sys

from repro.apps import WORKFLOW_CONFIGS
from repro.net.clock import reset_clock
from repro.net.defaults import build_paper_testbed

__all__ = ["main"]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workflow", choices=WORKFLOW_CONFIGS, default="funcx+globus",
        help="which §V-B workflow stack to build",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--time-scale", type=float, default=0.004,
        help="wall seconds per nominal second (smaller = faster run)",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="record every span and metric of the run; spans are written "
        "as JSONL to PATH (inspect with `python -m repro.cli trace PATH`)",
    )


@contextlib.contextmanager
def _observability(trace_out: str | None):
    """Install a tracer + metrics registry for one campaign run.

    On exit the spans go to ``trace_out`` as JSONL and a console summary of
    both spans and metrics is printed.  A no-op when ``trace_out`` is unset
    (the zero-overhead default)."""
    if not trace_out:
        yield
        return
    from repro import observe

    tracer = observe.Tracer()
    registry = observe.MetricsRegistry()
    observe.set_tracer(tracer)
    observe.set_metrics(registry)
    try:
        yield
    finally:
        observe.set_tracer(None)
        observe.set_metrics(None)
        spans = tracer.spans()
        count = observe.write_spans_jsonl(spans, trace_out)
        print(f"\nwrote {count} spans to {trace_out}")
        if spans:
            print(observe.render_span_summary(spans))
        print(registry.render())


def cmd_testbed(args: argparse.Namespace) -> int:
    testbed = build_paper_testbed(seed=args.seed)
    print("sites:")
    for site in testbed.network.sites:
        fs = site.fs_group or "-"
        trust = site.trust_group or "-"
        inbound = "inbound-ok" if site.allows_inbound else "outbound-only"
        print(f"  {site.name:<16} fs={fs:<14} trust={trust:<10} {inbound}")
    print("\nlink latencies (typical one-way) and bandwidths:")
    names = [s.name for s in testbed.network.sites]
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            try:
                link = testbed.network.link_between(a, b)
            except Exception:
                continue
            print(
                f"  {a:<16} <-> {b:<16} "
                f"{link.latency.typical * 1000:7.2f} ms   "
                f"{link.bandwidth / 1e9:5.2f} GB/s"
            )
    print("\nconnection policy (can X dial Y?):")
    for a in ("theta-compute", "venti", "uchicago-login"):
        for b in ("theta-login", "faas-cloud"):
            ok = testbed.network.can_connect(a, b)
            print(f"  {a:<16} -> {b:<12} {'yes' if ok else 'NO (needs tunnel)'}")
    return 0


def cmd_moldesign(args: argparse.Namespace) -> int:
    from repro.apps.moldesign import MolDesignConfig, run_moldesign_campaign

    reset_clock(args.time_scale)
    config = MolDesignConfig(
        n_molecules=args.molecules,
        max_simulations=args.simulations,
        n_initial=min(48, max(args.simulations // 3, 4)),
    )
    with _observability(args.trace_out):
        outcome = run_moldesign_campaign(
            args.workflow, config, seed=args.seed, join_timeout=args.timeout
        )
    print(
        f"{args.workflow}: found {outcome.n_found}/{outcome.n_simulated} "
        f"above IP {outcome.threshold:.2f} "
        f"({outcome.n_failures} task failures)"
    )
    if outcome.ml_makespans:
        print(
            f"ML makespan median: "
            f"{statistics.median(outcome.ml_makespans):.0f}s "
            f"({len(outcome.ml_makespans)} updates)"
        )
    if outcome.cpu_idle_gaps:
        print(
            f"CPU idle median: "
            f"{1000 * statistics.median(outcome.cpu_idle_gaps):.0f} ms, "
            f"utilization {100 * outcome.cpu_utilization:.1f}%"
        )
    return 0


def cmd_finetune(args: argparse.Namespace) -> int:
    from repro.apps.finetuning import FineTuneConfig, run_finetuning_campaign

    reset_clock(args.time_scale)
    config = FineTuneConfig(
        n_pretrain=args.pretrain, target_new_structures=args.structures
    )
    with _observability(args.trace_out):
        outcome = run_finetuning_campaign(
            args.workflow, config, seed=args.seed, join_timeout=args.timeout
        )
    print(
        f"{args.workflow}: +{outcome.n_new_structures} DFT structures; "
        f"force RMSD {outcome.rmsd_before:.3f} -> {outcome.rmsd_after:.3f}; "
        f"energy RMSE {outcome.energy_rmse_before:.3f} -> "
        f"{outcome.energy_rmse_after:.3f}"
    )
    return 0


def _crunch(data):
    """10 nominal seconds of compute; result as large as the input.

    Module-level so that every fabric (including FuncX's registry, which
    pickles function bodies) can ship it.
    """
    from repro.net.clock import get_clock
    from repro.serialize import Blob

    get_clock().sleep(10.0)
    return Blob(data.nbytes, tag="out")


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.apps import AppMethod, TopicPolicy, build_workflow
    from repro.net.context import at_site
    from repro.serialize import Blob

    crunch = _crunch
    payload = int(args.payload_mb * 1e6)
    print(
        f"{args.tasks} tasks x {args.payload_mb:.1f} MB on the GPU resource:\n"
    )
    print(f"{'configuration':<14} {'lifetime':>9} {'overhead':>9}")
    stack = contextlib.ExitStack()
    stack.enter_context(_observability(args.trace_out))
    for config in WORKFLOW_CONFIGS:
        reset_clock(args.time_scale)
        testbed = build_paper_testbed(seed=args.seed)
        handle = build_workflow(
            config,
            testbed,
            [AppMethod(crunch, resource="gpu", topic="work")],
            {"work": TopicPolicy(locality="cross", threshold=10_000)},
            n_cpu_workers=1,
            n_gpu_workers=4,
        )
        lifetimes, overheads = [], []
        with handle, at_site(testbed.theta_login):
            for index in range(args.tasks):
                handle.queues.send_request(
                    "_crunch", args=(Blob(payload, tag=str(index)),), topic="work"
                )
            for _ in range(args.tasks):
                result = handle.queues.get_result("work", timeout=600)
                if result is None or not result.success:
                    print(f"{config:<14} task failed: {result and result.error}")
                    break
                result.access_value()
                lifetimes.append(result.task_lifetime)
                overheads.append(result.overhead)
        if lifetimes:
            print(
                f"{config:<14} {statistics.median(lifetimes):>8.2f}s "
                f"{statistics.median(overheads):>8.2f}s"
            )
    stack.close()
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos.campaign import (
        CONFIGS,
        FAULT_MODES,
        render_results,
        run_campaign,
    )

    modes = tuple(args.modes) if args.modes else FAULT_MODES
    configs = tuple(args.configs) if args.configs else CONFIGS
    unknown_modes = [m for m in modes if m not in FAULT_MODES]
    if unknown_modes:
        print(f"unknown fault mode(s) {unknown_modes}; known: {sorted(FAULT_MODES)}")
        return 1
    unknown_configs = [c for c in configs if c not in CONFIGS]
    if unknown_configs:
        print(f"unknown config(s) {unknown_configs}; known: {sorted(CONFIGS)}")
        return 1
    reset_clock(args.time_scale)
    print(
        f"chaos campaign: {len(modes)} fault modes x {len(configs)} configs, "
        f"{args.tasks} tasks/cell, seed {args.seed}"
        + (", determinism verified (each cell runs twice)"
           if args.verify_determinism else "")
    )
    results = run_campaign(
        modes,
        configs,
        seed=args.seed,
        n_tasks=args.tasks,
        verify_determinism=args.verify_determinism,
    )
    print(render_results(results))
    return 0 if all(result.passed for result in results) else 1


def cmd_resume(args: argparse.Namespace) -> int:
    from repro.apps.moldesign import MolDesignConfig
    from repro.durable import run_resumable_moldesign

    reset_clock(args.time_scale)
    config = MolDesignConfig(
        n_molecules=args.molecules,
        n_initial=min(8, max(args.simulations // 3, 2)),
        max_simulations=args.simulations,
        retrain_after=10_000,  # determinism regime: see repro.durable.resume
        sim_duration=4.0,
    )
    print(
        f"{args.workflow}: killing the campaign after {args.crash_after} of "
        f"{args.simulations} results, then resuming from the journal"
        + (" (uninterrupted control run follows)" if args.verify_determinism else "")
    )
    report = run_resumable_moldesign(
        args.workflow,
        config,
        seed=args.seed,
        crash_after_results=args.crash_after,
        verify_determinism=args.verify_determinism,
        join_timeout=args.timeout,
    )
    print(
        f"crashed run consumed {report.crashed_simulations} results; "
        f"resumed run simulated {report.resumed_simulations} more; "
        f"final ledger: {report.n_simulated} molecules, "
        f"{report.n_found} above IP {report.threshold:.2f}"
    )
    print(f"resumed ledger digest:      {report.digest}")
    if args.verify_determinism:
        print(f"uninterrupted run's digest: {report.uninterrupted_digest}")
        print(
            "digests MATCH — resume is bit-deterministic"
            if report.deterministic
            else "digests DIFFER — resume diverged from the uninterrupted run"
        )
    recomputed_nothing = report.resumed_simulations < args.simulations
    if not recomputed_nothing:
        print("FAIL: the resumed run recomputed the full budget")
    return 0 if (report.deterministic and recomputed_nothing) else 1


def _noop_task(index):
    """Module-level so the FuncX-like registry can pickle it."""
    return index


def cmd_tenants(args: argparse.Namespace) -> int:
    from repro.exceptions import ThrottledError
    from repro.faas import SCOPE_COMPUTE, AuthServer, FaasClient, FaasEndpoint
    from repro.net.context import at_site
    from repro.resources import WorkerPool
    from repro.tenancy import (
        CloudRouter,
        TenantQuota,
        render_tenant_table,
        tenant_scope,
    )

    reset_clock(args.time_scale)
    testbed = build_paper_testbed(seed=args.seed)
    auth = AuthServer()
    identity = auth.register_identity("operator", "anl")
    router = CloudRouter(
        testbed.faas_cloud,
        testbed.network,
        auth,
        testbed.constants,
        n_shards=args.shards,
    )
    # Three representative tenants: a heavyweight campaign, a rate-limited
    # one, and one with a small in-flight quota that will throttle.
    router.create_tenant("moldesign", weight=3)
    router.create_tenant("finetune", rate=20.0)
    router.create_tenant("guest", quota=TenantQuota(max_in_flight=4))
    endpoint_token = auth.issue_token(identity, {SCOPE_COMPUTE})
    pool = WorkerPool(testbed.theta_compute, 4, name="tenants-pool")
    endpoint = FaasEndpoint(
        "theta", router, endpoint_token, testbed.theta_login, pool
    ).start()
    clients = {
        name: FaasClient(
            router,
            auth.issue_token(identity, {SCOPE_COMPUTE, tenant_scope(name)}),
            site=testbed.theta_login,
            tenant=name,
        )
        for name in ("moldesign", "finetune", "guest")
    }

    futures = []
    try:
        with at_site(testbed.theta_login):
            for index in range(args.tasks):
                for client in clients.values():
                    try:
                        futures.append(
                            client.run(_noop_task, endpoint.endpoint_id, index)
                        )
                    except ThrottledError:
                        pass  # budget exhausted even after backoff: skip
        done = sum(1 for f in futures if f.result(timeout=120) is not None)
    finally:
        for client in clients.values():
            client.close()
        endpoint.stop()
    print(
        f"{done}/{len(futures)} tasks completed on {args.shards} shard(s), "
        f"{len(clients)} tenants\n"
    )
    print(render_tenant_table(router.registry))
    return 0


def cmd_pools(args: argparse.Namespace) -> int:
    from repro.elastic import AutoscalePolicy, Autoscaler, ElasticWorkerPool
    from repro.faas import SCOPE_COMPUTE, AuthServer, FaasClient, FaasCloud, FaasEndpoint
    from repro.net.context import at_site

    reset_clock(args.time_scale)
    testbed = build_paper_testbed(seed=args.seed)
    auth = AuthServer()
    identity = auth.register_identity("operator", "anl")
    token = auth.issue_token(identity, {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, testbed.constants)
    policy = AutoscalePolicy(
        min_workers=0,
        max_workers=args.max_workers,
        target_tasks_per_worker=1.0,
        interval=1.0,
        cooldown=1.0,
        idle_grace=4.0,
        zero_grace=8.0,
    )
    pools = {
        "cpu": ElasticWorkerPool(testbed.theta_compute, 0, name="pools-cpu"),
        "gpu": ElasticWorkerPool(testbed.venti, 0, name="pools-gpu"),
    }
    sites = {"cpu": testbed.theta_login, "gpu": testbed.venti}
    endpoints = {
        name: FaasEndpoint(name, cloud, token, sites[name], pool).start()
        for name, pool in pools.items()
    }
    autoscalers = [
        Autoscaler(endpoint, policy=policy).start()
        for endpoint in endpoints.values()
    ]
    client = FaasClient(cloud, token, site=testbed.theta_login)
    from repro.net.clock import get_clock

    clock = get_clock()
    try:
        with at_site(testbed.theta_login):
            futures = [
                client.run(_noop_task, endpoints[name].endpoint_id, index)
                for index in range(args.tasks)
                for name in endpoints
            ]
        done = sum(1 for f in futures if f.result(timeout=120) is not None)
        clock.sleep(2.0)  # let the autoscalers observe the drained queues
    finally:
        client.close()
        for scaler in autoscalers:
            scaler.stop()
        for endpoint in endpoints.values():
            endpoint.stop()
    from repro.elastic import render_pool_table

    print(f"{done}/{len(futures)} tasks completed on scale-from-zero pools\n")
    print(render_pool_table(autoscalers))
    return 0


def _render_deadletters(entries) -> str:
    """Fixed-width dead-letter table, one row per quarantined payload."""
    if not entries:
        return "dead-letter queue is empty"
    header = (
        f"{'tenant':<10} {'fingerprint':<26} {'task':<18} "
        f"{'struck endpoints':<28} error"
    )
    lines = [header, "-" * len(header)]
    for entry in entries:
        lines.append(
            f"{entry.tenant:<10} {entry.fingerprint:<26} {entry.task_id:<18} "
            f"{','.join(entry.endpoints):<28} {entry.error}"
        )
    return "\n".join(lines)


def cmd_deadletter(args: argparse.Namespace) -> int:
    from repro.chaos.plan import FaultInjector, FaultPlan, FaultSpec, set_injector
    from repro.chaos.policy import RetryPolicy
    from repro.exceptions import TaskQuarantinedError
    from repro.faas import SCOPE_COMPUTE, AuthServer, FaasClient, FaasCloud, FaasEndpoint
    from repro.net.clock import get_clock
    from repro.net.context import at_site
    from repro.resilience import PoisonPolicy, PoisonTracker
    from repro.resources import WorkerPool

    reset_clock(args.time_scale)
    testbed = build_paper_testbed(seed=args.seed)
    auth = AuthServer()
    identity = auth.register_identity("operator", "anl")
    token = auth.issue_token(identity, {SCOPE_COMPUTE})
    quorum = 2
    cloud = FaasCloud(
        testbed.faas_cloud,
        testbed.network,
        auth,
        testbed.constants,
        poison=PoisonTracker(PoisonPolicy(quorum=quorum)),
    )
    # A deterministic subset of payloads fails on every endpoint and every
    # attempt — the failure shape retries cannot fix and quarantine exists
    # to contain.
    injector = FaultInjector(
        FaultPlan.build(
            args.seed,
            (
                FaultSpec(
                    "worker.poison",
                    "poison_task",
                    rate=args.poison_rate,
                    occurrences=tuple(range(32)),
                ),
            ),
        )
    )
    set_injector(injector)
    policy = RetryPolicy(max_attempts=5, base_delay=0.1, max_delay=1.0)
    # Two endpoints in one failover group: the quarantine quorum needs the
    # poison steering to try the payload on distinct endpoints.
    endpoints = [
        FaasEndpoint(
            f"dlq-ep-{index}",
            cloud,
            token,
            testbed.theta_login,
            WorkerPool(testbed.theta_compute, 2, name=f"dlq-pool-{index}"),
            failover_group="dlq-pair",
        ).start()
        for index in range(2)
    ]
    client = FaasClient(cloud, token, site=testbed.theta_login, retry_policy=policy)
    completed = quarantined = 0
    try:
        with at_site(testbed.theta_login):
            futures = [
                client.run(_noop_task, endpoints[0].endpoint_id, index)
                for index in range(args.tasks)
            ]
        for future in futures:
            try:
                future.result(timeout=120)
                completed += 1
            except TaskQuarantinedError:
                quarantined += 1
        # The storm is over and the "bad deploy" is rolled back: whatever
        # happens to the dead-letter queue next is the operator's call.
        set_injector(None)
        entries = cloud.deadletters()
        print(
            f"{completed}/{len(futures)} tasks completed; {quarantined} "
            f"poisoned payload(s) quarantined after failing on {quorum} "
            f"distinct endpoints\n"
        )
        print(_render_deadletters(entries))
        if args.action == "retry" and entries:
            clock = get_clock()
            retried = [
                cloud.deadletter_retry(
                    token, entry.tenant, entry.fingerprint, endpoints[1].endpoint_id
                )
                for entry in entries
            ]
            deadline = clock.now() + 60.0
            while clock.now() < deadline and not all(
                cloud.task(task_id).status.terminal for task_id in retried
            ):
                clock.sleep(0.25)
            statuses = [cloud.task(task_id).status.value for task_id in retried]
            print(
                f"\nretried {len(retried)} quarantined payload(s) on "
                f"{endpoints[1].endpoint_id}: statuses {statuses}; "
                f"{len(cloud.deadletters())} entr(ies) remain"
            )
        elif args.action == "drop" and entries:
            for entry in entries:
                cloud.deadletter_drop(token, entry.tenant, entry.fingerprint)
            print(
                f"\ndropped {len(entries)} entr(ies); "
                f"{len(cloud.deadletters())} remain"
            )
    finally:
        set_injector(None)
        client.close()
        for endpoint in endpoints:
            endpoint.stop()
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro import observe

    try:
        spans = observe.load_spans_jsonl(args.trace_file)
    except FileNotFoundError:
        print(f"trace file not found: {args.trace_file}")
        return 1
    except (ValueError, KeyError) as exc:
        print(f"could not parse {args.trace_file}: {exc}")
        return 1
    if not spans:
        print(f"no spans in {args.trace_file}")
        return 1
    print(observe.render_span_summary(spans))
    orphans = observe.find_orphans(spans)
    if orphans:
        print(f"\nWARNING: {len(orphans)} orphan spans (parent never recorded):")
        for span in orphans[:10]:
            print(f"  {span.name} trace={span.trace_id} parent={span.parent_id}")
    else:
        print("\nno orphan spans: every parent id resolves within its trace")
    traces = observe.group_traces(spans)
    if args.trace_id is not None:
        chosen = [args.trace_id]
    else:
        # Default: the longest task, where the critical path is most telling.
        def root_duration(bucket):
            root = observe.trace_root(bucket)
            return root.duration or 0.0 if root is not None else 0.0

        ranked = sorted(traces, key=lambda t: root_duration(traces[t]), reverse=True)
        chosen = ranked[: args.limit]
    for trace_id in chosen:
        print()
        print(observe.render_critical_path(spans, trace_id))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("testbed", help="describe the simulated testbed")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_testbed)

    p = sub.add_parser("moldesign", help="run a molecular design campaign")
    _add_common(p)
    p.add_argument("--simulations", type=int, default=120)
    p.add_argument("--molecules", type=int, default=1200)
    p.add_argument("--timeout", type=float, default=600.0)
    p.set_defaults(func=cmd_moldesign)

    p = sub.add_parser("finetune", help="run a surrogate fine-tuning campaign")
    _add_common(p)
    p.add_argument("--structures", type=int, default=36)
    p.add_argument("--pretrain", type=int, default=200)
    p.add_argument("--timeout", type=float, default=900.0)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("compare", help="compare the three workflow stacks")
    _add_common(p)
    p.add_argument("--payload-mb", type=float, default=1.0)
    p.add_argument("--tasks", type=int, default=8)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "chaos", help="sweep the fault matrix and audit recovery invariants"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--time-scale", type=float, default=0.002,
        help="wall seconds per nominal second (smaller = faster run)",
    )
    p.add_argument(
        "--matrix", "--modes", dest="modes", nargs="+", default=None,
        metavar="MODE",
        help="fault modes to inject (default: all; see repro.chaos.campaign."
        "FAULT_MODES)",
    )
    p.add_argument(
        "--configs", nargs="+", default=None, metavar="CONFIG",
        help="workflow configs to sweep (default: faas-file faas-redis "
        "faas-globus)",
    )
    p.add_argument(
        "--tasks", type=int, default=6, help="tasks per campaign cell"
    )
    p.add_argument(
        "--verify-determinism", action="store_true",
        help="run every cell twice and require identical ledger digests",
    )
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "resume", help="kill a campaign mid-flight and resume it from its journal"
    )
    _add_common(p)
    p.add_argument("--simulations", type=int, default=24)
    p.add_argument("--molecules", type=int, default=200)
    p.add_argument(
        "--crash-after", type=int, default=8,
        help="kill the campaign after this many simulation results",
    )
    p.add_argument("--timeout", type=float, default=600.0)
    p.add_argument(
        "--verify-determinism", action="store_true",
        help="also run an uninterrupted control and require bit-identical "
        "ledger digests",
    )
    p.set_defaults(func=cmd_resume)

    p = sub.add_parser(
        "tenants", help="print a per-tenant usage/quota table from a short storm"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--time-scale", type=float, default=0.002,
        help="wall seconds per nominal second (smaller = faster run)",
    )
    p.add_argument("--shards", type=int, default=2, help="control-plane shards")
    p.add_argument("--tasks", type=int, default=8, help="tasks per tenant")
    p.set_defaults(func=cmd_tenants)

    p = sub.add_parser(
        "pools", help="print a per-pool autoscaling table from a short burst"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--time-scale", type=float, default=0.002,
        help="wall seconds per nominal second (smaller = faster run)",
    )
    p.add_argument("--tasks", type=int, default=8, help="tasks per endpoint")
    p.add_argument("--max-workers", type=int, default=4, help="autoscaler ceiling")
    p.set_defaults(func=cmd_pools)

    p = sub.add_parser(
        "deadletter",
        help="quarantine poisoned payloads, then list/retry/drop the "
        "dead-letter queue",
    )
    p.add_argument(
        "action", choices=("list", "retry", "drop"),
        help="what to do with the quarantined entries after the storm",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--time-scale", type=float, default=0.002,
        help="wall seconds per nominal second (smaller = faster run)",
    )
    p.add_argument("--tasks", type=int, default=8, help="tasks in the storm")
    p.add_argument(
        "--poison-rate", type=float, default=0.5,
        help="fraction of payload keys deterministically poisoned",
    )
    p.set_defaults(func=cmd_deadletter)

    p = sub.add_parser(
        "trace", help="reconstruct a recorded campaign from a span JSONL file"
    )
    p.add_argument("trace_file", help="JSONL written by a --trace-out run")
    p.add_argument(
        "--trace-id", default=None,
        help="print this task's critical path (default: the longest tasks)",
    )
    p.add_argument(
        "--limit", type=int, default=1,
        help="how many longest tasks to print critical paths for",
    )
    p.set_defaults(func=cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
