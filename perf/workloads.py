"""The four workloads and the passes that measure them.

Every run length is a constant here, the same on every commit; ``size``
scales them all at once (1.0 is the standard run the committed baselines
use, anything else is a smoke run that no comparison accepts).

All workloads are closed loops with one generator thread: the client keeps
``window`` tasks in flight and sends the next only when one completes, the
way a Thinker waits for results before steering.

Two kinds of time are kept apart.  *Modelled* figures are nominal seconds on
the system's scaled clock, run at a time scale large enough that charged
sleeps dominate real Python time.  *Implementation* cost is real CPU: for the
storms it is measured in a separate pass on zero-latency constants, pinned to
one CPU, in short segments each paired with a calibration loop; for the two
Colmena workloads it is the CPU the modelled pass itself burned.  Both are
reported in calibration units, which move with the host the way the code does.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from dataclasses import dataclass

import adapters
import stats
from tracing import UNATTRIBUTED, BoundaryRecorder, LayerProfiler, self_times

__all__ = ["SPECS", "Spec", "implementation_pass", "measure", "setup_only", "trace"]

#: Wall seconds a closed loop waits for the next completion before it calls
#: everything outstanding lost.  No healthy task takes a tenth of this.
STALL_TIMEOUT_S = 30.0
#: Share of the standard counts the traced set runs (it runs every phase
#: twice and does not report tails).
TRACE_FRACTION = 0.5
#: The implementation pass runs threads until they block instead of
#: time-slicing them: at zero latency a result can otherwise come back before
#: the seed client has registered its future (README, "first findings"),
#: which strands the task.
IMPL_SWITCH_INTERVAL_S = 1.0
#: The profiler multiplies the cost of every call; a sixth of the segments
#: gives call counts that repeat to a fraction of a percent.
PROFILE_SEGMENT_SHARE = 6


@dataclass(frozen=True)
class Spec:
    name: str
    kind: str  # "storm" | "fanout" | "campaign"
    time_scale: float
    window: int
    warmup: int
    windowed: int  # tasks in the windowed phase (campaign: simulations)
    lone: int = 0  # tasks sent one at a time afterwards
    #: The implementation pass: ``impl_segments`` segments of
    #: ``impl_segment_tasks`` tasks at ``impl_window``.  Its time scale keeps
    #: the sub-millisecond charges baked into the code under the clock's
    #: 50 us floor (skipped) while condition-wait timeouts stay real; the
    #: fan-out's is smaller because serializing a 60 MB blob is charged at a
    #: bandwidth no constant removes.
    impl_segments: int = 36
    impl_segment_tasks: int = 500
    impl_window: int = 64
    impl_time_scale: float = 0.2
    hardened: bool = False


SPECS = {
    spec.name: spec
    for spec in (
        Spec("storm", "storm", 0.05, window=32, warmup=32, windowed=600, lone=200),
        Spec("storm_hardened", "storm", 0.05, window=64, warmup=32, windowed=4000,
             lone=300, impl_segment_tasks=250, hardened=True),
        Spec("campaign", "campaign", 0.01, window=8, warmup=8, windowed=200,
             impl_segments=16, impl_segment_tasks=200, impl_window=8),
        Spec("data_fanout", "fanout", 0.02, window=8, warmup=8, windowed=600,
             impl_segments=24, impl_segment_tasks=50, impl_window=8,
             impl_time_scale=0.05),
    )
}  # fmt: skip


def _scaled(count: int, size: float, minimum: int = 1) -> int:
    return max(minimum, round(count * size))


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _calibration(samples: list[float]) -> dict:
    return {**stats.summary(samples), "unit": "us"}


# -- the closed loop --------------------------------------------------------------
def closed_loop(stack, first: int, count: int, window: int) -> dict:
    """Run tasks ``first .. first+count-1`` keeping ``window`` in flight.

    A task that errors or returns the wrong value is failed; if nothing
    completes for :data:`STALL_TIMEOUT_S` the loop stops and everything not
    yet back is failed too.  Only successful tasks contribute a latency, so
    a failed one misses every latency bound by construction.
    """
    sent = done = 0
    sent_at: dict[int, float] = {}
    overheads: list[float] = []
    started = adapters.now()
    while done < count:
        while sent < count and sent - done < window:
            index = first + sent
            sent_at[index] = adapters.now()
            stack.send(index)
            sent += 1
        got = stack.receive(STALL_TIMEOUT_S)
        if got is None:
            break
        index, ok, overhead = got
        round_trip = adapters.now() - sent_at.pop(index)
        done += 1
        if ok:
            overheads.append(round_trip if overhead is None else overhead)
    return {
        "attempted": count,
        "failed": count - len(overheads),
        "elapsed_s": adapters.now() - started,
        "overheads": overheads,
    }


# -- set-up and the modelled phases -------------------------------------------------
def _build(spec: Spec, seed: int, *, zero_latency: bool = False):
    if spec.kind == "storm":
        return adapters.FaasStack(
            seed, hardened=spec.hardened, zero_latency=zero_latency
        )
    return adapters.ColmenaStack(seed, zero_latency=zero_latency)


def _campaign_tally(run: dict) -> dict:
    """A campaign's operations: every task it ran, failed if unsuccessful,
    plus any simulation of the budget it never completed."""
    shortfall = abs(run["target"] - run["n_simulated"])
    return {"attempted": run["attempted"], "failed": run["unsuccessful"] + shortfall}


def _set_up(spec: Spec, seed: int):
    """Everything a user waits for before the first measured task: testbed,
    stack, registration, warm-up tasks.  Returns the live stack (``None`` for
    the campaign, whose warm-up is an eight-task campaign that builds and
    tears down its own stack) and the warm-up's tally."""
    adapters.set_time_scale(spec.time_scale)
    if spec.kind == "campaign":
        return None, _campaign_tally(
            adapters.run_campaign(seed, spec.warmup, warmup=True)
        )
    stack = _build(spec, seed)
    with stack.home():
        warm = closed_loop(stack, 0, spec.warmup, spec.window)
    return stack, {"attempted": warm["attempted"], "failed": warm["failed"]}


def _phases(spec: Spec, seed: int, size: float, stack, mark=lambda name, stack: None):
    """The measured phases on a warmed-up stack, which is closed afterwards.

    ``mark(name, stack)`` is called as each phase ends, while the stack is
    still alive, so a traced run can read its instruments per phase.
    Returns the tally, the windowed phase's rate, and the overhead sample:
    the lone phase's round trips where there is one (window 1: nothing
    queues behind anything, so a no-op task's round trip is the fabric's
    own latency), else every task's ledger overhead (campaign: the AI
    tasks').
    """
    if spec.kind == "campaign":
        run = adapters.run_campaign(seed, _scaled(spec.windowed, size, minimum=10))
        mark("windowed", None)
        # The AI tasks' overhead is modelled data movement; the simulate
        # tasks' is a third magnified Python time at this scale and reads
        # 0.58 s or 0.68 s depending on which of two speeds the host is
        # running at (README).  Only the first can carry a bound.  A smoke campaign never retrains: it
        # falls back to what it has.
        by_topic = run["overheads"]
        ai_tasks = by_topic.get("train", []) + by_topic.get("infer", [])
        return {
            **_campaign_tally(run),
            "tasks": run["attempted"],
            "tasks_per_s": run["n_simulated"] / run["makespan_s"],
            "elapsed_s": run["makespan_s"],
            "overheads": ai_tasks or by_topic.get("simulate", []),
            "lone": None,
            "campaign": run,
        }
    windowed_n = _scaled(spec.windowed, size, minimum=spec.window + 2)
    lone = None
    with stack.home():
        windowed = closed_loop(stack, spec.warmup, windowed_n, spec.window)
        mark("windowed", stack)
        if spec.lone:
            lone = closed_loop(
                stack, spec.warmup + windowed_n, _scaled(spec.lone, size, 10), 1
            )
            mark("lone", stack)
    stack.close()
    done = [windowed] + ([lone] if lone else [])
    return {
        "attempted": sum(p["attempted"] for p in done),
        "failed": sum(p["failed"] for p in done),
        "tasks": windowed_n,
        "tasks_per_s": windowed_n / windowed["elapsed_s"],
        "elapsed_s": windowed["elapsed_s"],
        "overheads": (lone or windowed)["overheads"],
        "lone": lone,
        "campaign": None,
    }


def setup_only(spec: Spec, seed: int, spawned_at: float) -> dict:
    stack, warm = _set_up(spec, seed)
    setup_s = time.time() - spawned_at
    if stack is not None:
        stack.close()
    return {"setup_s": setup_s, **warm}


def measure(spec: Spec, seed: int, size: float, spawned_at: float) -> dict:
    """Set up, then run the modelled phases untraced.  Returns the sample
    for ``setup_s`` and the end-to-end metrics this pass owns."""
    stack, warm = _set_up(spec, seed)
    setup_s = time.time() - spawned_at
    phases = _phases(spec, seed, size, stack)
    metrics = {
        "tasks_per_s": {
            "value": phases["tasks_per_s"], "unit": "1/s", "n": phases["tasks"]
        },
        "task_overhead_p50_s": {**stats.summary(phases["overheads"]), "unit": "s"},
        "task_overhead_p95_s": {**stats.tail(phases["overheads"]), "unit": "s"},
    }  # fmt: skip
    result = {
        "setup_s": setup_s,
        "attempted": warm["attempted"] + phases["attempted"],
        "failed": warm["failed"] + phases["failed"],
        "time_scale": {"modelled": spec.time_scale},
        "metrics": metrics,
    }
    if stack is not None:
        result["config"] = stack.config
    run = phases["campaign"]
    if run is not None:
        # The paper's campaign figures, untraced (Figs. 5-6).
        result["campaign"] = {
            "makespan_s": run["makespan_s"],
            "tasks_by_topic": run["tasks_by_topic"],
            "simulate_overhead_p50_s": _median(run["overheads"].get("simulate", [])),
            "ml_makespans_s": run["ml_makespans"],
            "cpu_idle_p50_s": _median(run["cpu_idle_gaps"]),
            "cpu_utilization": run["cpu_utilization"],
        }
    return result


# -- the implementation pass (storms) --------------------------------------------------
def _pin_to_one_cpu() -> bool:
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        return True
    except (AttributeError, OSError):
        return False


def implementation_pass(
    spec: Spec, seed: int, size: float, *, profile: bool = False
) -> dict:
    """The same task stream with every modelled cost removed, so what is
    timed is implementation: CPU microseconds per task, in short segments,
    each divided by the calibration loop run before and after it at the
    segment's own duty cycle.  For the campaign a segment is one whole
    zero-cost campaign (durations of nothing, retraining off).

    With ``profile`` the pass runs under the per-thread call profiler and
    returns calls and CPU self time per layer instead of a total (the
    profiler multiplies the cost of every call, so its total means nothing).
    """
    pinned = _pin_to_one_cpu()
    sys.setswitchinterval(IMPL_SWITCH_INTERVAL_S)
    adapters.set_time_scale(spec.impl_time_scale)
    profiler = LayerProfiler(adapters.layer_of_path) if profile else None
    if profiler is not None:
        profiler.install()
    segments = _scaled(spec.impl_segments, size, minimum=3)
    if profile:
        segments = max(2, segments // PROFILE_SEGMENT_SHARE)
    per_segment = spec.impl_segment_tasks

    stack = None
    if spec.kind == "campaign":

        def run_segment(number: int) -> dict:
            return _campaign_tally(
                adapters.run_campaign(seed + number, per_segment, zero_cost=True)
            )

    else:
        stack = _build(spec, seed, zero_latency=True)

        def run_segment(number: int) -> dict:
            with stack.home():
                return closed_loop(
                    stack, number * per_segment, per_segment, spec.impl_window
                )

    def timed(number: int) -> tuple[dict, float, float]:
        cpu_started, wall_started = time.process_time(), time.perf_counter()
        loop = run_segment(number)
        cpu = time.process_time() - cpu_started
        return loop, cpu, min(1.0, cpu / (time.perf_counter() - wall_started))

    warm, _, duty = timed(0)
    attempted, failed = warm["attempted"], warm["failed"]
    units = [stats.calibrate(duty=duty)]
    ratios, cpu_us = [], []
    for number in range(1, segments + 1):
        loop, cpu, duty = timed(number)
        units.append(stats.calibrate(duty=duty))
        attempted += loop["attempted"]
        failed += loop["failed"]
        cpu_us.append(cpu / per_segment * 1e6)
        ratios.append(cpu_us[-1] / ((units[-2] + units[-1]) / 2))
        if loop["failed"]:
            break
    if stack is not None:
        stack.close()
    result = {
        "attempted": attempted,
        "failed": failed,
        "pinned": pinned,
        "switch_interval_s": IMPL_SWITCH_INTERVAL_S,
        "time_scale": {"impl": spec.impl_time_scale},
    }
    if profiler is not None:
        profiler.uninstall()
        result["layers"] = _profile_metrics(profiler, attempted)
    else:
        result["metrics"] = {
            "impl_cost_x": {
                **stats.summary(ratios),
                "unit": "x",
                "cpu_us_per_task": _calibration(cpu_us),
                "calibration": _calibration(units),
            }
        }
        result["layers"] = {
            "impl.us_per_task": statistics.median(cpu_us),
            "impl.calib_us": statistics.median(units),
        }
    return result


# -- the traced set ---------------------------------------------------------------------
_COUNTERS = (
    "faas.api_calls", "cloud.batch_submits", "endpoint.uplink_batches",
    "bus.published", "bus.redelivered", "durable.appends", "endpoint.polls",
    "endpoint.polls_empty", "client.retries", "store.cache_hits",
    "store.cache_misses", "store.evictions", "transfer.limit_stalls",
)  # fmt: skip
_TIERS = ("inline", "redis", "s3")


def _read_counters(registry, stack) -> dict:
    reading = {name: adapters.counter_sum(registry, name) for name in _COUNTERS}
    for tier in _TIERS:
        reading[f"store_ops.{tier}"] = adapters.counter_sum(
            registry, "faas.store_writes", tier=tier
        ) + adapters.counter_sum(registry, "faas.store_reads", tier=tier)
    reading["journal_bytes"] = stack.journal_bytes() if stack is not None else 0
    return reading


def _delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _profile_metrics(profiler: LayerProfiler, tasks: int) -> dict:
    """Kind A of the per-layer catalogue: Python calls and CPU self time per
    task, by the layer whose source file the frame runs in."""
    totals = profiler.totals()
    out: dict[str, float] = {}
    for layer in adapters.PROFILED_LAYERS:
        out[f"{layer}.py_calls_per_task"] = totals["calls"].get(layer, 0) / tasks
        out[f"{layer}.self_us_per_task"] = totals["self_s"].get(layer, 0.0) * 1e6 / tasks
    return out


def _boundary_metrics(tasks: int, boundary: dict) -> dict:
    """Kind B: calls into each layer and the modelled seconds it charged."""
    out: dict[str, float] = {}
    for layer in adapters.CHARGED_LAYERS:
        out[f"{layer}.calls_per_task"] = boundary["calls"].get(layer, 0) / tasks
        out[f"{layer}.charged_s_per_task"] = boundary["charged"].get(layer, 0.0) / tasks
    out["trace.unattributed_s_per_task"] = (
        boundary["charged"].get(UNATTRIBUTED, 0.0) / tasks
    )
    return out


def _counter_metrics(tasks: int, c: dict, single_uplinks: int, registry) -> dict:
    """Kind C: the system's own counters, per task of the windowed phase."""
    hits, misses = c["store.cache_hits"], c["store.cache_misses"]

    def p50(name: str) -> float:
        return _median(adapters.histogram_values(registry, name))

    return {
        "faas.api_calls_per_task": c["faas.api_calls"] / tasks,
        **{f"faas.store_ops_per_task.{t}": c[f"store_ops.{t}"] / tasks for t in _TIERS},
        "batch.submit_size_mean": _ratio(tasks, c["cloud.batch_submits"]),
        "faas.endpoint.uplink_size_mean": _ratio(
            tasks, c["endpoint.uplink_batches"] + single_uplinks
        ),
        "bus.published_per_task": c["bus.published"] / tasks,
        "bus.redelivered_per_task": c["bus.redelivered"] / tasks,
        "durable.appends_per_task": c["durable.appends"] / tasks,
        "durable.log_bytes_per_task": c["journal_bytes"] / tasks,
        "faas.endpoint.polls_empty_frac": _ratio(
            c["endpoint.polls_empty"], c["endpoint.polls"]
        ),
        "faas.client.retries_per_task": c["client.retries"] / tasks,
        "proxystore.cache_hit_rate": _ratio(hits, hits + misses),
        "proxystore.evictions_per_task": c["store.evictions"] / tasks,
        "proxystore.get_p50_s": p50("store.get_s"),
        "proxystore.put_p50_s": p50("store.put_s"),
        "transfer.queue_wait_p50_s": p50("transfer.queue_wait_s"),
        "transfer.limit_stalls_per_task": c["transfer.limit_stalls"] / tasks,
    }


def _record_metrics(spec: Spec, phases: dict, stack) -> dict:
    """Kind D: what the public records say — cloud task records, the Colmena
    result ledger, the worker pool's accounting."""
    run = phases["campaign"]
    if run is not None:
        return {
            **run["ledger"],
            "faas.cloud.queue_wait_p50_s": _median(run["queue_waits"]),
            "resources.cpu_utilization": run["cpu_utilization"],
            "resources.cpu_idle_p50_s": _median(run["cpu_idle_gaps"]),
            "apps.makespan_s": run["makespan_s"],
            "apps.ml_makespan_p50_s": _median(run["ml_makespans"]),
        }
    busy_for = phases["elapsed_s"] + (phases["lone"] or {"elapsed_s": 0.0})["elapsed_s"]
    return {
        **adapters.ledger_medians(stack.results()),
        "faas.cloud.queue_wait_p50_s": _median(stack.queue_waits()),
        "resources.cpu_utilization": stack.worker_busy_fraction(busy_for),
        "resources.cpu_idle_p50_s": _median(stack.idle_gaps()),
        "apps.makespan_s": phases["elapsed_s"],
        "apps.ml_makespan_p50_s": 0.0,
    }


def _write_trace(path: str, boundary_spans: list[dict], observe_spans: list[dict]) -> None:
    """One JSON object per line: the harness's boundary spans (with their
    same-thread self time) followed by the system's own observe spans."""
    own = self_times(boundary_spans)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        for span in boundary_spans:
            handle.write(
                json.dumps({"kind": "boundary", **span, "self_s": own[span["id"]]}) + "\n"
            )
        for span in observe_spans:
            handle.write(json.dumps({"kind": "observe", **span}, default=repr) + "\n")


def trace(spec: Spec, seed: int, size: float, trace_path: str | None) -> dict:
    """The traced set for one workload.

    The modelled phases run once bare — the reference the tracing overhead
    is measured against — then again with the system's tracer and metrics
    registry installed plus the harness's boundary wrappers.  (The call
    profile and the raw implementation figures come from two implementation
    passes that ``run.py`` starts beside this one.)
    """
    size *= TRACE_FRACTION
    tallies = []

    def fresh_stack():
        stack, warm = _set_up(spec, seed)
        tallies.append(warm)
        return stack

    # -- reference: nothing installed --
    stack = fresh_stack()
    reference = _phases(spec, seed, size, stack)
    tallies.append(reference)

    # -- traced: tracer + registry + boundary wrappers --
    tracer, registry = adapters.install_observe()
    recorder = BoundaryRecorder(adapters.now, adapters.current_span_id)
    missing = adapters.install_boundaries(recorder)
    readings: dict[str, tuple[dict, dict]] = {}

    def mark(name: str, live_stack) -> None:
        readings[name] = (recorder.totals(), _read_counters(registry, live_stack))

    try:
        stack = fresh_stack()
        mark("warm", stack)
        traced = _phases(spec, seed, size, stack, mark)
    finally:
        recorder.uninstall()
        adapters.remove_observe()
    tallies.append(traced)
    warm_b, warm_c = readings["warm"]
    windowed_b, windowed_c = readings["windowed"]
    boundary = {k: _delta(windowed_b[k], warm_b[k]) for k in windowed_b}
    layers = {
        **_boundary_metrics(traced["tasks"], boundary),
        **_counter_metrics(
            traced["tasks"],
            _delta(windowed_c, warm_c),
            boundary["names"].get("FaasCloud.report_result", 0),
            registry,
        ),
        **_record_metrics(spec, traced, stack),
        "trace.overhead_frac": 1.0 - traced["tasks_per_s"] / reference["tasks_per_s"],
        "trace.lone_charged_share": 0.0,
    }
    lone = traced["lone"]
    if lone is not None and lone["overheads"]:
        # How much of a lone task's round trip the layers' modelled charges
        # explain; the rest is waiting on other threads and real Python
        # time, magnified by the clock's scale.
        charged = _delta(readings["lone"][0]["charged"], windowed_b["charged"])
        layers["trace.lone_charged_share"] = (
            sum(charged.values()) / lone["attempted"]
        ) / statistics.fmean(lone["overheads"])

    # A layer that lost a call site no longer counts what it used to.
    for layer in set(missing.values()):
        layers[f"{layer}.calls_per_task"] = None
        layers[f"{layer}.charged_s_per_task"] = None
    if trace_path is not None:
        _write_trace(trace_path, recorder.spans(), adapters.observe_spans(tracer))
    return {
        "attempted": sum(t["attempted"] for t in tallies),
        "failed": sum(t["failed"] for t in tallies),
        "missing_boundaries": sorted(missing),
        "time_scale": {"modelled": spec.time_scale},
        "reference_tasks_per_s": reference["tasks_per_s"],
        "traced_tasks_per_s": traced["tasks_per_s"],
        "layers": layers,
    }
