"""The benchmark's one command.

Two ways to call it, from the root of a checkout:

``python3 perf/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload, one set.  Prints every metric of that set by name with
    its unit, then — last line — one JSON object ``{"correct", "attempted",
    "failed", "metrics"}`` holding every end-to-end metric of
    ``BENCHMARK.json`` (``--trace 0``) or every per-layer metric
    (``--trace 1``).  This is what the driver runs.

``python3 perf/run.py [--seed N] [--traced] [--smoke]``
    Every workload, untraced (and, with ``--traced``, traced as well),
    written to ``perf/out/result.json``.  ``compare.py`` compares two such
    files.  Exits non-zero if any output check failed.

Every pass of every workload runs in a fresh subprocess with
``PYTHONHASHSEED=0``; this process never imports the system under test.
Run lengths are constants in ``workloads.py``: ``--seconds`` only scales
them all together (``run_seconds`` of ``BENCHMARK.json`` is the standard
size), and a result of any other size is stamped ``"smoke": true``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys
import time

import stats

HERE = pathlib.Path(__file__).resolve().parent
CATALOGUE = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RUN_SECONDS = CATALOGUE["run_seconds"]
WORKLOADS = [w["name"] for w in CATALOGUE["workloads"]]
OUT_DIR = HERE / "out"
#: Set-up is timed in this many fresh interpreters per run; the median is
#: reported, because one cold import can double a single sample.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170


class PassFailed(RuntimeError):
    """A child pass exited non-zero or printed no result."""


def run_pass(workload: str, mode: str, seed: int, size: float, *extra: str) -> dict:
    """Run one pass in a fresh interpreter and return its JSON result."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--mode", mode,
        "--seed", str(seed), "--size", repr(size),
        "--spawned-at", repr(time.time()), *extra,
    ]  # fmt: skip
    finished = subprocess.run(
        command,
        env={**os.environ, "PYTHONHASHSEED": "0"},
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = finished.stdout.strip().splitlines()
    if finished.returncode != 0 or not lines:
        raise PassFailed(
            f"{workload}/{mode} exited {finished.returncode}:\n{finished.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def _tally(*passes: dict) -> tuple[int, int]:
    return (
        sum(p["attempted"] for p in passes),
        sum(p["failed"] for p in passes),
    )


def run_untraced(workload: str, seed: int, size: float) -> dict:
    """The end-to-end set of one workload."""
    probes = max(1, round(SETUP_SAMPLES * min(size, 1.0))) - 1
    setups = [run_pass(workload, "setup", seed, size) for _ in range(probes)]
    main = run_pass(workload, "measure", seed, size)
    passes = [*setups, main]
    metrics = main.pop("metrics")
    samples = [p["setup_s"] for p in passes]
    metrics["setup_s"] = {**stats.summary(samples), "unit": "s", "samples": samples}
    result = {k: v for k, v in main.items() if k not in ("setup_s", "attempted", "failed")}
    impl = run_pass(workload, "impl", seed, size)
    passes.append(impl)
    metrics.update(impl["metrics"])
    result["time_scale"].update(impl["time_scale"])
    result["pinned"] = impl["pinned"]
    result["switch_interval_s"] = impl["switch_interval_s"]
    attempted, failed = _tally(*passes)
    return {
        **result,
        "ops_attempted": attempted,
        "ops_failed": failed,
        "correct": failed == 0,
        "metrics": metrics,
    }


def run_traced(workload: str, seed: int, size: float) -> dict:
    """The per-layer set of one workload."""
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace_{workload}.jsonl"
    traced = run_pass(workload, "trace", seed, size, "--trace-out", str(trace_file))
    passes = [traced]
    layers = traced.pop("layers")
    for mode in ("impl", "profile"):
        extra = run_pass(workload, mode, seed, size)
        passes.append(extra)
        layers.update(extra["layers"])
        traced["pinned"] = extra["pinned"]
    attempted, failed = _tally(*passes)
    return {
        **{k: v for k, v in traced.items() if k not in ("attempted", "failed")},
        "ops_attempted": attempted,
        "ops_failed": failed,
        "correct": failed == 0,
        "trace_file": str(trace_file.relative_to(HERE.parent)),
        "layers": layers,
    }


def _unit_of(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in CATALOGUE[kind]}


def driver_line(result: dict, traced: bool) -> dict:
    """The one JSON object the driver reads: every metric the catalogue
    names for this kind of run, nothing else.  A per-layer metric whose
    boundary no longer resolves is ``null`` in ``result.json`` and 0 here,
    because the driver takes numbers only (see ``missing_boundaries``)."""
    if traced:
        values = result["layers"]
        metrics = {
            name: {"value": values[name] if values[name] is not None else 0.0, "unit": unit}
            for name, unit in _unit_of("per_layer").items()
        }
    else:
        metrics = {
            name: {"value": result["metrics"][name]["value"], "unit": unit}
            for name, unit in _unit_of("end_to_end").items()
        }
    return {
        "correct": result["correct"],
        "attempted": result["ops_attempted"],
        "failed": result["ops_failed"],
        "metrics": metrics,
    }


def print_metrics(workload: str, result: dict, traced: bool) -> None:
    print(f"== {workload} ({'traced' if traced else 'untraced'}): "
          f"{result['ops_failed']} of {result['ops_attempted']} operations failed")  # fmt: skip
    if traced:
        units = _unit_of("per_layer")
        for name in sorted(result["layers"]):
            value = result["layers"][name]
            shown = "null" if value is None else f"{value:.6g}"
            print(f"  {name:44s} {shown:>14s} {units.get(name, '')}")
        if result.get("missing_boundaries"):
            print(f"  missing boundaries: {', '.join(result['missing_boundaries'])}")
        return
    for name, metric in result["metrics"].items():
        note = ""
        if "q1" in metric:
            note = f"  [q1 {metric['q1']:.6g}, q3 {metric['q3']:.6g}, n {metric['n']}]"
        elif "percentile" in metric:
            note = f"  [p{metric['percentile'] * 100:.1f}, n {metric['n']}]"
        print(f"  {name:44s} {metric['value']:>14.6g} {metric['unit']}{note}")


def _host() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="full set: add the traced set")
    parser.add_argument("--smoke", action="store_true", help="1/20 of every count")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else RUN_SECONDS
    if args.smoke:
        seconds = RUN_SECONDS / 20
    if seconds <= 0:
        parser.error("--seconds must be positive")
    size = seconds / RUN_SECONDS

    if args.workload is not None:
        traced = bool(args.trace)
        run = run_traced if traced else run_untraced
        result = run(args.workload, args.seed, size)
        print_metrics(args.workload, result, traced)
        print(json.dumps(driver_line(result, traced)))
        return 0

    document = {
        "schema": 1,
        "smoke": size != 1.0,
        "seed": args.seed,
        "run_seconds": seconds,
        **_host(),
        "workloads": {},
    }
    correct = True
    for workload in WORKLOADS:
        entry = run_untraced(workload, args.seed, size)
        print_metrics(workload, entry, traced=False)
        correct = correct and entry["correct"]
        if args.traced:
            traced_entry = run_traced(workload, args.seed, size)
            print_metrics(workload, traced_entry, traced=True)
            correct = correct and traced_entry["correct"]
            entry["traced"] = traced_entry
        document["workloads"][workload] = entry
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "result.json").write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {OUT_DIR / 'result.json'}")
    if not correct:
        print("FAILED: at least one operation failed its output check", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
