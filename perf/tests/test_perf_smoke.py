"""One real run of the whole benchmark at 1/20 of every count."""

import json
import pathlib
import subprocess
import sys
import time

PERF = pathlib.Path(__file__).resolve().parent.parent
CATALOGUE = json.loads((PERF.parent / "BENCHMARK.json").read_text())


def test_smoke_set_is_quick_complete_and_refused_by_compare():
    started = time.monotonic()
    run = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--smoke", "--seed", "3"],
        capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    elapsed = time.monotonic() - started
    assert run.returncode == 0, run.stderr[-2000:]
    assert elapsed < 20.0, f"smoke set took {elapsed:.1f} s"
    path = PERF / "out" / "result.json"
    document = json.loads(path.read_text())
    assert document["smoke"] is True and document["seed"] == 3
    assert list(document["workloads"]) == [w["name"] for w in CATALOGUE["workloads"]]
    wanted = {m["name"] for m in CATALOGUE["end_to_end"]}
    for name, entry in document["workloads"].items():
        assert entry["ops_failed"] == 0 and entry["ops_attempted"] > 0, name
        assert set(entry["metrics"]) == wanted, name
        for metric, reading in entry["metrics"].items():
            assert reading["value"] > 0, (name, metric)
            assert metric in run.stdout
    refused = subprocess.run(
        [sys.executable, str(PERF / "compare.py"), str(path), str(path)],
        capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert refused.returncode == 2 and "smoke" in refused.stderr


def test_smoke_traced_run_names_every_per_layer_metric():
    run = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--workload", "storm_hardened",
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert run.returncode == 0, run.stderr[-2000:]
    line = json.loads(run.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in CATALOGUE["per_layer"]}
    units = {m["name"]: m["unit"] for m in CATALOGUE["per_layer"]}
    for name, reading in line["metrics"].items():
        assert reading["unit"] == units[name]
        assert isinstance(reading["value"], (int, float))
    # The layer split is real: PRs 6-10 do work here, the data plane does none.
    value = {name: reading["value"] for name, reading in line["metrics"].items()}
    assert value["durable.appends_per_task"] > 0 and value["tenancy.calls_per_task"] > 0
    assert value["batch.calls_per_task"] > 0
    assert value["proxystore.calls_per_task"] == 0 and value["transfer.calls_per_task"] == 0
