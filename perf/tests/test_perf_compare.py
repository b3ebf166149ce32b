import json
import pathlib
import re

import pytest

import compare

PERF = pathlib.Path(__file__).resolve().parent.parent
LOWER = {"name": "latency_s", "unit": "s", "better": "lower", "bound": 0.10}
HIGHER = {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.05}


def result_set(latency=1.0, rate=10.0, failed=0, smoke=False):
    return {
        "smoke": smoke,
        "workloads": {
            "w": {
                "ops_attempted": 100,
                "ops_failed": failed,
                "metrics": {
                    "latency_s": {"value": latency, "unit": "s"},
                    "rate": {"value": rate, "unit": "1/s"},
                },
            }
        },
    }


@pytest.mark.parametrize(
    "metric, a, b, noise, expected",
    [
        (LOWER, 1.0, 1.05, 0.0, "same"),
        (LOWER, 1.0, 1.11, 0.0, "worse"),
        (LOWER, 1.0, 0.89, 0.0, "better"),
        (HIGHER, 10.0, 9.4, 0.0, "worse"),
        (HIGHER, 10.0, 10.6, 0.0, "better"),
        (HIGHER, 10.0, 9.6, 0.0, "same"),
        (LOWER, 1.0, 1.5, 0.11, "unresolved"),  # the baselines disagree by more than the bound
        (LOWER, 1.0, 1.5, 0.09, "worse"),
    ],
)
def test_verdicts(metric, a, b, noise, expected):
    assert compare.verdict(a, b, metric, noise) == expected


def test_rows_put_failed_operations_first_and_use_baseline_noise():
    baselines = [result_set(latency=1.0), result_set(latency=1.2)]  # 20% apart: noisy pair
    rows = compare.compare(
        result_set(), result_set(latency=2.0, rate=9.0, failed=3), [LOWER, HIGHER], baselines
    )
    assert [r["metric"] for r in rows] == ["ops_failed/ops_attempted", "latency_s", "rate"]
    assert [r["verdict"] for r in rows] == ["worse", "unresolved", "worse"]
    assert rows[2]["change"] == pytest.approx(0.10)


def write(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


def test_exit_status_and_smoke_refusal(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(compare, "load_catalogue", lambda: [LOWER, HIGHER])
    a = write(tmp_path, "a.json", result_set())
    same = write(tmp_path, "same.json", result_set(latency=1.02))
    worse = write(tmp_path, "worse.json", result_set(latency=1.3))
    smoke = write(tmp_path, "smoke.json", result_set(smoke=True))
    no_baseline = ["--baseline", str(tmp_path / "none1"), str(tmp_path / "none2")]
    assert compare.main([a, same, *no_baseline]) == 0
    assert compare.main([a, worse, *no_baseline]) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main([a, smoke, *no_baseline]) == 2
    assert "smoke" in capsys.readouterr().err
    assert compare.main([a, str(tmp_path / "missing.json"), *no_baseline]) == 2


def test_committed_baselines_agree_within_their_own_bounds(capsys):
    sets = [str(PERF / "baseline" / f"set{i}.json") for i in (1, 2)]
    assert compare.main(sets) == 0
    out = capsys.readouterr().out
    assert "0 worse, 0 unresolved" in out
    for document in map(json.loads, (pathlib.Path(p).read_text() for p in sets)):
        assert not document["smoke"]
        assert all(w["ops_failed"] == 0 for w in document["workloads"].values())


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_meets_the_driver_contract():
    raw = (PERF.parent / "BENCHMARK.json").read_text()
    assert len(raw.encode()) <= 64 * 1024
    doc = json.loads(raw)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["perf"] and doc["command"][:2] == ["python3", "perf/run.py"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16 and 1 <= len(doc["per_layer"]) <= 128
    names = [m["name"] for m in doc["workloads"] + doc["end_to_end"] + doc["per_layer"]]
    assert len(set(names)) == len(names) and all(NAME.match(n) for n in names)
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
