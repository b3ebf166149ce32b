"""Compare two result sets written by ``run.py``.

``python3 perf/compare.py A.json B.json`` — A is the reference (the parent
commit), B the candidate.  For every (end-to-end metric, workload) pair the
relative change is held against the metric's bound from ``BENCHMARK.json``:

``worse``       B is worse than A by more than the bound
``better``      B is better than A by more than the bound
``same``        the change is within the bound
``unresolved``  the two committed baseline sets — the same code run twice —
                already differ by more than the bound on this pair, so a
                change of that size cannot be told from noise

Failed operations are compared first: a set that fails a larger share of
its operations is ``worse`` whatever its timings say.  Smoke results are
refused.  Exit status: 0 if nothing is worse, 1 if anything is, 2 if the
inputs cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
VERDICTS = ("better", "same", "worse", "unresolved")


def load_catalogue() -> list[dict]:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]


def worsening(reference: float, candidate: float, better: str) -> float:
    """Relative change from ``reference`` to ``candidate``, signed so that
    positive means worse."""
    change = (candidate - reference) / abs(reference)
    return change if better == "lower" else -change


def verdict(reference: float, candidate: float, metric: dict, noise: float = 0.0) -> str:
    """``noise`` is the relative difference the baseline sets show on this
    pair with no code change at all."""
    if noise > metric["bound"]:
        return "unresolved"
    change = worsening(reference, candidate, metric["better"])
    if change > metric["bound"]:
        return "worse"
    if change < -metric["bound"]:
        return "better"
    return "same"


def _value(document: dict, workload: str, name: str) -> float | None:
    entry = document["workloads"].get(workload, {}).get("metrics", {}).get(name)
    return None if entry is None else entry["value"]


def baseline_noise(baselines: list[dict], workload: str, metric: dict) -> float:
    """How far apart the baseline sets are on one pair, relative to the
    first; 0 when there are not two sets that both have it."""
    values = [_value(b, workload, metric["name"]) for b in baselines]
    values = [v for v in values if v is not None]
    if len(values) < 2:
        return 0.0
    return abs(worsening(values[0], values[1], metric["better"]))


def compare(a: dict, b: dict, catalogue: list[dict], baselines: list[dict]) -> list[dict]:
    """One row per (workload, metric) pair present in both sets, failed
    operations first."""
    rows = []
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            continue
        share_a = entry_a["ops_failed"] / entry_a["ops_attempted"]
        share_b = entry_b["ops_failed"] / entry_b["ops_attempted"]
        rows.append(
            {
                "workload": workload,
                "metric": "ops_failed/ops_attempted",
                "a": share_a,
                "b": share_b,
                "change": share_b - share_a,
                "bound": 0.0,
                "verdict": "worse" if share_b > share_a else
                           "better" if share_b < share_a else "same",
            }
        )  # fmt: skip
        for metric in catalogue:
            value_a = _value(a, workload, metric["name"])
            value_b = _value(b, workload, metric["name"])
            if value_a is None or value_b is None:
                continue
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "a": value_a,
                    "b": value_b,
                    "change": worsening(value_a, value_b, metric["better"]),
                    "bound": metric["bound"],
                    "verdict": verdict(
                        value_a, value_b, metric,
                        baseline_noise(baselines, workload, metric),
                    ),
                }
            )  # fmt: skip
    return rows


def render(rows: list[dict]) -> str:
    lines = [
        f"{'workload':16s} {'metric':26s} {'A':>12s} {'B':>12s} "
        f"{'worsening':>10s} {'bound':>6s}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:16s} {row['metric']:26s} {row['a']:12.5g} "
            f"{row['b']:12.5g} {row['change']:+10.2%} {row['bound']:6.2f}  "
            f"{row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=pathlib.Path, help="reference result set")
    parser.add_argument("b", type=pathlib.Path, help="candidate result set")
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        nargs=2,
        default=[HERE / "baseline" / "set1.json", HERE / "baseline" / "set2.json"],
        help="two sets of one commit, used to size run-to-run noise",
    )
    args = parser.parse_args(argv)
    try:
        a, b = (json.loads(path.read_text()) for path in (args.a, args.b))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read a result set: {exc}", file=sys.stderr)
        return 2
    for path, document in ((args.a, a), (args.b, b)):
        if document.get("smoke"):
            print(f"{path} is a smoke result; refusing to compare it", file=sys.stderr)
            return 2
    baselines = [json.loads(p.read_text()) for p in args.baseline if p.exists()]
    rows = compare(a, b, load_catalogue(), baselines)
    if not rows:
        print("the two sets share no workload", file=sys.stderr)
        return 2
    print(render(rows))
    counts = {v: sum(1 for r in rows if r["verdict"] == v) for v in VERDICTS}
    print(", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
