"""One pass of one workload in a fresh interpreter.

``run.py`` starts this script once per pass because the system under test
keeps its clock, reactor, store registry and metrics in process globals: a
pass must never inherit another's.  The last line printed is the pass's
result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--mode", required=True, choices=("setup", "measure", "impl", "profile", "trace")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.time()

    import workloads  # imports repro: part of what set-up time measures

    spec = workloads.SPECS[args.workload]
    if args.mode == "setup":
        result = workloads.setup_only(spec, args.seed, spawned_at)
    elif args.mode == "measure":
        result = workloads.measure(spec, args.seed, args.size, spawned_at)
    elif args.mode in ("impl", "profile"):
        result = workloads.implementation_pass(
            spec, args.seed, args.size, profile=args.mode == "profile"
        )
    else:
        result = workloads.trace(spec, args.seed, args.size, args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
