"""Order statistics and the calibration loop shared by every perf/ module.

Nothing here imports ``repro``: these helpers describe samples, they do not
produce them.
"""

from __future__ import annotations

import math
import pickle
import statistics
import threading
import time

__all__ = [
    "MIN_TAIL_SAMPLES",
    "calibrate",
    "percentile",
    "summary",
    "supported_percentile",
    "tail",
]

#: A percentile is only reported when at least this many samples lie beyond
#: it; fewer and the figure is one or two outliers, not a tail.
MIN_TAIL_SAMPLES = 10


def percentile(values: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``values`` by nearest rank: the smallest
    sample with at least ``q`` of the data at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be within [0, 1], got {q}")
    data = sorted(values)
    rank = max(1, math.ceil(q * len(data) - 1e-9))
    return data[min(rank, len(data)) - 1]


def supported_percentile(n: int, wanted: float = 0.95) -> float:
    """The highest percentile, capped at ``wanted``, that still has
    :data:`MIN_TAIL_SAMPLES` samples beyond it in a sample of ``n``.

    200 samples support p95 exactly (10 beyond); 40 samples support p75;
    ten or fewer support nothing above the median, which is what is
    returned then.
    """
    if n <= 0:
        raise ValueError("need at least one sample")
    highest = (n - MIN_TAIL_SAMPLES) / n
    return max(0.5, min(wanted, highest))


def tail(values: list[float], wanted: float = 0.95) -> dict:
    """The tail figure of a latency sample with its provenance: which
    percentile was actually supported and how many samples back it."""
    q = supported_percentile(len(values), wanted)
    return {"value": percentile(values, q), "percentile": q, "n": len(values)}


def summary(values: list[float]) -> dict:
    """Median with the quartiles and sample count a reader needs to size a
    claim from the result file alone."""
    if not values:
        raise ValueError("summary of an empty sample")
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


#: Iterations between naps when the calibration loop imitates a duty cycle.
_BURST = 125
#: A nap shorter than this is not a nap: the kernel rounds it up and the core
#: never cools, so a nearly busy pass is calibrated busy.
_MIN_NAP_S = 0.0002
_MAX_NAP_S = 0.005


def calibrate(iterations: int = 5000, duty: float = 1.0) -> float:
    """CPU microseconds per iteration of a fixed pure-Python loop.

    The loop does what the control plane does between sleeps — take a lock,
    insert into and pop from a dict, pickle and unpickle a small tuple — so
    it speeds up and slows down with the host the way the measured code
    does.  Implementation cost is reported as a multiple of this unit.

    ``duty`` is the share of wall time the code being calibrated spends on
    the CPU.  A core that sleeps between bursts runs every burst cold, so
    below 1.0 the loop naps between bursts of 125 iterations for as long as
    keeps it at that duty cycle (only the bursts' CPU time is counted).
    """
    lock = threading.Lock()
    table: dict[int, int] = {}
    idle_per_busy = 1.0 / max(min(duty, 1.0), 0.01) - 1.0
    spent = burst = 0.0
    for first in range(0, iterations, _BURST):
        if burst * idle_per_busy >= _MIN_NAP_S:
            time.sleep(min(burst * idle_per_busy, _MAX_NAP_S))
        started = time.process_time()
        for i in range(first, min(first + _BURST, iterations)):
            with lock:
                table[i] = i
                table.pop(i)
            pickle.loads(pickle.dumps((i, "x")))
        burst = time.process_time() - started
        spent += burst
    return spent / iterations * 1e6
