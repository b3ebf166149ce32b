"""Durability benchmark — journal replay cost and write-ahead overhead.

The paper's cloud tier outlives any process because its state is durable;
``repro.durable`` buys that property with a write-ahead journal.  Two costs
decide whether that trade is honest, and this benchmark measures both:

* **Recovery time scales with journal length** — replay pays the journal
  medium's read charges, so a crash-rebuilt shard's ``recovery_s`` grows
  with the log; snapshot compaction (one state document instead of the
  per-task submit/dispatch/result triple) shrinks the bytes replayed and
  with them the recovery time.
* **Journaling stays off the critical path** — each submit's fsync rides a
  2 ms-latency WAL volume while the client pays a ~40 ms cloud API round
  trip, so the end-to-end submit overhead of write-ahead journaling must
  stay under 15%.

Quick mode (``REPRO_DURABLE_QUICK=1``, the CI smoke job) shrinks the task
counts but keeps every assertion.
"""

from __future__ import annotations

import os

import pytest

from common import noop_task
from repro.bench.reporting import ReportTable
from repro.durable import FileJournalBackend, Journal, recover_cloud
from repro.faas import SCOPE_COMPUTE, AuthServer, FaasClient, FaasCloud
from repro.net.clock import get_clock, reset_clock
from repro.net.context import at_site
from repro.net.defaults import build_paper_testbed
from repro.net.fs import FileSystem
from repro.serialize import serialize

QUICK = os.environ.get("REPRO_DURABLE_QUICK", "") not in ("", "0")

#: Task-ledger sizes for the replay-scaling sweep.
LEDGER_SIZES = [12, 36] if QUICK else [20, 60, 120]
#: Requeue rounds piled onto the compaction comparison: pure lease history.
CHURN_ROUNDS = 25 if QUICK else 40
#: Submits timed for the write-ahead overhead comparison.
OVERHEAD_SUBMITS = 10 if QUICK else 30
#: WAL volume: cheap appends (the fsync), deliberately modest read
#: bandwidth so replay bytes — not the op floor — dominate recovery.
WAL_READ_BANDWIDTH = 2e4
WAL_OP_LATENCY = 2e-3
#: The virtual clock is wall-driven, so Python execution time leaks into
#: nominal measurements; the replay sweep runs coarse (1 nominal s = 20 ms
#: wall) to keep the WAL's charged I/O dominant over that noise.
DURABLE_TIME_SCALE = 0.02


def _wal() -> FileSystem:
    return FileSystem(
        "wal", read_bandwidth=WAL_READ_BANDWIDTH, op_latency=WAL_OP_LATENCY
    )


def _journaled_cloud(seed: int, journal: Journal | None):
    testbed = build_paper_testbed(seed=seed)
    auth = AuthServer()
    identity = auth.register_identity("bench", "anl.gov")
    token = auth.issue_token(identity, {SCOPE_COMPUTE})
    cloud = FaasCloud(
        testbed.faas_cloud, testbed.network, auth, testbed.constants, journal=journal
    )
    endpoint_id = cloud.register_endpoint(token, "bench", testbed.theta_compute)
    func_id = cloud.register_function(token, serialize(noop_task))
    return testbed, auth, token, cloud, endpoint_id, func_id


def _run_ledger(cloud, token, endpoint_id, func_id, n_tasks: int, churn: int) -> None:
    """Admit ``n_tasks``, dispatch half, complete half of the dispatched —
    a mixed WAITING/DISPATCHED/terminal ledger — then run ``churn`` rounds
    of endpoint crash/requeue.  Each round appends a dispatch record
    (lease history) without growing the live state: exactly the redundancy
    snapshot compaction exists to erase."""
    for i in range(n_tasks):
        cloud.submit(token, "bench-client", func_id, endpoint_id, serialize(((i,), {})))
    dispatched = cloud.fetch_tasks(token, endpoint_id, n_tasks // 2)
    for dispatch in dispatched[: n_tasks // 4]:
        cloud.report_result(
            token, endpoint_id, dispatch.task_id, True, serialize({"ok": True})
        )
    for _ in range(churn):
        cloud.fetch_tasks(token, endpoint_id, n_tasks)
        cloud.requeue_dispatched(token, endpoint_id)


def _recovery_time(
    n_tasks: int, compact_every: int | None = None, churn: int = 0
) -> tuple[float, int]:
    """(recovery_s for a crash after ``n_tasks`` admissions, bytes replayed)."""
    wal = _wal()
    journal = Journal(FileJournalBackend(wal, "shard"), compact_every=compact_every)
    testbed, auth, token, cloud, endpoint_id, func_id = _journaled_cloud(11, journal)
    _run_ledger(cloud, token, endpoint_id, func_id, n_tasks, churn)
    replay_bytes = journal.log_bytes()
    snap = journal.backend.load_snapshot()
    replay_bytes += len(snap) if snap else 0

    fresh = FaasCloud(
        testbed.faas_cloud,
        testbed.network,
        auth,
        testbed.constants,
        fabric=cloud.fabric,
        journal=journal,
    )
    report = recover_cloud(fresh)
    assert len(fresh.task_records()) == n_tasks  # zero lost tasks, every time
    return report.recovery_s, replay_bytes


def _submit_elapsed(journal: Journal | None) -> float:
    """Nominal seconds for OVERHEAD_SUBMITS client submits (remote site,
    real API round trips) against a cloud with/without a journal."""
    testbed, _auth, token, cloud, endpoint_id, func_id = _journaled_cloud(13, journal)
    client = FaasClient(cloud, token, site=testbed.theta_login)
    # Stop the notifier before timing: its polls interleave latency-sample
    # draws with the submit thread's, which would make the two runs diverge
    # by scheduling noise instead of by the journal's cost.
    client.kill()
    clock = get_clock()
    with at_site(testbed.theta_login):
        start = clock.now()
        for i in range(OVERHEAD_SUBMITS):
            client.submit(func_id, endpoint_id, i)
        return clock.now() - start


def test_fig_durable(report_sink):
    table = ReportTable(title="Durability: journal replay cost and WAL overhead")

    reset_clock(DURABLE_TIME_SCALE)
    sweep = [(n, *_recovery_time(n)) for n in LEDGER_SIZES]
    times = [t for _n, t, _b in sweep]
    monotone = all(a < b for a, b in zip(times, times[1:]))
    table.add(
        "recovery_s across ledger sizes "
        f"{LEDGER_SIZES}",
        "grows with journal length",
        " / ".join(f"{t:.3f}s" for t in times),
        monotone,
    )

    biggest = LEDGER_SIZES[-1]
    uncompacted_s, uncompacted_b = _recovery_time(biggest, churn=CHURN_ROUNDS)[:2]
    compacted_s, compacted_b = _recovery_time(
        biggest, compact_every=8, churn=CHURN_ROUNDS
    )
    table.add(
        f"compaction (every 8) at n={biggest}, {CHURN_ROUNDS} requeue rounds",
        "fewer bytes, faster replay",
        f"{compacted_b}B/{compacted_s:.3f}s vs {uncompacted_b}B/{uncompacted_s:.3f}s",
        compacted_b < uncompacted_b and compacted_s < uncompacted_s,
    )

    reset_clock(DURABLE_TIME_SCALE)  # re-zero; coarse keeps the leak small
    plain = _submit_elapsed(None)
    journaled = _submit_elapsed(Journal(FileJournalBackend(_wal(), "shard")))
    overhead = (journaled - plain) / plain
    table.add(
        f"WAL submit overhead ({OVERHEAD_SUBMITS} submits)",
        "< 15%",
        f"{100 * overhead:.1f}% ({journaled:.2f}s vs {plain:.2f}s)",
        overhead < 0.15,
    )
    table.note(
        "Replay pays the WAL's read charges; the fsync rides a "
        f"{1e3 * WAL_OP_LATENCY:.0f} ms volume under a ~40 ms API RTT."
    )

    report_sink("fig_durable", table)
    assert table.all_hold, table.render()
