"""Property: transfer faults belong to files, not to the tasks that carry them.

The Globus connector fuses whatever is parked when a submission round comes
up, so which files share a task depends on timing.  A chaos ledger must not:
for a fixed file set and fault plan, the ``(file, attempt)`` pairs that fire
and the files that finally land are the same however the files are
partitioned into tasks.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.chaos.plan import FaultInjector, FaultPlan, FaultSpec, set_injector
from repro.net.defaults import PaperConstants, build_paper_testbed
from repro.net.fs import FileSystem
from repro.net.topology import FixedLatency
from repro.observe import MetricsRegistry, set_metrics
from repro.transfer import TransferEndpoint, TransferService, TransferStatus

#: No modelled time at all: the property is about bookkeeping, and a DTN
#: that never sleeps keeps each example to a few thread hand-offs.
FREE = PaperConstants(
    globus_transfer_base=FixedLatency(0.0),
    globus_per_file_overhead=0.0,
)


def run_partition(files, groups, plan):
    """Ship ``files`` grouped into tasks by ``groups`` under ``plan``;
    returns (fired event keys, landed files, faulted-file retry count)."""
    testbed = build_paper_testbed(seed=42)
    service = TransferService(testbed.globus_cloud, testbed.network, FREE).start()
    src = TransferEndpoint("p-src", testbed.theta_login, FileSystem("p-src"))
    dst = TransferEndpoint("p-dst", testbed.venti, FileSystem("p-dst"))
    service.register_endpoint(src)
    service.register_endpoint(dst)
    for name in files:
        src.volume.write_raw(name, name.encode(), 1000)
    injector = FaultInjector(plan)
    metrics = MetricsRegistry()
    set_injector(injector)
    set_metrics(metrics)
    try:
        tasks = {}
        for name, group in zip(files, groups):
            tasks.setdefault(group, []).append((name, name))
        ids = [service.submit("prop", "p-src", "p-dst", items) for items in tasks.values()]
        for task_id in ids:
            assert service.status(task_id).done_event.wait(10)
        statuses = [service.status(task_id).status for task_id in ids]
        assert all(s in (TransferStatus.SUCCEEDED, TransferStatus.FAILED) for s in statuses)
    finally:
        set_injector(None)
        set_metrics(None)
        service.stop()
    fired = sorted(event.key for event in injector.fires())
    landed = sorted(name for name in files if name in dst.volume._files)
    return fired, landed, metrics.counter_total("transfer.retries")


@given(
    n=st.integers(1, 5),
    data=st.data(),
    seed=st.integers(0, 2**16),
    rate=st.sampled_from([0.3, 0.6, 1.0]),
    # (0,) is the chaos matrix's plan; (0, 1, 2) outlasts MAX_RETRIES, so
    # the selected files never land and their tasks end FAILED.
    occurrences=st.sampled_from([(0,), (0, 1), (1,), (0, 1, 2)]),
)
def test_fault_ledger_is_independent_of_the_partition(n, data, seed, rate, occurrences):
    files = [f"dir/f{i}" for i in range(n)]
    groups = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    plan = FaultPlan.build(
        seed,
        [FaultSpec("transfer.attempt", "transfer_fault", rate=rate, occurrences=occurrences)],
    )
    fused = run_partition(files, groups, plan)
    alone = run_partition(files, list(range(n)), plan)
    assert fused == alone
    fired, landed, retries = fused
    # Every fire but a file's last-straw one is a retry of that one file.
    exhausted = len(files) - len(landed)
    assert retries == len(fired) - exhausted
