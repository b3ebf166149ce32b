"""Tests for the Globus-like transfer service and client."""

import threading

import pytest

from repro.exceptions import TransferError
from repro.net.clock import get_clock
from repro.net.context import at_site
from repro.net.defaults import PaperConstants
from repro.net.topology import FixedLatency, UniformLatency
from repro.transfer import (
    TransferClient,
    TransferEndpoint,
    TransferService,
    TransferStatus,
)


@pytest.fixture
def rig(testbed):
    constants = PaperConstants(
        globus_request_latency=UniformLatency(0.05, 0.06),
        globus_transfer_base=UniformLatency(0.2, 0.3),
    )
    service = TransferService(
        testbed.globus_cloud, testbed.network, constants
    ).start()
    src = TransferEndpoint(
        "ep-src", testbed.theta_login, testbed.mounts.volume("theta-lustre")
    )
    dst = TransferEndpoint("ep-dst", testbed.venti, testbed.mounts.volume("venti-local"))
    service.register_endpoint(src)
    service.register_endpoint(dst)
    client = TransferClient(service, "tester", site=testbed.theta_login)
    yield testbed, service, src, dst, client
    service.stop()


def test_transfer_moves_file(rig):
    testbed, service, src, dst, client = rig
    src.volume.write("f1", b"payload", nominal_size=1000)
    task_id = client.submit("ep-src", "ep-dst", [("f1", "f1")])
    task = client.wait(task_id, timeout=60)
    assert task.status is TransferStatus.SUCCEEDED
    assert dst.volume.read("f1") == b"payload"
    assert dst.volume.size("f1") == 1000
    assert task.bytes_transferred == 1000


def test_transfer_multiple_files(rig):
    testbed, service, src, dst, client = rig
    for i in range(3):
        src.volume.write(f"f{i}", bytes([i]), nominal_size=10)
    task_id = client.submit("ep-src", "ep-dst", [(f"f{i}", f"g{i}") for i in range(3)])
    client.wait(task_id, timeout=60)
    for i in range(3):
        assert dst.volume.read(f"g{i}") == bytes([i])


def test_missing_source_file_fails(rig):
    testbed, service, src, dst, client = rig
    task_id = client.submit("ep-src", "ep-dst", [("ghost", "ghost")])
    with pytest.raises(TransferError):
        client.wait(task_id, timeout=60)
    assert client.task(task_id).status is TransferStatus.FAILED


def test_missing_source_file_is_skipped_beside_present_ones(rig):
    """One evicted source must not fail the files fused with it."""
    testbed, service, src, dst, client = rig
    src.volume.write("real", b"here", nominal_size=500)
    task_id = client.submit("ep-src", "ep-dst", [("ghost", "ghost"), ("real", "real")])
    task = client.wait(task_id, timeout=60)
    assert task.status is TransferStatus.SUCCEEDED
    assert task.bytes_transferred == 500
    assert dst.volume.read("real") == b"here"
    assert "ghost" not in dst.volume._files


def test_fault_recopies_only_the_faulted_file(rig):
    """Faults are per file: the clean files land on the first attempt and
    only the faulted one is retried (and counted)."""
    from repro.chaos.plan import FaultInjector, FaultPlan, FaultSpec, set_injector
    from repro.observe import MetricsRegistry, set_metrics
    from repro.transfer.service import TransferItem

    testbed, service, src, dst, client = rig
    names = [f"f{i}" for i in range(4)]
    for name in names:
        src.volume.write(name, name.encode(), nominal_size=100)
    # Pick a seed whose plan faults some but not all of the four files.
    for seed in range(100):
        injector = FaultInjector(
            FaultPlan.build(seed, [FaultSpec("transfer.attempt", "transfer_fault", rate=0.5)])
        )
        hit = [
            name
            for name in names
            if injector._selects(
                injector.plan.specs[0], service._chaos_key(TransferItem(name, name))
            )
        ]
        if 0 < len(hit) < len(names):
            break
    metrics = MetricsRegistry()
    set_metrics(metrics)
    set_injector(injector)
    task = client.wait(
        client.submit("ep-src", "ep-dst", [(n, n) for n in names]), timeout=120
    )
    assert task.status is TransferStatus.SUCCEEDED
    assert task.retries == 1  # one requeue carried every faulted file
    assert task.attempts == {name: 1 for name in hit}
    assert metrics.counter_total("transfer.retries") == len(hit) == injector.fire_count()
    assert task.bytes_transferred == 100 * len(names)
    for name in names:
        assert dst.volume.read(name) == name.encode()


def test_submit_then_returns_at_once_and_lands_on_the_reactor(rig, recording_clock):
    """``then=`` moves the HTTPS round trip off the caller: same charge,
    paid as a reactor timer instead of a sleep."""
    import threading

    testbed, service, src, dst, _ = rig
    client = TransferClient(
        service, "tester", site=testbed.theta_login, clock=recording_clock
    )
    src.volume.write("f", b"x", nominal_size=1)
    landed: list = []
    done = threading.Event()

    def then(outcome):
        landed.append((outcome, threading.current_thread().name))
        done.set()

    start = get_clock().now()
    assert client.submit("ep-src", "ep-dst", [("f", "f")], then=then) is None
    assert done.wait(5)
    (task_id, thread), = landed
    assert thread == "repro-reactor"
    assert service.status(task_id).submitted_at - start >= 0.05  # latency still paid
    assert recording_clock.charged() == []  # ... but nobody slept through it
    assert client.wait(task_id, timeout=60).status is TransferStatus.SUCCEEDED


def test_submit_then_hands_a_refusal_to_the_continuation(rig):
    import threading

    testbed, service, src, dst, client = rig
    landed: list = []
    done = threading.Event()
    client.submit(
        "ep-src", "nope", [("f", "f")], then=lambda o: (landed.append(o), done.set())
    )
    assert done.wait(5)
    assert isinstance(landed[0], TransferError)


def test_empty_items_rejected(rig):
    _, service, *_ = rig
    with pytest.raises(TransferError):
        service.submit("u", "ep-src", "ep-dst", [])


def test_unknown_endpoint_rejected(rig):
    testbed, service, src, dst, client = rig
    with pytest.raises(TransferError):
        client.submit("ep-src", "ghost", [("a", "b")])


def test_duplicate_endpoint_rejected(rig):
    testbed, service, src, dst, client = rig
    with pytest.raises(TransferError):
        service.register_endpoint(src)


def test_unknown_task_status(rig):
    testbed, service, src, dst, client = rig
    with pytest.raises(TransferError):
        client.status("gt-999999")


def test_submission_pays_https_latency(rig):
    testbed, service, src, dst, client = rig
    src.volume.write("f", b"x", nominal_size=1)
    clock = get_clock()
    start = clock.now()
    client.submit("ep-src", "ep-dst", [("f", "f")])
    cost = clock.now() - start
    assert cost >= 0.05  # at least the configured request latency


def test_transfer_duration_in_expected_band(rig):
    testbed, service, src, dst, client = rig
    src.volume.write("f", b"x", nominal_size=1)
    task_id = client.submit("ep-src", "ep-dst", [("f", "f")])
    task = client.wait(task_id, timeout=60)
    took = task.completed_at - task.started_at
    assert 0.2 <= took <= 5.0


def test_paused_endpoint_defers_transfer(rig):
    testbed, service, src, dst, client = rig
    src.volume.write("f", b"x", nominal_size=1)
    service.pause_endpoint("ep-dst")
    task_id = client.submit("ep-src", "ep-dst", [("f", "f")])
    get_clock().sleep(1.0)
    assert client.status(task_id) is TransferStatus.QUEUED
    service.resume_endpoint("ep-dst")
    task = client.wait(task_id, timeout=60)
    assert task.status is TransferStatus.SUCCEEDED


def test_injected_failure_is_retried(rig):
    testbed, service, src, dst, client = rig
    src.volume.write("f", b"x", nominal_size=1)
    service.inject_failure("simulated checksum error")
    task_id = client.submit("ep-src", "ep-dst", [("f", "f")])
    task = client.wait(task_id, timeout=120)
    assert task.status is TransferStatus.SUCCEEDED
    assert task.retries >= 1


def test_repeated_failures_exhaust_retries(rig):
    testbed, service, src, dst, client = rig
    src.volume.write("f", b"x", nominal_size=1)
    for _ in range(TransferService.MAX_RETRIES + 1):
        service.inject_failure("persistent error")
    task_id = client.submit("ep-src", "ep-dst", [("f", "f")])
    with pytest.raises(TransferError):
        client.wait(task_id, timeout=120)
    assert client.task(task_id).status is TransferStatus.FAILED


def test_concurrency_limit_enforced(testbed):
    constants = PaperConstants(
        globus_request_latency=UniformLatency(0.01, 0.02),
        globus_transfer_base=UniformLatency(2.0, 2.1),
        globus_concurrent_transfer_limit=2,
    )
    service = TransferService(testbed.globus_cloud, testbed.network, constants).start()
    src = TransferEndpoint("s", testbed.theta_login, testbed.mounts.volume("theta-lustre"))
    dst = TransferEndpoint("d", testbed.venti, testbed.mounts.volume("venti-local"))
    service.register_endpoint(src)
    service.register_endpoint(dst)
    client = TransferClient(service, "limited", site=testbed.theta_login)
    try:
        for i in range(5):
            src.volume.write(f"f{i}", b"x", nominal_size=1)
        ids = [client.submit("s", "d", [(f"f{i}", f"f{i}")]) for i in range(5)]
        get_clock().sleep(1.0)
        assert service.active_count("limited") <= 2
        for task_id in ids:
            client.wait(task_id, timeout=120)
    finally:
        service.stop()


def test_wait_timeout(rig):
    testbed, service, src, dst, client = rig
    src.volume.write("f", b"x", nominal_size=1)
    service.pause_endpoint("ep-dst")
    task_id = client.submit("ep-src", "ep-dst", [("f", "f")])
    with pytest.raises(TransferError):
        client.wait(task_id, timeout=0.5)
    service.resume_endpoint("ep-dst")


def test_wait_timeout_cancels_the_abandoned_task(rig):
    """A timed-out wait must not leave the task holding a concurrency slot."""
    from repro.observe import MetricsRegistry, set_metrics

    metrics = MetricsRegistry()
    set_metrics(metrics)
    testbed, service, src, dst, client = rig
    src.volume.write("f", b"x", nominal_size=1)
    service.pause_endpoint("ep-dst")
    task_id = client.submit("ep-src", "ep-dst", [("f", "f")])
    with pytest.raises(TransferError):
        client.wait(task_id, timeout=0.5)
    assert client.status(task_id) is TransferStatus.CANCELLED
    assert metrics.counter_total("transfer.wait_timeouts") == 1
    service.resume_endpoint("ep-dst")
    get_clock().sleep(1.0)  # a cancelled task must never go ACTIVE again
    assert client.status(task_id) is TransferStatus.CANCELLED


def test_wait_timeout_can_leave_the_task_running(rig):
    testbed, service, src, dst, client = rig
    src.volume.write("f", b"x", nominal_size=1)
    service.pause_endpoint("ep-dst")
    task_id = client.submit("ep-src", "ep-dst", [("f", "f")])
    with pytest.raises(TransferError):
        client.wait(task_id, timeout=0.5, cancel_on_timeout=False)
    assert client.status(task_id) is TransferStatus.QUEUED
    service.resume_endpoint("ep-dst")
    assert client.wait(task_id, timeout=60).status is TransferStatus.SUCCEEDED


def test_cancel_queued_task_is_immediate(rig):
    testbed, service, src, dst, client = rig
    src.volume.write("f", b"x", nominal_size=1)
    service.pause_endpoint("ep-dst")  # keep it QUEUED
    task_id = client.submit("ep-src", "ep-dst", [("f", "f")])
    assert client.cancel(task_id) is True
    task = service.status(task_id)
    assert task.status is TransferStatus.CANCELLED
    assert task.completed_at is not None
    with pytest.raises(TransferError):
        client.wait(task_id, timeout=10)
    # Cancelling a terminal task reports False instead of raising.
    assert client.cancel(task_id) is False
    service.resume_endpoint("ep-dst")


def test_cancel_active_task_resolves_to_cancelled(testbed):
    constants = PaperConstants(
        globus_request_latency=UniformLatency(0.01, 0.02),
        globus_transfer_base=UniformLatency(5.0, 5.1),  # long enough to catch ACTIVE
    )
    service = TransferService(testbed.globus_cloud, testbed.network, constants).start()
    src = TransferEndpoint("s", testbed.theta_login, testbed.mounts.volume("theta-lustre"))
    dst = TransferEndpoint("d", testbed.venti, testbed.mounts.volume("venti-local"))
    service.register_endpoint(src)
    service.register_endpoint(dst)
    client = TransferClient(service, "canceller", site=testbed.theta_login)
    try:
        src.volume.write("f", b"payload", nominal_size=1)
        task_id = client.submit("s", "d", [("f", "f")])
        deadline = get_clock().now() + 30.0
        while client.status(task_id) is not TransferStatus.ACTIVE:
            assert get_clock().now() < deadline, "transfer never went ACTIVE"
            get_clock().sleep(0.1)
        assert client.cancel(task_id) is True
        with pytest.raises(TransferError):
            client.wait(task_id, timeout=60)
        assert client.status(task_id) is TransferStatus.CANCELLED
        # The abandoned copy wrote nothing at the destination.
        with pytest.raises(Exception):
            dst.volume.read("f")
        assert service.active_count("canceller") == 0
    finally:
        service.stop()


def fixed_rig(testbed, **overrides):
    """A started service with fixed modelled durations between two endpoints."""
    constants = PaperConstants(
        globus_transfer_base=FixedLatency(0.5),
        globus_per_file_overhead=0.1,
        **overrides,
    )
    service = TransferService(testbed.globus_cloud, testbed.network, constants).start()
    src = TransferEndpoint("s", testbed.theta_login, testbed.mounts.volume("theta-lustre"))
    dst = TransferEndpoint("d", testbed.venti, testbed.mounts.volume("venti-local"))
    service.register_endpoint(src)
    service.register_endpoint(dst)
    return service, src, dst


def test_a_started_attempt_is_one_reactor_timer_and_no_thread(testbed, recording_clock):
    """Admission stages the files and arms one landing timer of the modelled
    duration; no dispatcher or per-transfer thread exists."""
    service, src, dst = fixed_rig(testbed)
    src.volume.write_raw("f", b"x", 4_000_000)
    task_id = service.submit("u", "s", "d", [("f", "f")])
    assert service.status(task_id).status is TransferStatus.ACTIVE
    wire = 4_000_000 / min(
        service._constants.globus_dtn_bandwidth,
        testbed.network.bandwidth(src.site, dst.site),
    )
    me = threading.current_thread().name
    assert recording_clock.armed(me) == [pytest.approx(0.5 + 0.1 + wire)]
    names = [thread.name for thread in threading.enumerate()]
    assert not [n for n in names if n.startswith("dtn-") or n == "globus-dispatcher"]
    assert service.status(task_id).done_event.wait(5)
    assert service.status(task_id).status is TransferStatus.SUCCEEDED
    assert dst.volume.read("f") == b"x"
    assert recording_clock.armed() == [pytest.approx(0.5 + 0.1 + wire)]


@pytest.mark.parametrize("files", [1, 2])
def test_a_stall_delays_the_landing_by_its_delay(testbed, recording_clock, files):
    """A ``transfer.attempt`` stall is one more timer of exactly its delay per
    faulted file, and each faulted file still counts one retry."""
    from repro.chaos.plan import FaultInjector, FaultPlan, FaultSpec, set_injector
    from repro.observe import MetricsRegistry, set_metrics

    metrics = MetricsRegistry()
    set_metrics(metrics)
    stall = FaultSpec("transfer.attempt", "transfer_fault", rate=1.0, delay=2.0)
    set_injector(FaultInjector(FaultPlan.build(0, [stall])))
    service, src, dst = fixed_rig(testbed)
    names = [f"f{i}" for i in range(files)]
    for name in names:
        src.volume.write_raw(name, name.encode(), 0)
    task_id = service.submit("u", "s", "d", [(n, n) for n in names])
    task = service.status(task_id)
    assert task.done_event.wait(5)
    assert task.status is TransferStatus.SUCCEEDED
    attempt = 0.5 + 0.1 * files
    assert recording_clock.armed() == [
        pytest.approx(attempt),
        pytest.approx(2.0 * files),
        pytest.approx(attempt),
    ]
    assert metrics.counter_total("transfer.retries") == files
    assert task.retries == 1


def test_after_stop_queued_tasks_stay_queued_and_in_flight_ones_land(testbed):
    service, src, dst = fixed_rig(testbed, globus_concurrent_transfer_limit=1)
    for name in ("first", "second"):
        src.volume.write_raw(name, name.encode(), 1)
    first = service.submit("u", "s", "d", [("first", "first")])
    second = service.submit("u", "s", "d", [("second", "second")])
    assert service.status(second).status is TransferStatus.QUEUED  # the limit
    service.stop()
    assert service.status(first).done_event.wait(5)
    assert service.status(first).status is TransferStatus.SUCCEEDED
    assert dst.volume.read("first") == b"first"
    get_clock().sleep(2.0)  # well past where the freed slot would start it
    assert service.status(second).status is TransferStatus.QUEUED
    assert service.active_count("u") == 0


def test_racing_submitters_keep_the_limit_and_lose_nothing(testbed):
    """Submitting threads and reactor landings all run admission: under a
    tiny switch interval the per-user limit holds and every task lands."""
    import sys

    service, src, dst = fixed_rig(testbed, globus_concurrent_transfer_limit=3)
    active_at_start: list[int] = []
    stage = service._stage

    def recording_stage(task):
        active_at_start.append(service.active_count("u"))
        stage(task)

    service._stage = recording_stage
    names = [f"r{n}-{i}" for n in range(8) for i in range(10)]
    for name in names:
        src.volume.write_raw(name, name.encode(), 1)
    ids: list[str] = []

    def submitter(n: int) -> None:
        for i in range(10):
            ids.append(service.submit("u", "s", "d", [(f"r{n}-{i}", f"r{n}-{i}")]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=submitter, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
        for task_id in ids:
            assert service.status(task_id).done_event.wait(30)
    finally:
        sys.setswitchinterval(interval)
    assert len(ids) == len(names)
    assert all(service.status(t).status is TransferStatus.SUCCEEDED for t in ids)
    assert service.active_count("u") == 0
    assert len(active_at_start) == len(names) and max(active_at_start) <= 3
    assert all(dst.volume.read(name) == name.encode() for name in names)
