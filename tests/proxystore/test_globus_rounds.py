"""Globus transfers follow the round: one fused task per destination endpoint
per submission round, submitted off the putter's critical path."""

import threading
from contextlib import contextmanager

import pytest
from conftest import ManualClock, ManualReactor

from repro.batch.reactor import get_reactor
from repro.exceptions import StoreError
from repro.net.clock import Clock, get_clock
from repro.net.context import at_site
from repro.net.defaults import PaperConstants
from repro.net.topology import UniformLatency
from repro.proxystore import GlobusConnector, Store
from repro.serialize import Blob, serialize
from repro.transfer import TransferClient, TransferEndpoint, TransferService, TransferStatus


@pytest.fixture
def rig(testbed, recording_clock):
    """The site map of ``apps/common.py``: both Theta site names share the
    Lustre endpoint, ``venti`` has its own."""
    constants = PaperConstants(
        globus_request_latency=UniformLatency(0.4, 0.5),
        globus_transfer_base=UniformLatency(0.2, 0.3),
    )
    service = TransferService(testbed.globus_cloud, testbed.network, constants).start()
    ep_theta = TransferEndpoint(
        "r-theta", testbed.theta_login, testbed.mounts.volume("theta-lustre")
    )
    ep_venti = TransferEndpoint(
        "r-venti", testbed.venti, testbed.mounts.volume("venti-local")
    )
    service.register_endpoint(ep_theta)
    service.register_endpoint(ep_venti)
    connector = GlobusConnector(
        TransferClient(service, user="rounds", clock=recording_clock),
        {
            testbed.theta_login.name: ep_theta,
            testbed.theta_compute.name: ep_theta,
            testbed.venti.name: ep_venti,
        },
    )
    yield testbed, service, connector
    service.stop()


def n_tasks(service) -> int:
    return len(service._tasks)


@contextmanager
def submissions_held():
    """Block the process reactor, so a submission that is in flight stays in
    flight until the block is left."""
    gate, holding = threading.Event(), threading.Event()
    get_reactor().call_later(0, lambda: (holding.set(), gate.wait(10)))
    assert holding.wait(5)
    try:
        yield
    finally:
        gate.set()


def test_sites_sharing_an_endpoint_get_one_task_per_put(rig):
    testbed, service, connector = rig
    with at_site(testbed.venti):
        connector.put("k", serialize("result"))
    ids = connector.transfer_task_ids("k")
    assert set(ids) == {testbed.theta_login.name, testbed.theta_compute.name}
    assert len(set(ids.values())) == 1  # one shipment serves both names
    assert n_tasks(service) == 1
    for site in (testbed.theta_login, testbed.theta_compute):
        with at_site(site):
            assert connector.get("k", timeout=120).data == serialize("result").data


def test_put_does_not_sleep_through_the_submission(rig, recording_clock):
    testbed, service, connector = rig
    with at_site(testbed.theta_login):
        for i in range(4):
            connector.put(f"k{i}", serialize(i))
    # The transfer client charged nothing to the putting thread: the HTTPS
    # round trip is a reactor timer.
    assert recording_clock.charged(threading.current_thread().name) == []
    assert all(connector.transfer_task_ids(f"k{i}") for i in range(4))


def test_puts_during_a_submission_ride_the_next_task(rig):
    testbed, service, connector = rig
    payloads = {f"k{i}": serialize(Blob(50_000, tag=str(i))) for i in range(8)}
    with at_site(testbed.theta_login), submissions_held():
        for key, payload in payloads.items():
            connector.put(key, payload)
    task_ids = {connector.transfer_task_ids(k)[testbed.venti.name] for k in payloads}
    assert len(task_ids) == 2  # the first went alone, the rest fused behind it
    assert n_tasks(service) == 2
    with at_site(testbed.venti):
        for key, payload in payloads.items():
            assert connector.get(key, timeout=120).data == payload.data


def test_get_on_a_parked_key_waits_for_its_round(rig):
    testbed, service, connector = rig
    got: list = []

    def reader():
        with at_site(testbed.venti):
            got.append(connector.get("parked", timeout=120).data)

    thread = threading.Thread(target=reader, daemon=True)
    with at_site(testbed.theta_login), submissions_held():
        connector.put("first", serialize(1))
        connector.put("parked", serialize(2))  # first's submission is in flight
        thread.start()
        thread.join(0.05)
        assert thread.is_alive() and not got  # nothing to wait on but the round
    thread.join(10)
    assert got == [serialize(2).data]
    with at_site(testbed.venti):
        assert connector.get("first", timeout=120).data == serialize(1).data


def test_a_timed_out_reader_leaves_its_neighbours_transfer_alive(rig):
    testbed, service, connector = rig
    service.pause_endpoint("r-venti")
    with at_site(testbed.theta_login):
        connector.put_batch({"mine": serialize("m"), "theirs": serialize("t")})
    (task_id,) = set(connector.transfer_task_ids("mine").values())
    with at_site(testbed.venti):
        with pytest.raises(StoreError):
            connector.get("mine", timeout=0.5)
    assert service.status(task_id).status is TransferStatus.QUEUED  # not cancelled
    service.resume_endpoint("r-venti")
    with at_site(testbed.venti):
        assert connector.get("theirs", timeout=120).data == serialize("t").data
        assert connector.get("mine", timeout=120).data == serialize("m").data


def test_a_timed_out_reader_cancels_a_task_that_is_all_its_own(rig):
    testbed, service, connector = rig
    service.pause_endpoint("r-venti")
    with at_site(testbed.theta_login):
        connector.put("only", serialize("x"))
    (task_id,) = set(connector.transfer_task_ids("only").values())
    with at_site(testbed.venti):
        with pytest.raises(StoreError):
            connector.get("only", timeout=0.5)
    assert service.status(task_id).status is TransferStatus.CANCELLED


def test_an_evicted_neighbour_does_not_fail_the_shipment(rig):
    testbed, service, connector = rig
    service.pause_endpoint("r-venti")  # hold the task until the eviction is in
    with at_site(testbed.theta_login):
        connector.put_batch({"gone": serialize("g"), "kept": serialize("k")})
        connector.transfer_task_ids("kept")  # submitted, both files on the task
        connector._by_id["r-theta"].volume.delete(connector._path("gone"))
    service.resume_endpoint("r-venti")
    with at_site(testbed.venti):
        assert connector.get("kept", timeout=120).data == serialize("k").data
        with pytest.raises(StoreError):
            connector.get("gone", timeout=5)


def test_evict_removes_a_parked_key_from_the_outbox(rig):
    testbed, service, connector = rig
    with at_site(testbed.theta_login), submissions_held():
        connector.put("first", serialize(1))
        connector.put("parked", serialize(2))
        connector.evict("parked")
        assert not connector.exists("parked")
    connector.close()  # both rounds are through
    assert all(
        item.dst_path != connector._path("parked")
        for task in service._tasks.values()
        for item in task.items
    )
    with at_site(testbed.venti):
        with pytest.raises(StoreError):
            connector.get("parked")
        assert connector.get("first", timeout=120).data == serialize(1).data


def test_landed_shipments_retire(rig, recording_clock):
    testbed, service, connector = rig
    with at_site(testbed.theta_login):
        connector.put_batch({"a": serialize("a"), "b": serialize("b")})
    with at_site(testbed.venti):
        assert connector.get("a", timeout=120).data == serialize("a").data
        assert connector._inbound == {}  # the whole task is confirmed landed
        assert connector.transfer_task_ids("b") == {}
        me = threading.current_thread().name
        polls = len(recording_clock.charged(me))
        # Re-reads (and the shipment's other keys) go straight to the
        # replica: no second confirming status poll.
        assert connector.get("a").data == serialize("a").data
        assert connector.get("b").data == serialize("b").data
        assert len(recording_clock.charged(me)) == polls
        assert connector.exists("a") and connector.exists("b")


def test_close_drains_what_is_parked(rig):
    testbed, service, connector = rig
    with at_site(testbed.theta_login):
        for i in range(3):
            connector.put(f"k{i}", serialize(i))
    connector.close()
    shipments = set(connector._inbound.values())
    assert shipments and all(s.task_id is not None for s in shipments)
    with at_site(testbed.venti):
        for i in range(3):
            assert connector.get(f"k{i}", timeout=120).data == serialize(i).data


def test_close_fails_readers_of_a_shipment_that_will_never_go_out(rig, monkeypatch):
    testbed, service, connector = rig
    monkeypatch.setattr(GlobusConnector, "_DRAIN_WALL_S", 0.05)
    # The submission's timer goes to a reactor nobody runs: it never lands.
    stalled = ManualReactor(ManualClock())
    monkeypatch.setattr("repro.transfer.client.get_reactor", lambda: stalled)
    with at_site(testbed.theta_login):
        connector.put("stranded", serialize("x"))
    errors: list[Exception] = []

    def reader():
        with at_site(testbed.venti):
            try:
                connector.get("stranded")  # no timeout: would hang forever
            except StoreError as exc:
                errors.append(exc)

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    connector.close()
    thread.join(5)
    assert not thread.is_alive()
    assert errors and "closed" in str(errors[0])


def test_store_close_reaches_the_connector(rig):
    testbed, service, connector = rig
    store = Store("rounds-close", connector)
    with at_site(testbed.theta_login):
        key = store.put(Blob(10_000))
    store.close()
    assert connector.transfer_task_ids(key)[testbed.venti.name] is not None


def test_concurrent_putters_lose_no_file_and_ship_each_once(rig):
    """Putters racing each other and the reactor's round hand-over: every
    file rides exactly one task, every route ends idle, every key resolves."""
    import sys

    testbed, service, connector = rig
    putters, per_putter = 8, 12
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:

        def putter(n: int) -> None:
            site = testbed.venti if n % 2 else testbed.theta_login
            with at_site(site):
                for i in range(per_putter):
                    connector.put(f"p{n}-{i}", serialize((n, i)))

        threads = [threading.Thread(target=putter, args=(n,)) for n in range(putters)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    connector.close()
    assert not any(route.busy or route.parked for route in connector._routes.values())
    shipped = [item.dst_path for task in service._tasks.values() for item in task.items]
    assert sorted(shipped) == sorted(
        connector._path(f"p{n}-{i}") for n in range(putters) for i in range(per_putter)
    )
    assert n_tasks(service) < putters * per_putter  # and they did fuse
    for n in range(putters):
        reader = testbed.theta_compute if n % 2 else testbed.venti
        with at_site(reader):
            for i in range(per_putter):
                assert connector.get(f"p{n}-{i}", timeout=120).data == serialize((n, i)).data


def test_a_read_with_nothing_inbound_waits_for_the_landing(rig, monkeypatch):
    """A key nobody shipped through this connector resolves when a transfer
    submitted straight to the service lands it; the reader waits on the
    landing, it does not poll the clock."""
    testbed, service, connector = rig
    sleeps: list[str] = []
    sleep = Clock.sleep

    def recording_sleep(clock, seconds):
        sleeps.append(threading.current_thread().name)
        sleep(clock, seconds)

    monkeypatch.setattr(Clock, "sleep", recording_sleep)
    got: list = []

    def reader():
        with at_site(testbed.venti):
            got.append(connector.get("late", timeout=600).data)

    thread = threading.Thread(target=reader, name="late-reader", daemon=True)
    thread.start()
    thread.join(0.05)
    assert thread.is_alive() and not got
    payload, path = serialize("late"), connector._path("late")
    theta = service.endpoint("r-theta").volume
    theta.write_raw(path, payload.data, payload.nominal_size)
    service.submit("rounds", "r-theta", "r-venti", [(path, path)])
    thread.join(10)
    assert got == [payload.data]
    assert sleeps.count("late-reader") == 1  # the replica read's own I/O charge


def test_a_read_spanning_two_shipments_keeps_one_deadline(rig, monkeypatch):
    """``timeout`` bounds the whole read: every wait in it, for either
    shipment's submission or task, ends by the same deadline.

    The reader keeps its own time, which only what it pays and the waits
    it times out move: a loaded host that stalls it between two clock
    readings cannot shift the deadline the waits are checked against."""
    testbed, service, connector = rig
    service.pause_endpoint("r-venti")  # neither shipment can land
    with at_site(testbed.theta_login), submissions_held():
        connector.put("first", serialize(1))
        connector.put("second", serialize(2))  # rides the next round
    venti = testbed.venti.name
    tasks = {connector.transfer_task_ids(k)[venti] for k in ("first", "second")}
    assert len(tasks) == 2
    me, ends, reader = threading.current_thread(), [], ManualClock()
    shared = {name: getattr(Clock, name) for name in ("now", "sleep", "wait")}

    def on_reader(name):
        def method(clock, *args):
            if threading.current_thread() is not me:
                return shared[name](clock, *args)
            if name == "wait":
                timeout = args[1]
                ends.append(None if timeout is None else reader.now() + timeout)
            return getattr(reader, name)(*args)

        return method

    for name in shared:
        monkeypatch.setattr(Clock, name, on_reader(name))
    start = get_clock().now()
    with at_site(testbed.venti), pytest.raises(StoreError):
        connector.get_batch(["first", "second"], timeout=1.0)
    assert len(ends) == 4  # submission + task, per shipment
    assert None not in ends and max(ends) < start + 1.5  # the parent: >= start + 2


def test_a_read_with_nothing_inbound_wakes_on_a_put_at_its_endpoint(rig):
    testbed, service, connector = rig
    got: list = []

    def reader():
        with at_site(testbed.venti):
            got.append(connector.get("mine", timeout=5000).data)  # 10 s of wall

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    thread.join(0.05)
    assert thread.is_alive() and not got
    with at_site(testbed.venti):
        connector.put("mine", serialize("m"))
    thread.join(5)
    assert got == [serialize("m").data]
