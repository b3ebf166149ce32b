"""Tests for the three ProxyStore backends against the paper testbed."""

import pytest

from repro.exceptions import FileSystemError, PortPolicyError, StoreError
from repro.net.clock import get_clock
from repro.net.context import at_site
from repro.net.defaults import PaperConstants
from repro.net.kvstore import KVServer
from repro.net.topology import UniformLatency
from repro.proxystore import FileConnector, GlobusConnector, RedisConnector
from repro.serialize import Blob, serialize
from repro.transfer import TransferClient, TransferEndpoint, TransferService


# -- redis connector ----------------------------------------------------------


def test_redis_put_get_exists_evict(testbed):
    connector = RedisConnector(KVServer(testbed.theta_login), testbed.network)
    payload = serialize({"v": 1})
    with at_site(testbed.theta_login):
        connector.put("k", payload)
        assert connector.exists("k")
        assert connector.get("k").data == payload.data
        connector.evict("k")
        assert not connector.exists("k")


def test_redis_missing_key_raises(testbed):
    connector = RedisConnector(KVServer(testbed.theta_login), testbed.network)
    with at_site(testbed.theta_login):
        with pytest.raises(StoreError):
            connector.get("ghost")


def test_redis_get_timeout_waits_for_put(testbed):
    import threading

    connector = RedisConnector(KVServer(testbed.theta_login), testbed.network)
    payload = serialize("late")

    def put_later():
        get_clock().sleep(0.5)
        with at_site(testbed.theta_compute):
            connector.put("k", payload)

    thread = threading.Thread(target=put_later, daemon=True)
    thread.start()
    with at_site(testbed.theta_login):
        got = connector.get("k", timeout=30.0)
    assert got.data == payload.data
    thread.join()


def test_redis_cross_facility_needs_tunnel(testbed):
    connector = RedisConnector(KVServer(testbed.theta_login), testbed.network)
    payload = serialize("x")
    with at_site(testbed.venti):
        with pytest.raises(PortPolicyError):
            connector.put("k", payload)
    tunneled = RedisConnector(
        KVServer(testbed.theta_login, name="r2"), testbed.network, via_tunnel=True
    )
    with at_site(testbed.venti):
        tunneled.put("k", payload)
        assert tunneled.get("k").data == payload.data


# -- file connector -------------------------------------------------------------


def test_file_connector_roundtrip_within_fs_group(testbed):
    connector = FileConnector(testbed.mounts.volume("theta-lustre"))
    payload = serialize([1, 2, 3])
    with at_site(testbed.theta_login):
        connector.put("k", payload)
    with at_site(testbed.theta_compute):  # same Lustre
        assert connector.get("k").data == payload.data
        assert connector.exists("k")
        connector.evict("k")
        assert not connector.exists("k")


def test_file_connector_rejects_unmounted_site(testbed):
    connector = FileConnector(testbed.mounts.volume("theta-lustre"))
    payload = serialize("x")
    with at_site(testbed.venti):
        with pytest.raises(FileSystemError):
            connector.put("k", payload)
        with pytest.raises(FileSystemError):
            connector.get("k")


def test_file_connector_missing_key(testbed):
    connector = FileConnector(testbed.mounts.volume("theta-lustre"))
    with at_site(testbed.theta_login):
        with pytest.raises(StoreError):
            connector.get("ghost")


def test_file_connector_preserves_nominal_size(testbed):
    connector = FileConnector(testbed.mounts.volume("theta-lustre"))
    payload = serialize(Blob(5_000_000))
    with at_site(testbed.theta_login):
        connector.put("k", payload)
        fetched = connector.get("k")
    assert fetched.nominal_size == payload.nominal_size


# -- globus connector -------------------------------------------------------------


@pytest.fixture
def globus_rig(testbed):
    constants = PaperConstants(
        globus_request_latency=UniformLatency(0.05, 0.06),
        globus_transfer_base=UniformLatency(0.2, 0.3),
    )
    service = TransferService(testbed.globus_cloud, testbed.network, constants).start()
    ep_theta = TransferEndpoint(
        "gep-theta", testbed.theta_login, testbed.mounts.volume("theta-lustre")
    )
    ep_venti = TransferEndpoint(
        "gep-venti", testbed.venti, testbed.mounts.volume("venti-local")
    )
    service.register_endpoint(ep_theta)
    service.register_endpoint(ep_venti)
    client = TransferClient(service, "gtest")
    connector = GlobusConnector(
        client,
        {testbed.theta_login.name: ep_theta, testbed.venti.name: ep_venti},
    )
    yield testbed, service, connector
    service.stop()


def test_globus_needs_two_endpoints(testbed):
    with pytest.raises(ValueError):
        GlobusConnector(None, {})  # type: ignore[arg-type]


def test_globus_cross_site_roundtrip(globus_rig):
    testbed, service, connector = globus_rig
    payload = serialize({"model": Blob(1_000_000)})
    with at_site(testbed.theta_login):
        connector.put("k", payload)
    with at_site(testbed.venti):
        fetched = connector.get("k", timeout=120)
    assert fetched.data == payload.data
    assert fetched.nominal_size == payload.nominal_size


def test_globus_local_get_is_immediate(globus_rig):
    testbed, service, connector = globus_rig
    payload = serialize("local")
    clock = get_clock()
    with at_site(testbed.theta_login):
        connector.put("k", payload)
        start = clock.now()
        connector.get("k", timeout=10)
        local_cost = clock.now() - start
    assert local_cost < 1.0  # no transfer wait on the producing site


def test_globus_get_waits_for_transfer(globus_rig):
    testbed, service, connector = globus_rig
    payload = serialize("x")
    clock = get_clock()
    with at_site(testbed.theta_login):
        connector.put("k", payload)
    with at_site(testbed.venti):
        start = clock.now()
        connector.get("k", timeout=120)
        remote_cost = clock.now() - start
    assert remote_cost >= 0.1  # waited on the managed transfer


def test_globus_unknown_key(globus_rig):
    testbed, service, connector = globus_rig
    with at_site(testbed.theta_login):
        with pytest.raises(StoreError):
            connector.get("ghost")


def test_globus_site_without_endpoint_rejected(globus_rig):
    testbed, service, connector = globus_rig
    with at_site(testbed.uchicago_login):
        with pytest.raises(StoreError):
            connector.put("k", serialize("x"))


def test_globus_evict_clears_everywhere(globus_rig):
    testbed, service, connector = globus_rig
    payload = serialize("x")
    with at_site(testbed.theta_login):
        connector.put("k", payload)
    with at_site(testbed.venti):
        connector.get("k", timeout=120)
    connector.evict("k")
    with at_site(testbed.theta_login):
        assert not connector.exists("k")
    with at_site(testbed.venti):
        assert not connector.exists("k")


def test_globus_transfer_task_ids_tracked(globus_rig):
    testbed, service, connector = globus_rig
    with at_site(testbed.theta_login):
        connector.put("k", serialize("x"))
    tasks = connector.transfer_task_ids("k")
    assert testbed.venti.name in tasks
