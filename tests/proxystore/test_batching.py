"""Tests for fused batch puts (§V-D1's transfer-fusion optimization)."""

import pytest

from repro.exceptions import StoreError
from repro.net.context import at_site
from repro.net.defaults import PaperConstants
from repro.net.kvstore import KVServer
from repro.net.topology import UniformLatency
from repro.proxystore import (
    FileConnector,
    GlobusConnector,
    RedisConnector,
    Store,
)
from repro.serialize import Blob
from repro.transfer import TransferClient, TransferEndpoint, TransferService


def test_put_batch_roundtrip_redis(testbed):
    store = Store(
        "batch-redis", RedisConnector(KVServer(testbed.theta_login), testbed.network)
    )
    with at_site(testbed.theta_login):
        keys = store.put_batch(["a", "b", "c"])
        assert [store.get(k) for k in keys] == ["a", "b", "c"]


def test_put_batch_roundtrip_file(testbed):
    store = Store(
        "batch-file", FileConnector(testbed.mounts.volume("theta-lustre"))
    )
    with at_site(testbed.theta_login):
        keys = store.put_batch([1, 2])
        assert [store.get(k) for k in keys] == [1, 2]


def test_put_batch_key_mismatch(testbed):
    store = Store(
        "batch-bad", RedisConnector(KVServer(testbed.theta_login), testbed.network)
    )
    with at_site(testbed.theta_login):
        with pytest.raises(StoreError):
            store.put_batch(["a", "b"], keys=["only-one"])


def test_put_batch_explicit_keys(testbed):
    store = Store(
        "batch-keys", RedisConnector(KVServer(testbed.theta_login), testbed.network)
    )
    with at_site(testbed.theta_login):
        keys = store.put_batch(["x"], keys=["my-key"])
        assert keys == ["my-key"]
        assert store.get("my-key") == "x"


@pytest.fixture
def globus_store(testbed):
    constants = PaperConstants(
        globus_request_latency=UniformLatency(0.4, 0.5),
        globus_transfer_base=UniformLatency(0.3, 0.4),
        globus_concurrent_transfer_limit=2,
    )
    service = TransferService(testbed.globus_cloud, testbed.network, constants).start()
    ep_a = TransferEndpoint(
        "ba", testbed.theta_login, testbed.mounts.volume("theta-lustre")
    )
    ep_b = TransferEndpoint("bb", testbed.venti, testbed.mounts.volume("venti-local"))
    service.register_endpoint(ep_a)
    service.register_endpoint(ep_b)
    store = Store(
        "batch-globus",
        GlobusConnector(
            TransferClient(service, user="batch"),
            {testbed.theta_login.name: ep_a, testbed.venti.name: ep_b},
        ),
    )
    yield testbed, service, store
    store.close()
    service.stop()


def test_globus_batch_is_one_transfer_task(globus_store):
    testbed, service, store = globus_store
    with at_site(testbed.theta_login):
        keys = store.put_batch([Blob(100_000) for _ in range(5)])
    connector: GlobusConnector = store.connector  # type: ignore[assignment]
    task_ids = {connector.transfer_task_ids(k)[testbed.venti.name] for k in keys}
    assert len(task_ids) == 1  # all five objects fused into one task


def test_globus_batch_resolves_remotely(globus_store):
    testbed, service, store = globus_store
    with at_site(testbed.theta_login):
        proxies = store.proxy_batch([Blob(50_000, tag=str(i)) for i in range(3)])
    with at_site(testbed.venti):
        for index, proxy in enumerate(proxies):
            assert proxy == Blob(50_000, tag=str(index))


def test_globus_batch_cheaper_than_separate_puts(globus_store):
    """Fusion is what ``put`` does (§V-D1): separate puts do not block on the
    HTTPS submission and ride one transfer task per round, a ``put_batch``
    one; un-fused — one blocking submission and one task per file, against
    the 2-transfer limit — the same objects take far longer to reach the
    destination."""
    from repro.net.clock import get_clock

    testbed, service, store = globus_store
    connector: GlobusConnector = store.connector  # type: ignore[assignment]
    clock = get_clock()
    venti = testbed.venti.name

    def tasks_of(keys):
        return {connector.transfer_task_ids(k)[venti] for k in keys}

    def resolve_all(keys):
        with at_site(testbed.venti):
            for key in keys:
                store.get(key)

    with at_site(testbed.theta_login):
        start = clock.now()
        separate = [store.put(Blob(10_000, tag=f"s{i}")) for i in range(10)]
    assert len(tasks_of(separate)) < len(separate) / 2  # one per round, not per put
    resolve_all(separate)
    fused_by_put = clock.now() - start

    with at_site(testbed.theta_login):
        batch = store.put_batch([Blob(10_000, tag=f"b{i}") for i in range(6)])
    assert len(tasks_of(batch)) == 1
    resolve_all(batch)

    # The un-fused arm drives the transfer client directly, as the ablation
    # benchmarks do: the service and its limit are unchanged.
    client = connector._client
    with at_site(testbed.theta_login):
        start = clock.now()
        task_ids = [
            client.submit("ba", "bb", [(connector._path(key), f"unfused/{key}")])
            for key in separate
        ]
    for task_id in task_ids:
        client.wait(task_id, timeout=120)
    unfused = clock.now() - start
    assert fused_by_put < 0.8 * unfused  # about half, at ten files


def test_empty_batch_is_noop(globus_store):
    testbed, service, store = globus_store
    with at_site(testbed.theta_login):
        assert store.put_batch([]) == []
