"""The zero-copy fast path: borrowed payloads skip the second hop."""

from __future__ import annotations

from repro.faas import SCOPE_COMPUTE, AuthServer, FaasCloud
from repro.faas.cloud import TaskSubmission
from repro.observe import MetricsRegistry, set_metrics
from repro.serialize import (
    Blob,
    borrow,
    deserialize_cost,
    serialize,
    serialize_cost,
)


def _noop():
    return None


def test_borrow_marks_without_copying():
    payload = serialize(Blob(8 * 1024))
    borrowed = borrow(payload)
    assert borrowed.borrowed
    assert borrowed.data is payload.data
    assert borrowed.nominal_size == payload.nominal_size
    assert borrow(borrowed) is borrowed  # idempotent


def test_borrowed_costs_are_zero():
    assert serialize_cost(8 * 1024) > 0.0
    assert serialize_cost(8 * 1024, borrowed=True) == 0.0
    assert deserialize_cost(8 * 1024, borrowed=True) == 0.0


def _cloud(testbed):
    auth = AuthServer()
    identity = auth.register_identity("u", "anl")
    token = auth.issue_token(identity, {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, testbed.constants)
    endpoint_id = cloud.register_endpoint(token, "theta", testbed.theta_compute)
    func_id = cloud.register_function(token, serialize(_noop))
    return cloud, token, endpoint_id, func_id


def test_store_tiers_borrowed_small_objects_inline(testbed):
    """A borrowed sub-20 kB payload rides the carrying message: the store
    files it inline (free) instead of paying the redis hop's second
    serialize/deserialize."""
    cloud, *_ = _cloud(testbed)
    payload = serialize(Blob(8 * 1024))  # redis band when not borrowed
    assert ":redis:" in f":{cloud.store.write(payload)}"
    assert ":inline:" in f":{cloud.store.write(borrow(payload))}"
    # Above the small-object threshold the bytes cannot ride the message;
    # borrowed or not, they take the s3 tier.
    big = serialize(Blob(64 * 1024))
    assert ":s3:" in f":{cloud.store.write(borrow(big))}"


def test_submit_batch_borrows_small_payloads(testbed):
    """The sender decides what rides the message; the cloud files what it
    is handed, whichever entry point handed it over."""
    metrics = MetricsRegistry()
    set_metrics(metrics)
    cloud, token, endpoint_id, func_id = _cloud(testbed)
    payload = serialize(((Blob(8 * 1024),), {}))  # mid-band: redis if copied

    def item(args_payload):
        return TaskSubmission(
            func_id=func_id, endpoint_id=endpoint_id, args_payload=args_payload
        )

    borrowed_id, copied_id = cloud.submit_batch(
        token, "client-1", [item(borrow(payload)), item(payload)]
    )
    assert "inline:" in cloud.task(borrowed_id).args_locator
    assert "redis:" in cloud.task(copied_id).args_locator
    # The batch of one is the same call: same rule.
    single_id = cloud.submit(token, "client-1", func_id, endpoint_id, payload)
    assert "redis:" in cloud.task(single_id).args_locator
    single_id = cloud.submit(token, "client-1", func_id, endpoint_id, borrow(payload))
    assert "inline:" in cloud.task(single_id).args_locator
