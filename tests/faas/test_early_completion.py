"""A completion may beat the registration of its own future.

The task id a future is registered under only exists once the cloud's
submit call returns.  With a fast enough fabric the task has by then run
and its result doorbell has been consumed — and acked — by the result
listener, which found nobody waiting for that id.  The client parks such ids and
``_register`` delivers them, so the future still resolves.
"""

from __future__ import annotations

import pytest

from repro.batch import BatchPolicy, get_reactor
from repro.faas import SCOPE_COMPUTE, AuthServer, FaasClient, FaasCloud
from repro.faas.client import _EARLY_ARRIVALS_MAX
from repro.faas.cloud import result_topic
from repro.net.context import at_site
from repro.observe import MetricsRegistry, set_metrics
from repro.serialize import serialize


def _noop():
    return None


class _InstantCloud(FaasCloud):
    """Every task completes — and the client's result listener consumes and
    acks its result doorbell — before the submit round hands the client the
    id it minted."""

    def submit_batch(self, token, client_id, items, *, then, **kwargs):
        topic = result_topic(client_id)

        def complete(outcomes):
            endpoint_id = items[0].endpoint_id
            self.fetch_tasks(token, endpoint_id, len(outcomes))
            for task_id in outcomes:
                self.report_result(
                    token,
                    endpoint_id,
                    task_id,
                    True,
                    serialize({"success": True, "value": f"early:{task_id}"}),
                )
            hand_back(outcomes)

        def hand_back(outcomes):
            # The listener runs on this reactor too: a parked answer lets
            # it take (and ack) the result doorbells first.
            if self.bus.unacked(topic, client_id):
                get_reactor().call_later(0.0, lambda: hand_back(outcomes))
            else:
                then(outcomes)

        return super().submit_batch(token, client_id, items, then=complete, **kwargs)


@pytest.fixture
def rig(testbed):
    metrics = MetricsRegistry()
    set_metrics(metrics)
    auth = AuthServer()
    token = auth.issue_token(auth.register_identity("u", "anl"), {SCOPE_COMPUTE})
    cloud = _InstantCloud(testbed.faas_cloud, testbed.network, auth, testbed.constants)
    endpoint_id = cloud.register_endpoint(token, "theta", testbed.theta_compute)
    return testbed, cloud, token, endpoint_id, metrics


@pytest.mark.parametrize(
    "batch", [None, BatchPolicy(max_batch=3)], ids=["single", "batched"]
)
def test_completion_published_inside_submit_still_resolves_the_future(rig, batch):
    testbed, cloud, token, endpoint_id, metrics = rig
    client = FaasClient(cloud, token, site=testbed.theta_login, batch=batch)
    try:
        with at_site(testbed.theta_login):
            futures = [client.run(_noop, endpoint_id) for _ in range(3)]
        for future in futures:
            assert future.result(timeout=30) == f"early:{future.task_id}"
    finally:
        client.close()
    assert metrics.counter_total("client.early_completions") == 3
    assert client._early == {}


def test_early_arrival_window_is_bounded(rig):
    testbed, cloud, token, _endpoint_id, _metrics = rig
    client = FaasClient(cloud, token, site=testbed.theta_login)
    try:
        strangers = [f"task-{i:08d}" for i in range(_EARLY_ARRIVALS_MAX + 10)]
        client._handle_completions(strangers)
        # Oldest first out: ids nobody ever registers cannot pile up.
        assert list(client._early) == strangers[10:]
    finally:
        client.close()
