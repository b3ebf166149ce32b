"""Regressions for the retry budget: ``RetryPolicy.max_elapsed`` is
re-checked *after* the backoff sleep, so a long backoff can never launch a
retry past the budget it was granted under.
"""

from __future__ import annotations

import pytest

from repro.chaos.policy import RetryPolicy
from repro.exceptions import RetryExhaustedError
from repro.faas import (
    SCOPE_COMPUTE,
    AuthServer,
    FaasClient,
    FaasCloud,
    FaasEndpoint,
)
from repro.net.context import at_site
from repro.resources import WorkerPool


def _fail():
    raise ValueError("remote boom")


def test_retries_left_checks_both_caps():
    policy = RetryPolicy(max_attempts=3, max_elapsed=5.0)
    assert policy.retries_left(0, elapsed=0.0)
    assert not policy.retries_left(2, elapsed=0.0)  # attempt cap
    assert not policy.retries_left(0, elapsed=5.0)  # budget cap
    assert RetryPolicy(max_attempts=3).retries_left(0, elapsed=1e9)  # no budget


def test_backoff_sleep_cannot_blow_the_elapsed_budget(testbed):
    """A 10 s backoff against a 5 s budget: the client must notice *after*
    sleeping that the budget lapsed and give up without resubmitting."""
    auth = AuthServer()
    identity = auth.register_identity("u", "anl")
    token = auth.issue_token(identity, {SCOPE_COMPUTE})
    cloud = FaasCloud(testbed.faas_cloud, testbed.network, auth, testbed.constants)
    pool = WorkerPool(testbed.theta_compute, 2, name="budget-pool")
    endpoint = FaasEndpoint(
        "budget", cloud, token, testbed.theta_login, pool
    ).start()
    client = FaasClient(
        cloud,
        token,
        site=testbed.theta_login,
        retry_policy=RetryPolicy(
            max_attempts=10,
            base_delay=10.0,
            max_delay=10.0,
            jitter=0.0,
            max_elapsed=5.0,
        ),
    )
    try:
        with at_site(testbed.theta_login):
            future = client.run(_fail, endpoint.endpoint_id)
        with pytest.raises(RetryExhaustedError) as excinfo:
            future.result(timeout=120)
        assert excinfo.value.attempts == 1
        # The regression: pre-fix, the budget was only checked before the
        # sleep, so the task ran a second (budget-busting) attempt.
        assert len(cloud.task_records()) == 1
    finally:
        client.close()
        endpoint.stop()
