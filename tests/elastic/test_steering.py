"""SteeringPolicy/apportion: deterministic task-ratio re-balancing."""

from __future__ import annotations

import pytest

from repro.chaos.campaign import run_cell
from repro.elastic import ElasticWorkerPool, SteeringPolicy, apportion
from repro.net.clock import get_clock
from repro.net.topology import Site


def _wait_until(predicate, timeout=10.0):
    deadline = get_clock().now() + timeout
    while not predicate():
        if get_clock().now() > deadline:
            return False
        get_clock().sleep(0.1)
    return True


# -- apportion ----------------------------------------------------------------


def test_apportion_splits_exactly():
    assert apportion({"cpu": 1.0, "gpu": 2.0}, 6) == {"cpu": 2, "gpu": 4}
    assert apportion({"cpu": 1.0, "gpu": 1.0}, 5) == {"cpu": 3, "gpu": 2}
    assert apportion({"a": 1.0}, 7) == {"a": 7}


def test_apportion_zero_weight_gets_zero():
    shares = apportion({"cpu": 0.0, "gpu": 1.0}, 4)
    assert shares == {"cpu": 0, "gpu": 4}


def test_apportion_tie_break_is_name_order():
    # Equal remainders: the alphabetically-first name wins the leftover slot.
    assert apportion({"a": 1.0, "b": 1.0}, 3) == {"a": 2, "b": 1}


def test_apportion_always_sums_to_total():
    weights = {"a": 0.7, "b": 1.3, "c": 2.1}
    for total in range(0, 25):
        shares = apportion(weights, total)
        assert sum(shares.values()) == total


def test_apportion_rejects_bad_inputs():
    with pytest.raises(ValueError):
        apportion({"a": -1.0, "b": 2.0}, 4)
    with pytest.raises(ValueError):
        apportion({"a": 0.0}, 4)
    with pytest.raises(ValueError):
        apportion({"a": 1.0}, -1)


# -- SteeringPolicy -----------------------------------------------------------


@pytest.fixture
def pools():
    site_cpu = Site("steer-cpu", trust_group="hpc")
    site_gpu = Site("steer-gpu", trust_group="hpc")
    cpu = ElasticWorkerPool(site_cpu, 4, name="st-cpu").start()
    gpu = ElasticWorkerPool(site_gpu, 2, name="st-gpu").start()
    yield {"cpu": cpu, "gpu": gpu}
    cpu.stop()
    gpu.stop()


def test_set_ratio_moves_workers(pools):
    policy = SteeringPolicy(pools, total_workers=6)
    targets = policy.set_ratio({"cpu": 1.0, "gpu": 2.0}, reason="retrain")
    assert targets == {"cpu": 2, "gpu": 4}
    assert policy.sizes() == {"cpu": 2, "gpu": 4}
    assert _wait_until(
        lambda: pools["cpu"].online_count == 2 and pools["gpu"].online_count == 4
    )
    assert len(policy.events) == 1
    event = policy.events[0]
    assert event.reason == "retrain"
    assert event.moved == 2  # cpu drained two workers for gpu


def test_set_ratio_back_and_forth_is_stable(pools):
    policy = SteeringPolicy(pools, total_workers=6)
    policy.set_ratio({"cpu": 1.0, "gpu": 2.0})
    policy.set_ratio({"cpu": 3.0, "gpu": 1.0})
    # apportion(3:1, 6): quotas 4.5/1.5, equal remainders, name order wins.
    assert policy.sizes() == {"cpu": 5, "gpu": 1}
    # Same weights again: a no-op move, still recorded.
    targets = policy.set_ratio({"cpu": 3.0, "gpu": 1.0})
    assert targets == {"cpu": 5, "gpu": 1}
    assert policy.events[-1].moved == 0
    assert len(policy.events) == 3


def test_set_ratio_missing_pool_weight_means_zero(pools):
    policy = SteeringPolicy(pools, total_workers=6)
    targets = policy.set_ratio({"gpu": 1.0})
    assert targets == {"cpu": 0, "gpu": 6}
    assert policy.sizes()["cpu"] == 0


def test_set_ratio_rejects_unknown_pool(pools):
    policy = SteeringPolicy(pools, total_workers=6)
    with pytest.raises(KeyError, match="unknown steering pools"):
        policy.set_ratio({"cpu": 1.0, "tpu": 1.0})


def test_steering_policy_validation(pools):
    with pytest.raises(ValueError):
        SteeringPolicy({}, total_workers=4)
    with pytest.raises(ValueError):
        SteeringPolicy(pools, total_workers=0)


def test_no_tasks_lost_across_a_steer(pools):
    import threading

    lock = threading.Lock()
    ran = []
    policy = SteeringPolicy(pools, total_workers=6)
    for i in range(12):
        pools["cpu"].submit(lambda i=i: (get_clock().sleep(0.3), ran.append(i)))
    policy.set_ratio({"cpu": 1.0, "gpu": 5.0}, reason="mid-flight steer")
    assert _wait_until(lambda: len(ran) == 12, timeout=60.0)
    assert sorted(ran) == list(range(12))


# -- provision_delay chaos mode ----------------------------------------------


def test_provision_delay_cell_passes_and_reconciles():
    result = run_cell("provision_delay", "faas-file", seed=0, n_tasks=6)
    assert result.passed, result.failures
    assert result.fires >= 1
    assert result.counters["autoscale.provision_retries"] == result.fires
    assert result.counters["autoscale.provision_abandoned"] == 0


def test_provision_delay_digest_is_deterministic():
    first = run_cell("provision_delay", "faas-file", seed=0, n_tasks=6)
    second = run_cell("provision_delay", "faas-file", seed=0, n_tasks=6)
    assert first.passed, first.failures
    assert first.digest == second.digest
    assert first.fires == second.fires
