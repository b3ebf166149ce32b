"""Tenant validation, quotas, token bucket, and the usage registry."""

import pytest

from repro.exceptions import (
    InvalidFunctionError,
    InvalidTenantError,
    TenantQuotaExceededError,
)
from repro.net.clock import get_clock
from repro.tenancy import (
    DEFAULT_TENANT,
    TenantQuota,
    TenantRegistry,
    TokenBucket,
    render_tenant_table,
    tenant_scope,
    validate_function_name,
    validate_tenant_name,
)


# -- name validation ----------------------------------------------------------
@pytest.mark.parametrize("name", ["a", "moldesign", "team-3.sub_x", "0x9"])
def test_valid_tenant_names(name):
    assert validate_tenant_name(name) == name


@pytest.mark.parametrize(
    "name", ["", "-lead", "UPPER", "has space", "a" * 65, None, 7, "x/y"]
)
def test_invalid_tenant_names(name):
    with pytest.raises(InvalidTenantError):
        validate_tenant_name(name)


@pytest.mark.parametrize("name", ["f", "_private", "pkg.mod.fn", "Fn2"])
def test_valid_function_names(name):
    assert validate_function_name(name) == name


@pytest.mark.parametrize(
    "name", ["", "2fast", "<lambda>", "has-dash", "a" * 129, None]
)
def test_invalid_function_names(name):
    with pytest.raises(InvalidFunctionError):
        validate_function_name(name)


def test_tenant_scope_embeds_name():
    assert "alice" in tenant_scope("alice")
    assert tenant_scope("a") != tenant_scope("b")


# -- token bucket -------------------------------------------------------------
def test_token_bucket_burst_then_throttle():
    bucket = TokenBucket(rate=10.0, burst=3.0)
    assert bucket.acquire() == 0.0
    assert bucket.acquire() == 0.0
    assert bucket.acquire() == 0.0
    wait = bucket.acquire()
    assert wait > 0.0  # empty: the hint is the nominal refill time
    assert wait <= 1.0 / 10.0 + 1e-9


def test_token_bucket_refills_with_the_clock():
    bucket = TokenBucket(rate=10.0, burst=1.0)
    assert bucket.acquire() == 0.0
    assert bucket.acquire() > 0.0
    get_clock().sleep(0.2)  # 2 tokens worth, capped at burst=1
    assert bucket.acquire() == 0.0
    assert bucket.acquire() > 0.0


def test_token_bucket_rejects_bad_parameters():
    with pytest.raises(InvalidTenantError):
        TokenBucket(rate=0.0, burst=1.0)
    with pytest.raises(InvalidTenantError):
        TokenBucket(rate=1.0, burst=-1.0)


# -- registry -----------------------------------------------------------------
def test_registry_always_has_default_tenant():
    registry = TenantRegistry()
    assert DEFAULT_TENANT in registry.names()
    # Unlimited: many submits admit without throttling.
    for _ in range(100):
        registry.admit_submit(DEFAULT_TENANT, 10)


def test_duplicate_and_invalid_creates_rejected():
    registry = TenantRegistry()
    registry.create("alice")
    with pytest.raises(InvalidTenantError):
        registry.create("alice")
    with pytest.raises(InvalidTenantError):
        registry.create("BAD NAME")
    with pytest.raises(InvalidTenantError):
        registry.create("bob", weight=0)
    with pytest.raises(InvalidTenantError):
        registry.create("carol", burst=5.0)  # burst requires a rate


def test_unknown_tenant_is_a_targeted_error():
    registry = TenantRegistry()
    with pytest.raises(InvalidTenantError):
        registry.admit_submit("ghost", 0)


def test_in_flight_quota_blocks_then_releases():
    registry = TenantRegistry()
    registry.create("alice", quota=TenantQuota(max_in_flight=2))
    registry.admit_submit("alice", 100)
    registry.admit_submit("alice", 100)
    with pytest.raises(TenantQuotaExceededError):
        registry.admit_submit("alice", 100)
    registry.tasks_dispatched("alice", 100)
    registry.tasks_finished("alice", 1)  # headroom returns at terminal
    registry.admit_submit("alice", 100)
    usage = registry.get("alice").usage
    assert usage.in_flight == 2
    assert usage.throttled == 1


def test_queued_bytes_quota_tracks_dispatch_and_requeue():
    registry = TenantRegistry()
    registry.create("alice", quota=TenantQuota(max_queued_bytes=150))
    registry.admit_submit("alice", 100)
    with pytest.raises(TenantQuotaExceededError):
        registry.admit_submit("alice", 100)
    registry.tasks_dispatched("alice", 100)  # bytes leave the queue
    registry.admit_submit("alice", 100)
    registry.task_requeued("alice", 100)  # crash: bytes come back
    with pytest.raises(TenantQuotaExceededError):
        registry.admit_submit("alice", 100)


def test_batch_beyond_the_quota_admits_the_prefix_that_fits():
    registry = TenantRegistry()
    registry.create(
        "alice", quota=TenantQuota(max_in_flight=5, max_queued_bytes=250)
    )
    admitted, refusal = registry.admit_batch("alice", [100] * 8)
    # Five slots, but only two members' bytes fit: the tighter quota wins.
    assert admitted == 2
    assert isinstance(refusal, TenantQuotaExceededError)
    usage = registry.get("alice").usage
    assert (usage.in_flight, usage.queued_bytes, usage.submits) == (2, 200, 2)
    assert usage.throttled == 1  # once per refused call, not per member
    registry.tasks_dispatched("alice", 100)
    registry.tasks_dispatched("alice", 100)
    admitted, refusal = registry.admit_batch("alice", [100] * 6)
    assert admitted == 2 and refusal is not None
    admitted, refusal = registry.admit_batch("alice", [10])
    assert (admitted, refusal) == (1, None)  # the fifth slot
    admitted, refusal = registry.admit_batch("alice", [10])
    assert admitted == 0 and "in flight" in str(refusal)
    assert usage.throttled == 3


def test_function_quota():
    registry = TenantRegistry()
    registry.create("alice", quota=TenantQuota(max_functions=1))
    registry.admit_function("alice")
    with pytest.raises(TenantQuotaExceededError):
        registry.admit_function("alice")


def test_rate_limit_throttles_with_retry_after():
    registry = TenantRegistry()
    registry.create("alice", rate=5.0, burst=1.0)
    registry.admit_submit("alice", 0)
    with pytest.raises(TenantQuotaExceededError) as excinfo:
        registry.admit_submit("alice", 0)
    assert excinfo.value.retry_after > 0.0


def test_release_submit_undoes_reservation():
    registry = TenantRegistry()
    registry.create("alice", quota=TenantQuota(max_in_flight=1))
    registry.admit_submit("alice", 64)
    registry.release_submit("alice", 64)
    registry.admit_submit("alice", 64)  # headroom came back
    usage = registry.get("alice").usage
    assert usage.in_flight == 1
    assert usage.queued_bytes == 64
    assert usage.submits == 1  # the rejected submit does not count


def test_render_tenant_table():
    registry = TenantRegistry()
    registry.create("alice", weight=3, quota=TenantQuota(max_in_flight=8))
    registry.create("bob", rate=2.0)
    registry.admit_submit("alice", 10)
    table = render_tenant_table(registry)
    lines = table.splitlines()
    assert "tenant" in lines[0] and "throttled" in lines[0]
    assert any("alice" in line and "1/8" in line for line in lines)
    assert any("bob" in line and "2" in line for line in lines)
