"""A landing that raises fails only the members it answers.

A round through the router is one round per shard group, joined: each
group lands at its own offsets.  When one group's commit raises -- a WAL
that refuses the append, say -- its own members come back with the error
and every other landing of the round still lands, whether the caller waits
for the round or the reactor lands it.  Before, the reactor marked every
member it had not yet heard from as failed, though an accepted report's
outcome is ``None`` too, and no later landing ran, so a later shard group
was never queued and never gave its tenant reservation back.
"""

from __future__ import annotations

import threading

import pytest
from conftest import hardened_router

from repro.faas.cloud import TaskStatus, TaskSubmission
from repro.net.clock import get_clock
from repro.serialize import serialize


def _two_shard_router():
    """The hardened router plus one function id owned by each shard."""
    router, token, tenant, func_ids, (endpoint_id,) = hardened_router(
        get_clock(), n_functions=8
    )
    owned: dict[str, str] = {}
    for func_id in func_ids:
        owned.setdefault(router._shard_for_partition(tenant, func_id), func_id)
    assert sorted(owned) == ["s0", "s1"]
    return router, token, tenant, owned, endpoint_id


def _refuse(*_args, **_kwargs):
    raise RuntimeError("the journal refused the append")


def _answer(call, driver: str) -> list:
    """``call``'s answer, waited for on this thread or landed on the
    reactor."""
    if driver == "wait":
        return call()
    answered: list = []
    done = threading.Event()

    def then(answer):
        answered.append(answer)
        done.set()

    assert call(then=then) is None
    assert done.wait(30), "the round never answered"
    return answered[0]


@pytest.mark.parametrize("driver", ["wait", "arm"])
def test_a_raising_report_landing_fails_only_its_shard_group(driver):
    router, token, tenant, owned, endpoint_id = _two_shard_router()
    items = [
        TaskSubmission(owned[shard_id], endpoint_id, serialize(((i,), {})))
        for i, shard_id in enumerate(("s0", "s1"))
    ]
    task_ids = router.submit_batch(token, "client", items, tenant=tenant)
    assert len(router.fetch_tasks(token, endpoint_id, 2)) == 2
    router.shard("s1")._journal = _refuse
    result = serialize({"success": True, "value": 1})

    outcomes = _answer(
        lambda **then: router.report_results(
            token, endpoint_id, [(task_id, True, result) for task_id in task_ids], **then
        ),
        driver,
    )

    accepted, refused = outcomes
    assert accepted is None
    assert isinstance(refused, RuntimeError)
    assert router.task(task_ids[0]).status is TaskStatus.SUCCESS
    assert router.task(task_ids[1]).status is TaskStatus.DISPATCHED


@pytest.mark.parametrize("driver", ["wait", "arm"])
def test_a_raising_submit_landing_leaves_the_later_shard_group_admitted(driver):
    router, token, tenant, owned, endpoint_id = _two_shard_router()
    router.shard("s0")._commit = _refuse
    items = [
        TaskSubmission(owned[shard_id], endpoint_id, serialize(((i,), {})))
        for i, shard_id in enumerate(("s0", "s1"))
    ]

    failed, task_id = _answer(
        lambda **then: router.submit_batch(token, "client", items, tenant=tenant, **then),
        driver,
    )

    assert isinstance(failed, RuntimeError)
    assert router.task(task_id).status is TaskStatus.WAITING
    # The failed group gave its reservation back; the queued task holds one.
    assert router.registry.get(tenant).usage.in_flight == 1
