"""A call budget for the hardened hot path.

One synchronous round trip of 32 members -- submit (each member pushed to
the endpoint as it lands), the endpoint's credit back, report, download --
through a journaled 2-shard router with health and poison tracking, on a
:class:`ManualClock`, with the Python calls into ``src/repro`` counted per
member by ``sys.setprofile``.  A round pays once for what its members
share (routing, admission checks, placement, usage, health, poison); a
member pays only for its own work, so the count must not creep back
towards one call per member per layer.

Before rounds were folded the trip cost 72.4 calls per member; with a
fetch in the push's place it cost 24.75 (CPython 3.11).  The budget is
that count plus 15 %.  With the push the trip reads 26.9 on CPython
3.11.7, where the fetch trip reads 25.6; with the push delivered to a
listener by the (manual) reactor instead of pulled, 27.25.
"""

from __future__ import annotations

import os
import sys

from conftest import Inbox, ManualClock, ManualReactor, hardened_router

import repro
from repro.faas.cloud import TaskSubmission, task_topic
from repro.serialize import serialize

MEMBERS = 32
CALLS_PER_MEMBER = 24.75
BUDGET = CALLS_PER_MEMBER * 1.15


def _round_trip(router, token, tenant, func_id, endpoint_id, agent, first: int) -> None:
    items = [
        TaskSubmission(
            func_id, endpoint_id, serialize(((first + i,), {})), chaos_key=f"{first + i:016x}#a0"
        )
        for i in range(MEMBERS)
    ]
    task_ids = router.submit_batch(token, "client", items, tenant=tenant)
    assert all(isinstance(task_id, str) for task_id in task_ids), task_ids
    subscription, inbox, reactor = agent
    reactor.run(until=reactor.now())
    pushes = inbox.take()
    dispatches = [dispatch for push in pushes for dispatch in push.payload.dispatches]
    assert len(dispatches) == MEMBERS
    subscription.ack(pushes[-1].seq)
    router.return_credit(token, endpoint_id, MEMBERS, pushes[0].payload.epoch)
    result = serialize({"success": True, "value": 1})
    reports = [(dispatch.task_id, True, result) for dispatch in dispatches]
    assert router.report_results(token, endpoint_id, reports) == [None] * MEMBERS
    downloads = router.get_result_payloads(token, task_ids)
    assert all(isinstance(outcome, tuple) for outcome in downloads), downloads


def test_a_hardened_round_trip_stays_within_its_call_budget(monkeypatch):
    clock = ManualClock()
    reactor = ManualReactor(clock)
    monkeypatch.setattr("repro.bus.broker.get_reactor", lambda: reactor)
    router, token, tenant, (func_id,), (endpoint_id,) = hardened_router(clock)
    # The endpoint's agent: its subscription and listener, and a credit
    # window of a round.
    subscription = router.bus.subscribe(task_topic(endpoint_id), endpoint_id)
    agent = (subscription, Inbox.on(subscription, MEMBERS), reactor)
    router.grant_credit(token, endpoint_id, MEMBERS)
    trip = (router, token, tenant, func_id, endpoint_id, agent)
    _round_trip(*trip, 0)  # warm: routes known
    source = os.path.dirname(repro.__file__)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(source):
            calls += 1

    sys.setprofile(count)
    try:
        _round_trip(*trip, MEMBERS)
    finally:
        sys.setprofile(None)
    assert calls / MEMBERS <= BUDGET, f"{calls / MEMBERS:.1f} calls per member"
