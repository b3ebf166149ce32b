"""The cloud answers and never waits.

Endpoints fetch when a doorbell rings and clients drain their completed
feed when a subscription lapses, so no cloud call parks its caller: the
cloud, its ledger, the router and the shards hold no condition to wait on
or notify, and no timed wait.  What still ends in time (an outage window)
is a reactor timer.  The one ``.wait(`` left is a round landing on the
caller's thread, ``Round.wait(clock)``, which sleeps through the clock and
waits on nothing.  This scan keeps it that way: a breach fails here with
the file and line to fix.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent
#: The modules behind the cloud API.
ANSWERERS = ("faas/cloud.py", "faas/ledger.py", "tenancy/router.py", "tenancy/shard.py")
#: Calls that park a caller or exist to wake one.
WAITS = {"wait", "wait_for", "Condition", "notify_all"}


def _name(node: ast.AST) -> str:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _lands_a_round(call: ast.Call) -> bool:
    """``round_.wait(clock)``: one argument, and it is a clock."""
    return (
        _name(call.func) == "wait"
        and len(call.args) == 1
        and not call.keywords
        and _name(call.args[0]).lstrip("_") == "clock"
    )


def _violations(source: str, rel: str) -> list[str]:
    if rel not in ANSWERERS:
        return []
    return [
        f"{rel}:{node.lineno}: `{_name(node.func)}(`; answer at once, and "
        "end what must end in time on a reactor timer"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and _name(node.func) in WAITS
        and not _lands_a_round(node)
    ]


def test_the_cloud_api_never_waits():
    found = []
    for rel in ANSWERERS:
        found += _violations((SRC / rel).read_text(), rel)
    assert not found, "\n".join(found)


@pytest.mark.parametrize(
    ("source", "rel"),
    [
        ("self.clock.wait(ledger.lock, timeout)\n", "faas/cloud.py"),
        ("self.clock.wait_for(ledger.lock, lambda: ledger.depth(e), timeout)\n", "faas/cloud.py"),
        ("self._clock.wait_for(self.cond, lambda: queue, timeout)\n", "faas/cloud.py"),
        ("self.lock = threading.Condition()\n", "faas/ledger.py"),
        ("self.lock.notify_all()\n", "faas/ledger.py"),
        ("self._wake = threading.Condition()\n", "tenancy/router.py"),
        ("with self._wake:\n    self._wake.notify_all()\n", "tenancy/router.py"),
        ("self.clock.wait(self._wake, min(waits, default=None))\n", "tenancy/router.py"),
        ("ready.wait()\n", "tenancy/shard.py"),
        ("cond = Condition(lock)\n", "tenancy/shard.py"),
        ("self._done.wait(timeout=1.0)\n", "faas/cloud.py"),
    ],
)
def test_scan_catches_each_breach(source, rel):
    assert _violations(source, rel)


def test_scan_lets_a_round_land_on_its_caller():
    for source in (
        "return round_.wait(self.clock)\n",
        "sole(self.write_round(members).wait(self._clock))\n",
        "sole(self.read_round([locator]).wait(self._router.clock))\n",
    ):
        assert not _violations(source, "faas/cloud.py")


def test_scan_leaves_other_modules_their_waits():
    source = "self._clock.wait(self._cond, nearest)\nself._cond.notify_all()\n"
    assert not _violations(source, "batch/reactor.py")
    assert not _violations(source, "faas/endpoint.py")
