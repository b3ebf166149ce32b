"""The round seam: every pipelined hop lands through :class:`repro.batch.Round`.

A round is slept only by :meth:`Round.wait` and armed only by
:meth:`Round.arm`, so the cloud and the router -- which plan every store,
submit, uplink and download round -- hold no sleep and arm no timer of
their own, and no module brings back one of the hand-built landing
schedules the type replaced.  This scan keeps it that way: a breach fails
here with the file and line to fix.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent
#: Modules that plan rounds and must leave landing them to ``Round``.
PLANNERS = ("faas/cloud.py", "tenancy/router.py")
#: The hand-built schedules ``Round`` replaced; no module defines them again.
RETIRED = {
    "plan_write",
    "plan_read",
    "read_landings",
    "_land_round",
    "_scatter_round",
    "_arm_handoffs",
}


def _violations(source: str, rel: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in RETIRED:
            found.append(f"{rel}:{node.lineno}: defines `{node.name}`; build a Round")
        if (
            rel in PLANNERS
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("sleep", "call_later")
        ):
            found.append(
                f"{rel}:{node.lineno}: `.{node.func.attr}(`; "
                "return a Round and land it with Round.wait or Round.arm"
            )
    return found


def test_src_lands_every_round_through_the_round_type():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        found += _violations(path.read_text(), path.relative_to(SRC).as_posix())
    assert not found, "\n".join(found)


@pytest.mark.parametrize(
    ("source", "rel"),
    [
        ("self.clock.sleep(charge)\n", "faas/cloud.py"),
        ("self._clock.sleep(0.1)\n", "tenancy/router.py"),
        ("get_reactor().call_later(at, land)\n", "faas/cloud.py"),
        ("reactor.call_later(0.0, then)\n", "tenancy/router.py"),
        ("def plan_write(self, members):\n    pass\n", "faas/cloud.py"),
        ("class S:\n    def read_landings(self, locators): ...\n", "faas/cloud.py"),
        ("def _land_round(self, round_, n, then): ...\n", "faas/client.py"),
        ("def _scatter_round(self, owners, prepare): ...\n", "tenancy/router.py"),
        ("async def _arm_handoffs(self, schedule): ...\n", "faas/endpoint.py"),
        ("def plan_read(locators): ...\n", "proxystore/store.py"),
    ],
)
def test_scan_catches_each_breach(source, rel):
    assert _violations(source, rel)


def test_scan_leaves_other_modules_their_sleeps_and_timers():
    source = "self._clock.sleep(cost)\nget_reactor().call_later(api, arrived)\n"
    assert not _violations(source, "faas/endpoint.py")
    assert not _violations(source, "batch/round.py")
