"""The round seam: every pipelined hop lands through :class:`repro.batch.Round`.

A round is slept only by :meth:`Round.wait` and armed only by
:meth:`Round.arm`, so the cloud and the router -- which plan every store,
submit, uplink and download round -- hold no sleep and arm no timer of
their own, and no module brings back one of the hand-built landing
schedules the type replaced.  The client has one submit leg and one
result path, both on the reactor: it sleeps only on a caller's own thread
(registration, serialization), waits on no landing through its clock, and
no function takes a flag that picks a sleeping twin.  This scan keeps it
that way: a breach fails here with the file and line to fix.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent
#: Modules that plan rounds and must leave landing them to ``Round``.
PLANNERS = ("faas/cloud.py", "tenancy/router.py")
#: The hand-built schedules ``Round`` replaced, the client's sleeping
#: resubmit and its notifier's download heap; no module defines them again.
RETIRED = {
    "plan_write",
    "plan_read",
    "read_landings",
    "_land_round",
    "_scatter_round",
    "_arm_handoffs",
    "_resubmit",
    "_Download",
    "_land_downloads",
    "_until_next_landing",
}
CLIENT = "faas/client.py"
#: The client's only sleepers: what a caller pays on its own thread.
CLIENT_SLEEPERS = {"register_function", "submit", "_pay_api_call"}


def _enclosing(node: ast.AST, parents: dict) -> str | None:
    while node in parents:
        node = parents[node]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node.name
    return None


def _violations(source: str, rel: str) -> list[str]:
    found = []
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name in RETIRED:
                found.append(f"{rel}:{node.lineno}: defines retired `{node.name}`")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            if any(arg.arg == "on_reactor" for arg in args):
                found.append(
                    f"{rel}:{node.lineno}: `{node.name}` takes `on_reactor`; "
                    "the reactor is the one driver"
                )
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if rel in PLANNERS and node.func.attr in ("sleep", "call_later"):
            found.append(
                f"{rel}:{node.lineno}: `.{node.func.attr}(`; "
                "return a Round and land it with Round.wait or Round.arm"
            )
        if (
            rel == CLIENT
            and node.func.attr == "sleep"
            and _enclosing(node, parents) not in CLIENT_SLEEPERS
        ):
            found.append(
                f"{rel}:{node.lineno}: `.sleep(`; send it down the submit leg "
                "or arm a reactor timer"
            )
        if (
            rel == CLIENT
            and node.func.attr == "wait"
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "_clock"
        ):
            found.append(
                f"{rel}:{node.lineno}: `_clock.wait(`; land it on the reactor "
                "with a continuation instead"
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
        ("def _flush_batch(self, items):\n    self._clock.sleep(api)\n", CLIENT),
        ("class C:\n    def _finish_attempt(self):\n        self._clock.sleep(1)\n", CLIENT),
        ("def submit(self):\n    def later():\n        clock.sleep(1)\n", CLIENT),
        ("self._clock.sleep(delay)\n", CLIENT),
        ("def _park(self, pending, *, on_reactor=False): ...\n", CLIENT),
        ("def _flush(self, items, on_reactor): ...\n", "faas/endpoint.py"),
        ("def _resubmit(self, pending, attempt): ...\n", CLIENT),
        ("class _Download:\n    started: float\n", CLIENT),
        ("def _land_downloads(self): ...\n", CLIENT),
        ("def _until_next_landing(self, interval): ...\n", "faas/endpoint.py"),
        ("def _notify_loop(self):\n    self._clock.sleep(wait)\n", CLIENT),
        ("self._clock.wait(landed, None)\n", CLIENT),
        ("def _launch_hedge(self):\n    self._clock.wait(event, 1.0)\n", CLIENT),
    ],
)
def test_scan_catches_each_breach(source, rel):
    assert _violations(source, rel)


def test_scan_leaves_other_modules_their_sleeps_and_timers():
    source = "self._clock.sleep(cost)\nget_reactor().call_later(api, arrived)\n"
    assert not _violations(source, "faas/endpoint.py")
    assert not _violations(source, "batch/round.py")


def test_scan_lets_other_modules_wait_through_their_clock():
    assert not _violations("self._clock.wait(self._cond, nearest)\n", "batch/reactor.py")


def test_scan_lets_the_client_sleep_on_its_callers():
    for name in sorted(CLIENT_SLEEPERS):
        source = f"class C:\n    def {name}(self):\n        self._clock.sleep(cost)\n"
        assert not _violations(source, CLIENT)
