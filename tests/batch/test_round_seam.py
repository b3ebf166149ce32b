"""The round seam: every pipelined hop lands through :class:`repro.batch.Round`.

A round is slept only by :meth:`Round.wait` and armed only by
:meth:`Round.arm`, so the cloud and the router -- which plan every store,
submit, uplink and download round -- hold no sleep and arm no timer of
their own, and no module brings back one of the hand-built landing
schedules the type replaced.  The client has one submit leg and one
result path, both on the reactor: it sleeps only on a caller's own thread
(registration, serialization), and no function takes a flag that picks a
sleeping twin.  The control plane blocks on no bus: the broker, the
client, the endpoint and the autoscaler wait through no clock, and the
endpoint sleeps only in worker code and on a caller reclaiming it.  This
scan keeps it that way: a breach fails here with the file and line to fix.
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
#: resubmit and its notifier's download heap, the loops that blocked on the
#: bus, and the endpoint's doorbell-then-fetch chain the task push replaced;
#: no module defines them again.
RETIRED = {
    "_on_doorbells",
    "_next_fetch",
    "_pulled",
    "_fetch",
    "_fetch_landed",
    "_fetch_done",
    "_dispatched",
    "republish_doorbells",
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
    "_notify_loop",
    "_poll_loop",
    "_uplink_loop",
}
CLIENT = "faas/client.py"
#: The client's only sleepers: what a caller pays on its own thread.
CLIENT_SLEEPERS = {"register_function", "submit", "_pay_api_call"}
ENDPOINT = "faas/endpoint.py"
#: The endpoint's only sleepers: worker code, and the API call a caller's
#: ``resume(reclaim=True)`` pays.
ENDPOINT_SLEEPERS = {"_make_work", "_worker_faults", "_pay_api_call"}
#: Modules whose callbacks run on the reactor: none waits through a clock.
NEVER_WAIT = (
    "bus/broker.py",
    "faas/endpoint.py",
    CLIENT,
    "elastic/autoscaler.py",
)


def _enclosing(node: ast.AST, parents: dict) -> list[str]:
    """The functions around ``node``, innermost first."""
    names = []
    while node in parents:
        node = parents[node]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.append(node.name)
    return names


def _is_clock(node: ast.AST) -> bool:
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")
    return name.lstrip("_") == "clock"


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
        enclosing = _enclosing(node, parents)
        if (
            rel == CLIENT
            and node.func.attr == "sleep"
            and next(iter(enclosing), None) not in CLIENT_SLEEPERS
        ):
            found.append(
                f"{rel}:{node.lineno}: `.sleep(`; send it down the submit leg "
                "or arm a reactor timer"
            )
        if (
            rel == ENDPOINT
            and node.func.attr == "sleep"
            and not ENDPOINT_SLEEPERS.intersection(enclosing)
        ):
            found.append(
                f"{rel}:{node.lineno}: `.sleep(`; the agent runs on the "
                "reactor: arm a timer"
            )
        if rel in NEVER_WAIT and node.func.attr == "wait" and _is_clock(node.func.value):
            found.append(
                f"{rel}:{node.lineno}: `clock.wait(`; land it on the reactor "
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
        ("def _poll_loop(self): ...\n", ENDPOINT),
        ("class E:\n    def _uplink_loop(self): ...\n", ENDPOINT),
        ("def _fetch(self):\n    self._clock.sleep(wan)\n", ENDPOINT),
        ("def _on_doorbells(self, envelopes): ...\n", ENDPOINT),
        ("class C:\n    def republish_doorbells(self): ...\n", "faas/cloud.py"),
        ("class E:\n    def _dispatch(self):\n        clock.sleep(api)\n", ENDPOINT),
        ("self._clock.sleep(api)\n", ENDPOINT),
        ("self._clock.wait(self._resumed, None)\n", ENDPOINT),
        ("self._clock.wait(self._cond, wake_at - now)\n", "bus/broker.py"),
        ("def _loop(self):\n    self._clock.wait(self._stop_evt, 2.0)\n", "elastic/autoscaler.py"),
        ("def _on_lapse(self):\n    clock.wait(done, 0.25)\n", CLIENT),
    ],
)
def test_scan_catches_each_breach(source, rel):
    assert _violations(source, rel)


def test_scan_leaves_other_modules_their_sleeps_and_timers():
    source = "self._clock.sleep(cost)\nget_reactor().call_later(api, arrived)\n"
    assert not _violations(source, "resources/worker.py")
    assert not _violations(source, "batch/round.py")
    assert not _violations("get_reactor().call_later(api, arrived)\n", ENDPOINT)


def test_scan_lets_other_modules_wait_through_their_clock():
    assert not _violations("self._clock.wait(self._cond, nearest)\n", "batch/reactor.py")


def test_scan_lets_the_endpoint_sleep_in_worker_code_and_on_a_reclaim():
    source = (
        "class E:\n"
        "    def _make_work(self):\n"
        "        def work():\n"
        "            clock.sleep(cost)\n"
        "    def _worker_faults(self):\n"
        "        self._clock.sleep(spec.delay)\n"
        "    def _pay_api_call(self):\n"
        "        self._clock.sleep(self._api_cost())\n"
    )
    assert not _violations(source, ENDPOINT)


def test_scan_lets_the_client_sleep_on_its_callers():
    for name in sorted(CLIENT_SLEEPERS):
        source = f"class C:\n    def {name}(self):\n        self._clock.sleep(cost)\n"
        assert not _violations(source, CLIENT)
