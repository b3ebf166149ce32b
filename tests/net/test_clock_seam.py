"""The clock seam: one module maps nominal time to the host, one spawns threads.

Every timed wait in ``src/repro`` goes through :class:`repro.net.clock.Clock`
(``sleep``/``wait``/``wait_for``/``get``), so the nominal->wall conversion
lives in ``net/clock.py`` alone and every thread starts as a
:class:`repro.net.context.SiteThread`.  This scan keeps it that way: a new
timed wait that reaches for ``time`` or the conversion directly, or a bare
``threading.Thread``, fails here with the file and line to fix.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent
CLOCK = "net/clock.py"
CONTEXT = "net/context.py"


def _breaches_clock(node: ast.AST) -> str | None:
    if isinstance(node, ast.Attribute) and node.attr.lstrip("_") == "wall_timeout":
        return "nominal->wall conversion; use Clock.wait/wait_for/get"
    if isinstance(node, ast.Import) and any(
        alias.name.split(".")[0] == "time" for alias in node.names
    ):
        return "`import time`; time goes through the Clock"
    if isinstance(node, ast.ImportFrom) and node.module == "time":
        return "`from time import`; time goes through the Clock"
    return None


def _breaches_context(node: ast.AST) -> str | None:
    if isinstance(node, ast.ImportFrom) and node.module == "threading":
        if any(alias.name == "Thread" for alias in node.names):
            return "`from threading import Thread`; use SiteThread"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        owner = node.func.value
        if node.func.attr == "Thread" and getattr(owner, "id", None) == "threading":
            return "`threading.Thread(`; use SiteThread"
    return None


def _violations(source: str, rel: str) -> list[str]:
    checks = [
        check
        for check, home in ((_breaches_clock, CLOCK), (_breaches_context, CONTEXT))
        if rel != home
    ]
    found = []
    for node in ast.walk(ast.parse(source)):
        for check in checks:
            why = check(node)
            if why is not None:
                found.append(f"{rel}:{node.lineno}: {why}")
    return found


def test_src_keeps_to_the_clock_seam():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        found += _violations(path.read_text(), path.relative_to(SRC).as_posix())
    assert not found, "\n".join(found)


@pytest.mark.parametrize(
    "source",
    [
        "import time\n",
        "import time as _time\n",
        "from time import monotonic\n",
        "clock.wall_timeout(1.0)\n",
        "clock._wall_timeout(1.0)\n",
        "import threading\nthreading.Thread(target=f).start()\n",
        "from threading import Thread\n",
    ],
)
def test_scan_catches_each_breach(source):
    assert _violations(source, "faas/cloud.py")


def test_scan_allows_the_two_homes():
    assert not _violations("import time as _time\nself._wall_timeout(1)\n", CLOCK)
    subclass = "import threading\nclass T(threading.Thread): ...\n"
    assert not _violations(subclass, CONTEXT)
