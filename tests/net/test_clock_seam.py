"""The clock seam: one module maps nominal time to the host, one spawns threads.

Every timed wait in ``src/repro`` goes through :class:`repro.net.clock.Clock`
(``sleep``/``wait``/``wait_for``/``get``), so the nominal->wall conversion
lives in ``net/clock.py`` alone and every thread starts as a
:class:`repro.net.context.SiteThread`.  This scan keeps it that way: a new
timed wait that reaches for ``time`` or the conversion directly, or a bare
``threading.Thread``, fails here with the file and line to fix.

The ``SiteThread(`` spawn sites themselves are a ratchet: ROADMAP item 3
turns the control-plane loops among them into reactor callbacks, so the
list below only shrinks.  A PR that removes a site deletes its entry; a new
site fails with its file and line.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent
CLOCK = "net/clock.py"
CONTEXT = "net/context.py"

#: Every ``SiteThread(`` call left in ``src/repro``, one entry per call, as
#: ``"<file>::<enclosing class.def>"``.
THREAD_SITES = [
    "batch/reactor.py::Reactor._ensure_thread_locked",
    "core/task_server.py::TaskServer.start",
    "core/task_server.py::TaskServer.start",
    "core/thinker.py::BaseThinker.start",
    "elastic/pool.py::ElasticWorkerPool.grow",
    "parsl/dataflow.py::DataFlowKernel.submit",
    "parsl/executors.py::HtexExecutor.start",
    "proxystore/store.py::Store.prefetch",
    "resources/worker.py::WorkerPool.start",
]


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


def _thread_sites(source: str, rel: str) -> list[tuple[str, int]]:
    """``(file::scope, line)`` for every ``SiteThread(`` call in ``source``."""
    found = []

    def visit(node: ast.AST, scope: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", getattr(child.func, "attr", None))
                if name == "SiteThread":
                    found.append((f"{rel}::{'.'.join(scope)}", child.lineno))
            visit(child, scope)

    visit(ast.parse(source), [])
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


def test_thread_sites_only_shrink():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        found += _thread_sites(path.read_text(), path.relative_to(SRC).as_posix())
    extra = Counter(site for site, _ in found) - Counter(THREAD_SITES)
    gone = Counter(THREAD_SITES) - Counter(site for site, _ in found)
    new = [
        f"{site.partition('::')[0]}:{line}: new `SiteThread(` in {site}; "
        "make it a reactor callback"
        for site, line in found
        if site in extra
    ]
    stale = [f"{site}: gone; delete it from THREAD_SITES" for site in gone]
    assert not new + stale, "\n".join(new + stale)


def test_thread_site_scan_names_scope_and_line():
    source = "class A:\n    def go(self):\n        SiteThread(None, target=f).start()\n"
    assert _thread_sites(source, "faas/cloud.py") == [("faas/cloud.py::A.go", 3)]
