"""Execution-placement context: *where* is the current thread running?

Every component in the simulator (thinker, task server, endpoint, worker,
cloud service) is pinned to a site in the topology.  Latency for a network
operation is a function of (caller site, callee site), so code that issues
network calls needs to know the site of its calling thread.

``threading.local`` does not inherit across threads and ``contextvars`` only
propagate through explicit copies, so components that spawn threads use
:class:`SiteThread` (or call :func:`set_current_site` first thing in their
``run``) to pin placement explicitly.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.topology import Site

__all__ = [
    "current_site",
    "set_current_site",
    "require_current_site",
    "at_site",
    "SiteThread",
]

_tls = threading.local()


def current_site() -> "Site | None":
    """The site the calling thread is pinned to, or ``None`` if unpinned."""
    return getattr(_tls, "site", None)


def set_current_site(site: "Site | None") -> None:
    """Pin the calling thread to ``site`` (or unpin with ``None``)."""
    _tls.site = site


def require_current_site() -> "Site":
    """Like :func:`current_site` but raising if the thread is unpinned."""
    site = current_site()
    if site is None:
        raise RuntimeError(
            "this operation needs a placement: run inside `at_site(...)`, a "
            "SiteThread, or call set_current_site() first"
        )
    return site


@contextmanager
def at_site(site: "Site") -> Iterator["Site"]:
    """Temporarily pin the calling thread to ``site``."""
    previous = current_site()
    set_current_site(site)
    try:
        yield site
    finally:
        set_current_site(previous)


class SiteThread(threading.Thread):
    """A thread pinned to a site for its whole lifetime.

    The target runs with :func:`current_site` returning ``site``, so any
    network client used inside automatically pays the right latencies.
    ``site=None`` is an unpinned thread.  Every thread the library starts
    is a ``SiteThread``: this class is the one spawn point.
    """

    def __init__(
        self,
        site: "Site | None",
        target: Callable[..., object] | None = None,
        name: str | None = None,
        args: tuple = (),
        kwargs: dict | None = None,
        daemon: bool = True,
    ) -> None:
        super().__init__(
            target=target, name=name, args=args, kwargs=kwargs or {}, daemon=daemon
        )
        self.site = site

    def run(self) -> None:  # noqa: D102 - inherits Thread.run contract
        set_current_site(self.site)
        super().run()
