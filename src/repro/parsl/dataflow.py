"""A minimal DataFlowKernel: route app invocations to labeled executors.

The fragment of Parsl's programming model the paper's baseline needs: apps
(plain callables) submitted with ``executor=`` routing, futures back, and
optional dependency chaining (a submitted app may receive futures as
arguments; they are awaited before dispatch — the DAG data model of §II-A).
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Callable

from repro.exceptions import WorkflowError
from repro.net.context import SiteThread
from repro.observe import counter_inc
from repro.parsl.executors import HtexExecutor

__all__ = ["DataFlowKernel"]


class DataFlowKernel:
    """Routes tasks across one or more executors and resolves dependencies."""

    def __init__(self, executors: list[HtexExecutor]) -> None:
        if not executors:
            raise WorkflowError("a DataFlowKernel needs at least one executor")
        self._executors = {ex.label: ex for ex in executors}
        if len(self._executors) != len(executors):
            raise WorkflowError("executor labels must be unique")
        self._default = executors[0].label
        self._started = False
        self._lock = threading.Lock()

    def start(self) -> "DataFlowKernel":
        with self._lock:
            if not self._started:
                for ex in self._executors.values():
                    ex.start()
                self._started = True
        return self

    def shutdown(self) -> None:
        with self._lock:
            if self._started:
                for ex in self._executors.values():
                    ex.shutdown()
                self._started = False

    def executor(self, label: str | None = None) -> HtexExecutor:
        label = label or self._default
        try:
            return self._executors[label]
        except KeyError:
            raise WorkflowError(f"no executor labeled {label!r}") from None

    def submit(
        self,
        fn: Callable,
        /,
        *args: object,
        executor: str | None = None,
        **kwargs: object,
    ) -> Future:
        """Submit ``fn`` to the labeled executor.

        Futures among the arguments are dependencies: dispatch happens on a
        helper thread at the executor's controller site after they all
        complete (failures propagate).
        """
        if not self._started:
            raise WorkflowError("DataFlowKernel is not started")
        target = self.executor(executor)
        counter_inc("dfk.submitted", executor=target.label)
        deps = [a for a in args if isinstance(a, Future)]
        deps += [v for v in kwargs.values() if isinstance(v, Future)]
        if not deps:
            return target.submit(fn, *args, **kwargs)

        outer: Future = Future()

        def wait_and_dispatch() -> None:
            try:
                resolved_args = tuple(
                    a.result() if isinstance(a, Future) else a for a in args
                )
                resolved_kwargs = {
                    k: (v.result() if isinstance(v, Future) else v)
                    for k, v in kwargs.items()
                }
            except Exception as exc:
                outer.set_exception(exc)
                return
            inner = target.submit(fn, *resolved_args, **resolved_kwargs)
            inner.add_done_callback(_chain(outer))

        SiteThread(target.controller_site, target=wait_and_dispatch).start()
        return outer

    def __enter__(self) -> "DataFlowKernel":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()


def _chain(outer: Future) -> Callable[[Future], None]:
    def done(inner: Future) -> None:
        error = inner.exception()
        if error is not None:
            outer.set_exception(error)
        else:
            outer.set_result(inner.result())

    return done
