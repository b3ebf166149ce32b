"""Client SDK for the simulated transfer service.

Separating client from service matters because the *client* pays the
costs the paper measures: each API call is an HTTPS request that rides the
caller-site→cloud link and then waits on the web service's processing
latency (≈500 ms median for submissions, §V-D1).

A caller that must not sleep through a submission passes ``then=`` to
:meth:`TransferClient.submit`: the same charge becomes a timer on the
process reactor and the continuation receives the task id.

:meth:`TransferClient.wait` cancels abandoned tasks on timeout so they stop
holding a slot of the per-user concurrency limit.
"""

from __future__ import annotations

from typing import Callable

from repro.batch.reactor import get_reactor
from repro.exceptions import TransferError
from repro.net.clock import Clock, get_clock
from repro.net.context import current_site
from repro.net.defaults import PaperConstants
from repro.net.topology import LogNormalLatency, Network, Site
from repro.observe import TraceContext, counter_inc, current_context
from repro.transfer.service import (
    TransferItem,
    TransferService,
    TransferStatus,
    TransferTask,
)

__all__ = ["TransferClient"]

# Status polls are lighter-weight GET requests than transfer submissions.
_STATUS_LATENCY = LogNormalLatency(0.12, 0.30, cap=0.8)


class TransferClient:
    """A per-user handle on the transfer service.

    The client is pickleable state-free glue (service handles are looked up
    through the object graph), so it can ride inside proxies' factories.
    """

    def __init__(
        self,
        service: TransferService,
        user: str = "default",
        *,
        site: Site | None = None,
        clock: Clock | None = None,
    ) -> None:
        self._service = service
        self._network: Network = service._network
        self._constants: PaperConstants = service._constants
        self.user = user
        self._site = site
        self._clock = clock or get_clock()

    def _caller_site(self) -> Site:
        return self._site or current_site() or self._service.site

    def _request_cost(self, processing: float) -> float:
        return self._network.rtt(self._caller_site(), self._service.site) + processing

    def _pay_request(self, processing: float) -> None:
        self._clock.sleep(self._request_cost(processing))

    # -- API --------------------------------------------------------------
    def submit(
        self,
        src_endpoint: str,
        dst_endpoint: str,
        items: list[TransferItem] | list[tuple[str, str]],
        *,
        trace_ctx: TraceContext | None = None,
        then: Callable[[str | TransferError], object] | None = None,
    ) -> str | None:
        """Submit a transfer task; returns its id after the HTTPS round trip.

        With ``then`` the round trip is a timer on the process reactor
        instead of a sleep on the calling thread: the call returns at once
        and ``then(task_id)`` — or ``then(error)`` if the service refused the
        task — runs on the reactor thread once the request has landed.  The
        charge is the same, drawn from the calling thread's site.
        ``trace_ctx`` names the span the transfer belongs under when that is
        not the calling thread's (a submission armed on a putter's behalf).
        """
        # Capture the caller's span before the request so the service-side
        # ``globus.transfer`` span lands in the right trace.
        trace_ctx = trace_ctx or current_context()
        cost = self._request_cost(
            self._network._sample(self._constants.globus_request_latency)
        )
        if then is None:
            self._clock.sleep(cost)
            return self._service.submit(
                self.user, src_endpoint, dst_endpoint, items, trace_ctx=trace_ctx
            )

        def land() -> None:
            try:
                outcome: str | TransferError = self._service.submit(
                    self.user, src_endpoint, dst_endpoint, items, trace_ctx=trace_ctx
                )
            except TransferError as exc:
                outcome = exc
            then(outcome)

        get_reactor().call_later(cost, land)
        return None

    def status(self, task_id: str) -> TransferStatus:
        self._pay_request(self._network._sample(_STATUS_LATENCY))
        return self._service.status(task_id).status

    def task(self, task_id: str) -> TransferTask:
        self._pay_request(self._network._sample(_STATUS_LATENCY))
        return self._service.status(task_id)

    def cancel(self, task_id: str) -> bool:
        """Request cancellation of a transfer; returns False if it had
        already reached a terminal state."""
        self._pay_request(self._network._sample(_STATUS_LATENCY))
        return self._service.cancel(task_id)

    def wait(
        self,
        task_id: str,
        timeout: float | None = None,
        *,
        cancel_on_timeout: bool = True,
    ) -> TransferTask:
        """Block (on the task's completion event, then confirm with a status
        call) until the task reaches a terminal state.

        Timeout is in nominal seconds.  Raises :class:`TransferError` if the
        task failed or the wait timed out.  An abandoned (timed-out) task is
        cancelled by default so it stops holding one of the user's
        concurrent-transfer slots.
        """
        task = self._service.status(task_id)
        if not self._clock.wait(task.done_event, timeout):
            if cancel_on_timeout:
                counter_inc("transfer.wait_timeouts", user=self.user)
                self.cancel(task_id)
            raise TransferError(f"timed out waiting for transfer {task_id}")
        # One confirming status poll, like the SDK's task_wait.
        self._pay_request(self._network._sample(_STATUS_LATENCY))
        if task.status is not TransferStatus.SUCCEEDED:
            raise TransferError(
                f"transfer {task_id} failed: {task.error or 'unknown error'}"
            )
        return task
