"""repro.batch — adaptive task batching and the event-driven hot path.

Small-task storms are dominated by per-task cloud round trips and the
second serialize/deserialize hop through the payload store (paper Fig. 3).
This package amortizes both:

- :class:`BatchAccumulator` coalesces client submits per (tenant, endpoint)
  under an adaptive flush policy (:class:`BatchPolicy`): flush on batch
  size, on accumulated bytes, or on a hold deadline that *shrinks* under
  light load so a lone task is never parked waiting for company.
- :class:`Reactor` is the single per-process timer wheel that fires flush
  deadlines and endpoint heartbeats, replacing the thread-per-wait sleep
  loops on those paths.
- :class:`Round` is every pipelined hop (store, submit, uplink, download,
  argument hand-off): k members landing at their own offsets, one answer
  at the last, landed by ``wait`` on the caller or ``arm`` on the reactor.

The cloud-side counterparts (`submit_batch`, `report_results`,
`download_round`) live on `FaasCloud`/`CloudRouter`; the zero-copy
payload mode lives in `repro.serialize.borrow`.
"""

from repro.batch.batcher import BatchAccumulator, BatchPolicy
from repro.batch.reactor import Reactor, get_reactor
from repro.batch.round import Round

__all__ = ["BatchAccumulator", "BatchPolicy", "Reactor", "Round", "get_reactor"]
