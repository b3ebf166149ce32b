"""One pipelined round: k members, each landing at its own offset, one
answer at the last.

Every batched hop has this shape -- a store round, a submit, an uplink, a
download, an endpoint's argument hand-off -- and lands through one of two
drivers: :meth:`Round.wait` sleeps the calling thread to each landing,
:meth:`Round.arm` puts one reactor timer per landing and holds no thread.
"""

from __future__ import annotations

import functools
from typing import Callable

from repro.batch.reactor import get_reactor

__all__ = ["Round"]


class Round:
    """``answer`` holds one outcome per member, ``charges`` the per-tier
    costs in the order they are paid, and ``landings`` ascending
    ``(offset, members, commit)``: ``commit()`` lands ``members`` (answer
    indexes) and returns their outcomes.

    Every member is answered by exactly one landing, or was settled in
    ``answer`` when the round was planned (a refusal; a read, decided then
    and delivered at its landing).  A round a caller pays lands last at
    ``sum(charges)``.  A commit that raises fails only its own members."""

    __slots__ = ("answer", "charges", "landings")

    def __init__(self, answer: list, charges: list[float], landings: list[tuple]):
        self.answer, self.charges, self.landings = answer, charges, landings

    @classmethod
    def grouped(cls, answer, charges, offsets, commit) -> "Round":
        """Member ``i`` lands at ``offsets[i]``; members landing together
        share one landing, ``commit(members)``."""
        groups: dict[float, list[int]] = {}
        for i, at in enumerate(offsets):
            group = groups.get(at)
            if group is None:
                groups[at] = [i]
            else:
                group.append(i)
        landings = []
        for at in sorted(groups):
            landings.append((at, groups[at], functools.partial(commit, groups[at])))
        return cls(answer, charges, landings)

    @classmethod
    def settled(cls, answer: list, charges=(), offsets=None) -> "Round":
        """Outcomes decided now, delivered at ``offsets`` (by default all
        when the charges have passed)."""
        charges = list(charges)
        offsets = [sum(charges)] * len(answer) if offsets is None else offsets
        return cls.grouped(
            answer, charges, offsets, lambda members: [answer[i] for i in members]
        )

    @classmethod
    def join(cls, answer: list, parts) -> "Round":
        """``(indexes, round)`` parts paid one after another, as one round
        over ``answer``: a part's member ``m`` is ``answer[indexes[m]]``, and
        its landings start where the parts before it ended."""
        charges: list[float] = []
        landings: list[tuple] = []
        for indexes, part in parts:
            started = sum(charges)
            for i, outcome in zip(indexes, part.answer):
                answer[i] = outcome
            landings += [
                (started + at, [indexes[m] for m in members], commit)
                for at, members, commit in part.landings
            ]
            charges += part.charges
        return cls(answer, charges, landings)

    def offsets(self) -> list[float]:
        """When each member lands."""
        at = [0.0] * len(self.answer)
        for offset, members, _commit in self.landings:
            for i in members:
                at[i] = offset
        return at

    def _land(self, members: list[int], commit: Callable[[], list]) -> None:
        try:
            outcomes = commit()
        except Exception as exc:  # noqa: BLE001 - fails this landing alone
            outcomes = [exc] * len(members)
        for i, outcome in zip(members, outcomes):
            self.answer[i] = outcome

    def wait(self, clock) -> list:
        """Sleep the calling thread to each landing, land it, and return
        the answer after the last."""
        paid = 0.0
        for at, members, commit in self.landings:
            if at > paid:
                clock.sleep(at - paid)
                paid = at
            self._land(members, commit)
        return self.answer

    def arm(self, then: Callable[[list], object]) -> None:
        """Land each landing from its own reactor timer, due at its offset
        from now and armed by the one before, then ``then(answer)`` on the
        reactor; returns at once."""
        reactor = get_reactor()
        pending = list(reversed(self.landings)) or [(0.0, [], lambda: [])]
        step = functools.partial(self._step, reactor, reactor.now(), pending, then)
        reactor.call_later(pending[-1][0], step)

    def _step(self, reactor, started: float, pending: list, then) -> None:
        # A bound method, not a closure that re-arms itself: no reference
        # cycle keeps a landed round (and its payloads) alive until the GC.
        _at, members, commit = pending.pop()
        self._land(members, commit)
        if not pending:
            then(self.answer)
            return
        step = functools.partial(self._step, reactor, started, pending, then)
        reactor.call_later(started + pending[-1][0] - reactor.now(), step)
