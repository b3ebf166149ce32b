"""``Round``: k members landing at their own offsets, one answer at the last.

The two drivers must agree: a caller that waits for a round sleeps to each
landing and commits it there, and a round armed on the reactor commits the
same landings at the same offsets, in the same order, with the same answer
-- the reactor just holds no thread meanwhile.  Time is a
:class:`ManualClock`, so every offset is exact.
"""

from __future__ import annotations

import pytest
from conftest import ManualClock, ManualReactor
from hypothesis import given
from hypothesis import strategies as st

from repro.batch import Round


def _round(clock, offsets, raising=(), accepted=(), charges=None):
    """A round whose member ``i`` lands at ``offsets[i]``; each commit logs
    ``(now, members)`` and answers ``"m<i>"`` (``None`` for a member in
    ``accepted``, as an accepted report), or raises when its offset is in
    ``raising``."""
    log: list[tuple[float, list[int]]] = []

    def commit(members):
        log.append((clock.now(), list(members)))
        if offsets[members[0]] in raising:
            raise RuntimeError(f"landing at {offsets[members[0]]} failed")
        return [None if i in accepted else f"m{i}" for i in members]

    answer = [None] * len(offsets)
    charges = charges or [max(offsets, default=0.0)]
    return Round.grouped(answer, charges, offsets, commit), log


def _armed(monkeypatch, build):
    """Arm ``build(clock)``'s round on a manual reactor; ``(answer, log,
    when the answer came)``."""
    clock = ManualClock()
    reactor = ManualReactor(clock)
    monkeypatch.setattr("repro.batch.round.get_reactor", lambda: reactor)
    round_, log = build(clock)
    answered: list = []
    round_.arm(lambda answer: answered.append((clock.now(), answer)))
    assert answered == []  # nothing lands before the reactor runs
    reactor.run()
    ((at, answer),) = answered
    return answer, log, at


def test_wait_commits_each_landing_at_its_offset():
    clock = ManualClock()
    clock.sleep(3.0)
    round_, log = _round(clock, [0.5, 0.2, 0.5, 0.0])
    assert round_.wait(clock) == ["m0", "m1", "m2", "m3"]
    assert log == [(3.0, [3]), (3.2, [1]), (3.5, [0, 2])]
    assert clock.now() - 3.0 == 0.5  # the caller waited for the last landing


def test_arm_commits_each_landing_at_its_offset(monkeypatch):
    answer, log, at = _armed(monkeypatch, lambda clock: _round(clock, [0.5, 0.2, 0.5]))
    assert answer == ["m0", "m1", "m2"]
    assert log == [(0.2, [1]), (0.5, [0, 2])]
    assert at == 0.5


def test_a_round_with_no_landings_still_answers_on_the_reactor(monkeypatch):
    answer, log, at = _armed(monkeypatch, lambda clock: _round(clock, []))
    assert (answer, log, at) == ([], [], 0.0)
    assert Round([], [], []).wait(ManualClock()) == []


@pytest.mark.parametrize("driver", ["wait", "arm"])
def test_a_raising_commit_fails_only_its_own_members(monkeypatch, driver):
    def build(clock):
        return _round(clock, [0.1, 0.6, 0.3, 0.1], raising={0.3}, accepted={0})

    if driver == "wait":
        clock = ManualClock()
        round_, log = build(clock)
        answer = round_.wait(clock)
    else:
        answer, log, _at = _armed(monkeypatch, build)
    # A member answered ``None`` before the failure stays accepted, and the
    # landing after the failure still lands.
    assert [type(outcome) for outcome in answer] == [type(None), str, RuntimeError, str]
    assert [members for _at, members in log] == [[0, 3], [2], [1]]


def test_settled_round_delivers_each_member_at_its_offset():
    clock = ManualClock()
    round_ = Round.settled(["a", "b", ValueError("c")], [0.25, 0.5], [0.25, 0.75, 0.0])
    assert round_.answer[:2] == ["a", "b"]  # decided when planned
    assert round_.offsets() == [0.25, 0.75, 0.0]
    assert [members for _at, members, _commit in round_.landings] == [[2], [0], [1]]
    assert round_.wait(clock)[:2] == ["a", "b"]
    assert clock.now() == 0.75
    assert Round.settled(["x"], [0.5]).offsets() == [0.5]  # at the end by default


def test_join_shifts_each_round_by_the_charges_before_it():
    clock = ManualClock()
    first, first_log = _round(clock, [0.5, 0.2], charges=[0.2, 0.3])
    second, second_log = _round(clock, [0.4], charges=[0.4])
    settled = Round.settled([KeyError("gone")])
    joined = Round.join(
        [ValueError("no shard"), None, None, None, None],
        [([3, 1], first), ([4], second), ([2], settled)],
    )

    assert joined.charges == [0.2, 0.3, 0.4]
    assert [(at, members) for at, members, _ in joined.landings] == [
        (0.2, [1]),
        (0.5, [3]),
        (pytest.approx(0.9), [4]),
        (pytest.approx(0.9), [2]),
    ]
    answer = joined.wait(clock)
    # The caller's member order, whatever order the parts were paid in.
    assert isinstance(answer[0], ValueError)
    assert answer[1:2] + answer[3:] == ["m1", "m0", "m0"]
    assert isinstance(answer[2], KeyError)
    assert first_log == [(0.2, [1]), (0.5, [0])]
    assert second_log == [(pytest.approx(0.9), [0])]


_OFFSETS = st.lists(st.sampled_from([0.0, 0.05, 0.1, 0.25, 0.5, 1.0]), max_size=8)


@given(offsets=_OFFSETS, raising=st.sets(st.sampled_from([0.0, 0.1, 0.5])))
def test_wait_and_arm_land_alike(monkeypatch, offsets, raising):
    clock = ManualClock()
    round_, waited_log = _round(clock, offsets, raising)
    waited = round_.wait(clock)
    armed, armed_log, at = _armed(monkeypatch, lambda c: _round(c, offsets, raising))

    assert [repr(outcome) for outcome in armed] == [repr(outcome) for outcome in waited]
    assert armed_log == waited_log
    assert at == clock.now() == max(offsets, default=0.0)
    assert sorted(i for _at, members in armed_log for i in members) == list(
        range(len(offsets))
    )
