import threading

import pytest

from tracing import UNATTRIBUTED, BoundaryRecorder, LayerProfiler, self_times


def span(id, start, end, parent=None):
    return {"id": id, "start": start, "end": end, "parent": parent}


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, "root"),
        span("b", 3.0, 6.0, "root"),  # overlaps a: 3..4 counted once
        span("c", 9.0, 12.0, "root"),  # runs past the parent: clipped to 9..10
        span("a1", 1.5, 2.0, "a"),
        span("other", 0.0, 10.0),  # no parent link: covers nothing of root
    ]
    own = self_times(spans)
    assert own["root"] == pytest.approx(10.0 - (3.0 + 2.0 + 1.0))
    assert own["a"] == pytest.approx(3.0 - 0.5)
    assert own["b"] == pytest.approx(3.0)
    assert own["a1"] == pytest.approx(0.5)
    assert own["other"] == pytest.approx(10.0)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def sleep(self, nominal_seconds):
        self.t += nominal_seconds


class Outer:
    def __init__(self, clock, inner):
        self.clock, self.inner = clock, inner

    def call(self):
        self.clock.sleep(1.0)
        self.inner.call()
        self.clock.sleep(0.5)

    def loop(self):
        self.clock.sleep(4.0)
        self.inner.call()

    def later(self, delay, fn):
        return delay


class Inner:
    def __init__(self, clock):
        self.clock = clock

    def call(self):
        self.clock.sleep(2.0)


@pytest.fixture
def rig():
    clock = FakeClock()
    recorder = BoundaryRecorder(lambda: clock.t, lambda: "sys-span")
    recorder.wrap(Outer, "call", "outer", "Outer.call")
    recorder.wrap(Outer, "loop", "outer", "Outer.loop", "root")
    recorder.wrap(Outer, "later", "outer", "Outer.later", "hold")
    recorder.wrap(Inner, "call", "inner", "Inner.call")
    recorder.wrap_sleep(FakeClock)
    yield clock, recorder
    recorder.uninstall()


def test_charges_go_to_the_innermost_boundary(rig):
    clock, recorder = rig
    Outer(clock, Inner(clock)).call()
    clock.sleep(7.0)  # no boundary active
    totals = recorder.totals()
    assert totals["charged"] == {"outer": 1.5, "inner": 2.0, UNATTRIBUTED: 7.0}
    assert totals["calls"] == {"outer": 1, "inner": 1}
    assert totals["names"] == {"Outer.call": 1, "Inner.call": 1}


def test_spans_record_nesting_thread_and_system_parent(rig):
    clock, recorder = rig
    Outer(clock, Inner(clock)).call()
    inner, outer = sorted(recorder.spans(), key=lambda s: s["name"])
    assert (outer["start"], outer["end"]) == (0.0, 3.5)
    assert (inner["start"], inner["end"]) == (1.0, 3.0)
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert outer["thread"] == threading.current_thread().name
    assert inner["trace_parent"] == "sys-span"
    assert self_times(recorder.spans())[outer["id"]] == pytest.approx(1.5)


def test_root_boundary_gives_a_default_layer_but_no_span(rig):
    clock, recorder = rig
    Outer(clock, Inner(clock)).loop()
    totals = recorder.totals()
    assert totals["charged"] == {"outer": 4.0, "inner": 2.0}
    assert totals["calls"] == {"inner": 1}
    assert [s["name"] for s in recorder.spans()] == ["Inner.call"]
    assert recorder.spans()[0]["parent"] is None


def test_hold_boundary_charges_its_requested_delay(rig):
    clock, recorder = rig
    Outer(clock, Inner(clock)).later(0.25, None)
    assert recorder.totals()["charged"] == {"outer": 0.25}


def test_caller_layer_overrides_the_boundary_for_user_compute():
    clock = FakeClock()
    recorder = BoundaryRecorder(lambda: clock.t)
    recorder.wrap(Inner, "call", "inner", "Inner.call")
    recorder.wrap_sleep(FakeClock, lambda filename: "apps" if filename == __file__ else None)
    try:
        Inner(clock).call()  # Inner.call lives in this file: user compute
    finally:
        recorder.uninstall()
    assert recorder.totals()["charged"] == {"apps": 2.0}


def test_uninstall_restores_the_originals():
    clock = FakeClock()
    before = (Inner.call, FakeClock.sleep)
    recorder = BoundaryRecorder(lambda: clock.t)
    recorder.wrap(Inner, "call", "inner", "Inner.call")
    recorder.wrap_sleep(FakeClock)
    assert (Inner.call, FakeClock.sleep) != before
    recorder.uninstall()
    assert (Inner.call, FakeClock.sleep) == before


def test_threads_keep_separate_stacks(rig):
    clock, recorder = rig
    inner = Inner(clock)
    threads = [threading.Thread(target=inner.call) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    totals = recorder.totals()
    assert totals["calls"] == {"inner": 4}
    assert totals["charged"] == {"inner": 8.0}
    assert len({s["id"] for s in recorder.spans()}) == 4


def _leaf():
    return sum(range(50))


def _branch():
    return _leaf() + _leaf()


def test_profiler_buckets_calls_and_cpu_by_layer():
    profiler = LayerProfiler(lambda filename: "toy" if filename == __file__ else None)
    result = []

    def work():
        result.append(_branch())

    profiler.install()
    try:
        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=10)
    finally:
        profiler.uninstall()
    assert not thread.is_alive() and result
    totals = profiler.totals()
    assert set(totals["calls"]) == {"toy"}
    assert totals["calls"]["toy"] == 4  # work, _branch, _leaf x2 (stdlib frames dropped)
    assert totals["self_s"]["toy"] >= 0.0
