"""Unit tests for the discrete-event kernel (repro.sim.engine)."""

import pytest

from repro.sim import Simulator
from repro.sim.engine import SimulationError


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0


def test_schedule_runs_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(30, order.append, "c")
    sim.schedule(10, order.append, "a")
    sim.schedule(20, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 30


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    order = []
    for i in range(10):
        sim.schedule(5, order.append, i)
    sim.run()
    assert order == list(range(10))


def test_nested_scheduling_from_callback():
    sim = Simulator()
    seen = []

    def outer():
        seen.append(("outer", sim.now))
        sim.schedule(7, inner)

    def inner():
        seen.append(("inner", sim.now))

    sim.schedule(3, outer)
    sim.run()
    assert seen == [("outer", 3), ("inner", 10)]


def test_schedule_zero_delay_fires_at_current_time():
    sim = Simulator()
    times = []
    sim.schedule(5, lambda: sim.schedule(0, lambda: times.append(sim.now)))
    sim.run()
    assert times == [5]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_fractional_delay_rejected():
    # The clock is integer nanoseconds.  A fractional delay means a
    # calibration bug upstream; truncating it silently would let two runs
    # diverge on float rounding, so the kernel must raise instead.
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(2.5, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_at(2.5, lambda: None)
    with pytest.raises(SimulationError):
        sim.call_later(0.25, lambda: None)
    with pytest.raises(SimulationError):
        sim.call_at(0.25, lambda: None)
    assert sim.events_executed == 0 and sim._pending == 0


def test_integral_float_delay_coerced_exactly():
    # Floats that *are* integers (e.g. the result of round()) are accepted
    # and land on the integer clock.
    sim = Simulator()
    fired = []
    sim.schedule(3.0, fired.append, "a")
    sim.schedule_at(5.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b"]
    assert sim.now == 5 and type(sim.now) is int


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(100, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(50, lambda: None)


def test_cancel_prevents_callback():
    sim = Simulator()
    fired = []
    ev = sim.schedule(10, fired.append, "x")
    ev.cancel()
    sim.run()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    ev = sim.schedule(10, lambda: None)
    ev.cancel()
    ev.cancel()
    sim.run()


def test_run_until_stops_clock_at_until():
    sim = Simulator()
    fired = []
    sim.schedule(10, fired.append, "early")
    sim.schedule(100, fired.append, "late")
    sim.run(until=50)
    assert fired == ["early"]
    assert sim.now == 50
    sim.run()
    assert fired == ["early", "late"]
    assert sim.now == 100


def test_run_until_with_empty_agenda_advances_clock():
    sim = Simulator()
    sim.run(until=1234)
    assert sim.now == 1234


def test_run_until_in_the_past_rejected():
    # The clock never runs backwards: parking it before ``now`` would let a
    # pending event fire "after" a clock that read an earlier time.
    sim = Simulator()
    fired = []
    sim.schedule(100, fired.append, "a")
    sim.run()
    sim.schedule(50, fired.append, "b")
    with pytest.raises(SimulationError):
        sim.run(until=20)
    assert sim.now == 100 and fired == ["a"]  # rejected before anything ran
    sim.run(until=100)  # the current instant is not the past
    sim.run()
    assert sim.now == 150 and fired == ["a", "b"]


def test_max_events_livelock_detector():
    sim = Simulator()

    def forever():
        sim.schedule(1, forever)

    sim.schedule(0, forever)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=100)


def test_peek_skips_cancelled():
    sim = Simulator()
    ev = sim.schedule(5, lambda: None)
    sim.schedule(9, lambda: None)
    ev.cancel()
    assert sim.peek() == 9


def test_peek_empty_returns_none():
    sim = Simulator()
    assert sim.peek() is None


def test_events_executed_counts_only_real_events():
    sim = Simulator()
    ev = sim.schedule(1, lambda: None)
    sim.schedule(2, lambda: None)
    ev.cancel()
    sim.run()
    assert sim.events_executed == 1
