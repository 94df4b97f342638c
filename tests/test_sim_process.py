"""Unit tests for coroutine processes and waitables (repro.sim)."""

import pytest

from repro.sim import TIMEOUTS, AllOf, AnyOf, Signal, Simulator, Timeout
from repro.sim.engine import SimulationError
from repro.sim.process import ProcessFailed


def test_timeout_advances_clock():
    sim = Simulator()

    def prog():
        yield Timeout(100)
        return sim.now

    p = sim.spawn(prog())
    sim.run()
    assert p.result == 100
    assert not p.alive


def test_sequential_timeouts_accumulate():
    sim = Simulator()
    marks = []

    def prog():
        for _ in range(3):
            yield Timeout(10)
            marks.append(sim.now)

    sim.spawn(prog())
    sim.run()
    assert marks == [10, 20, 30]


def test_yield_from_subroutine():
    sim = Simulator()

    def sub(n):
        yield Timeout(n)
        return n * 2

    def prog():
        a = yield from sub(5)
        b = yield from sub(7)
        return a + b

    p = sim.spawn(prog())
    sim.run()
    assert p.result == 24
    assert sim.now == 12


def test_signal_wakes_waiter_with_value():
    sim = Simulator()

    sig = Signal("test")

    def waiter():
        value = yield sig
        return value

    def firer():
        yield Timeout(50)
        sig.fire(sim, "payload")

    w = sim.spawn(waiter())
    sim.spawn(firer())
    sim.run()
    assert w.result == "payload"
    assert sim.now == 50


def test_signal_already_fired_resumes_immediately():
    sim = Simulator()
    sig = Signal()
    sig.fire(sim, 42)

    def waiter():
        value = yield sig
        return (sim.now, value)

    def prog():
        yield Timeout(10)
        w = sim.spawn(waiter())
        result = yield w
        return result

    p = sim.spawn(prog())
    sim.run()
    assert p.result == (10, 42)


def test_signal_broadcast_to_many_waiters():
    sim = Simulator()
    sig = Signal()
    results = []

    def waiter(i):
        value = yield sig
        results.append((i, value))

    for i in range(5):
        sim.spawn(waiter(i))
    sim.schedule(9, sig.fire, sim, "go")
    sim.run()
    assert results == [(i, "go") for i in range(5)]


def test_signal_double_fire_rejected():
    sim = Simulator()
    sig = Signal()
    sig.fire(sim)
    with pytest.raises(RuntimeError):
        sig.fire(sim)


def test_signal_fail_raises_in_waiter():
    sim = Simulator()
    sig = Signal()

    class Boom(Exception):
        pass

    def waiter():
        try:
            yield sig
        except Boom:
            return "caught"

    w = sim.spawn(waiter())
    sim.schedule(5, sig.fail, sim, Boom())
    sim.run()
    assert w.result == "caught"


def test_join_returns_child_result():
    sim = Simulator()

    def child():
        yield Timeout(30)
        return "done"

    def parent():
        c = sim.spawn(child())
        result = yield c
        return (sim.now, result)

    p = sim.spawn(parent())
    sim.run()
    assert p.result == (30, "done")


def test_join_already_finished_child():
    sim = Simulator()

    def child():
        yield Timeout(1)
        return 7

    c = sim.spawn(child())

    def parent():
        yield Timeout(100)
        result = yield c
        return result

    p = sim.spawn(parent())
    sim.run()
    assert p.result == 7


def test_child_failure_propagates_to_joiner():
    sim = Simulator()

    def child():
        yield Timeout(1)
        raise ValueError("child blew up")

    def parent():
        c = sim.spawn(child())
        with pytest.raises(ProcessFailed):
            yield c
        return "survived"

    p = sim.spawn(parent())
    sim.run()
    assert p.result == "survived"


def test_unjoined_failure_surfaces_from_run():
    sim = Simulator()

    def child():
        yield Timeout(1)
        raise ValueError("unobserved")

    sim.spawn(child())
    with pytest.raises(ValueError, match="unobserved"):
        sim.run()


def test_yield_non_waitable_is_an_error():
    sim = Simulator()

    def bad():
        yield 42

    sim.spawn(bad())
    with pytest.raises(TypeError, match="non-waitable"):
        sim.run()


def test_kill_terminates_process():
    sim = Simulator()
    progressed = []

    def victim():
        yield Timeout(10)
        progressed.append(1)
        yield Timeout(10)
        progressed.append(2)

    v = sim.spawn(victim())
    sim.schedule(15, v.kill)
    sim.run()
    assert progressed == [1]
    assert not v.alive


def test_kill_can_be_caught_for_cleanup():
    sim = Simulator()
    cleaned = []

    def victim():
        try:
            yield Timeout(1000)
        finally:
            cleaned.append(True)

    v = sim.spawn(victim())
    sim.schedule(5, v.kill)
    sim.run()
    assert cleaned == [True]


def test_allof_waits_for_every_signal():
    sim = Simulator()
    sigs = [Signal(str(i)) for i in range(3)]

    def waiter():
        values = yield AllOf(sigs)
        return (sim.now, values)

    w = sim.spawn(waiter())
    sim.schedule(10, sigs[1].fire, sim, "b")
    sim.schedule(20, sigs[0].fire, sim, "a")
    sim.schedule(30, sigs[2].fire, sim, "c")
    sim.run()
    assert w.result == (30, ["a", "b", "c"])


def test_allof_all_already_fired():
    sim = Simulator()
    sigs = [Signal(), Signal()]
    sigs[0].fire(sim, 1)
    sigs[1].fire(sim, 2)

    def waiter():
        values = yield AllOf(sigs)
        return values

    w = sim.spawn(waiter())
    sim.run()
    assert w.result == [1, 2]


def test_anyof_returns_first_to_fire():
    sim = Simulator()
    sigs = [Signal(), Signal(), Signal()]

    def waiter():
        idx, value = yield AnyOf(sigs)
        return (sim.now, idx, value)

    w = sim.spawn(waiter())
    sim.schedule(25, sigs[2].fire, sim, "late2")
    sim.schedule(15, sigs[1].fire, sim, "first")
    sim.run()
    assert w.result == (15, 1, "first")


def test_on_exit_callback_runs():
    sim = Simulator()
    seen = []

    def prog():
        yield Timeout(10)
        return "r"

    p = sim.spawn(prog())
    p.on_exit(lambda proc: seen.append(proc.result))
    sim.run()
    assert seen == ["r"]


def test_determinism_two_identical_runs():
    def build():
        sim = Simulator()
        log = []

        def worker(i, delays):
            for d in delays:
                yield Timeout(d)
                log.append((sim.now, i))

        for i in range(4):
            sim.spawn(worker(i, [3, 5, 7, 2]))
        sim.run()
        return log

    assert build() == build()


# ----------------------------------------------------------------------
# Timeout follows the kernel's delay rule; TIMEOUTS shares the instances
# ----------------------------------------------------------------------
def test_timeout_rejects_a_fractional_delay_like_call_later():
    sim = Simulator()
    with pytest.raises(SimulationError, match="non-integral delay 1.9"):
        Timeout(1.9)
    with pytest.raises(SimulationError, match="non-integral delay 1.9"):
        sim.call_later(1.9, lambda: None)


def test_timeout_accepts_integral_floats_and_bools_as_ints():
    for given, delay in ((2.0, 2), (True, 1), (7, 7)):
        t = Timeout(given)
        assert t.delay == delay and type(t.delay) is int


def test_timeout_negative_delay_is_still_a_value_error():
    with pytest.raises(ValueError, match="negative timeout"):
        Timeout(-1)
    with pytest.raises(ValueError, match="negative timeout"):
        TIMEOUTS[-1]


def test_timeouts_table_shares_one_instance_per_delay():
    t = TIMEOUTS[123_457]
    assert type(t) is Timeout and t.delay == 123_457
    assert TIMEOUTS[123_457] is t
    assert TIMEOUTS[123_457.0] is t  # keyed by the validated int
    assert sum(1 for key in TIMEOUTS if key == 123_457) == 1
    with pytest.raises(SimulationError):
        TIMEOUTS[0.5]
    assert 0.5 not in TIMEOUTS


def test_timeouts_table_is_bounded():
    base = 10**12  # delays nothing else asks for
    for i in range(TIMEOUTS.MAX + 10):
        TIMEOUTS[base + i]
        assert len(TIMEOUTS) <= TIMEOUTS.MAX
    # starting over never invalidates an instance somebody still holds
    held = TIMEOUTS[base]
    for i in range(TIMEOUTS.MAX + 10):
        TIMEOUTS[base + i]
    assert held.delay == base and TIMEOUTS[base].delay == base


def test_shared_zero_timeout_requeues_at_the_current_instant():
    sim = Simulator()
    log = []

    def yielder():
        for _ in range(2):
            yield TIMEOUTS[0]
            log.append(("yielder", sim.now))

    def other():
        log.append(("other", sim.now))
        yield TIMEOUTS[0]

    sim.spawn(yielder())
    sim.spawn(other())
    sim.run()
    # each zero-delay yield lets the other process in, and no time passes
    assert log == [("other", 0), ("yielder", 0), ("yielder", 0)]
    assert sim.now == 0


def test_one_shared_timeout_serves_many_processes():
    sim = Simulator()
    done = []

    def worker(i):
        yield TIMEOUTS[40]
        yield TIMEOUTS[40]
        done.append((i, sim.now))

    for i in range(3):
        sim.spawn(worker(i))
    sim.run()
    assert done == [(0, 80), (1, 80), (2, 80)]
