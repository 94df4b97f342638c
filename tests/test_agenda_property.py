"""Property tests for the simulator agenda (repro.sim.engine).

The kernel's whole contract is an order: events fire in exact ``(time,
seq)`` order, a zero-delay event merges by seq with whatever else is due at
that instant, cancellation suppresses callbacks, and ``run(until=)`` parks
the clock without losing future events.  These tests drive the real
:class:`Simulator` and a deliberately naive reference (one heap of
``(time, seq, handle, callback, args)``, no fast paths, no lazy-cancel
accounting) with the same seeded-random scripts — zero delays, ties on the
same nanosecond, near-future bursts and far-future timers, through every
scheduling entry point — and assert identical callback order.  The same
reference checks the one agenda push that lives outside ``engine.py``
(``Process._resume``'s ``Timeout`` wakeup) and the fabric's delivery order.
"""

import random
from heapq import heappop, heappush

import pytest

from repro.sim import Simulator, Timeout
from repro.sim.engine import SimulationError, _COMPACT_MIN

#: two magnitudes, in ns, the delay mix is drawn around: the few-µs scale of
#: fabric/HCA delays and the ms scale of RNR backoff and watchdog timers
_BUCKET = 4096
_HORIZON = 256 * _BUCKET


class _RefHandle:
    __slots__ = ("cancelled",)

    def __init__(self):
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class RefSim:
    """Binary-heap reference agenda with the kernel's documented semantics.

    Everything — including ``call_soon`` — is one heap ordered by
    ``(time, seq)``; the real kernel's now-FIFO/agenda arbitration is by
    construction equivalent to that single total order.
    """

    def __init__(self):
        self.now = 0
        self.events_executed = 0
        self._seq = 0
        self._q = []

    def schedule(self, delay, callback, *args):
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ns in the past")
        h = _RefHandle()
        self._seq += 1
        heappush(self._q, (self.now + delay, self._seq, h, callback, args))
        return h

    def schedule_at(self, time, callback, *args):
        return self.schedule(time - self.now, callback, *args)

    def call_soon(self, callback, *args):
        self.schedule(0, callback, *args)

    def call_later(self, delay, callback, *args):
        self.schedule(delay, callback, *args)

    def call_at(self, time, callback, *args):
        self.schedule(time - self.now, callback, *args)

    def every(self, interval, callback):
        def tick():
            if callback():
                self.call_later(interval, tick)

        self.call_later(interval, tick)

    def peek(self):
        q = self._q
        while q and q[0][2].cancelled:
            heappop(q)
        return q[0][0] if q else None

    def run(self, until=None):
        q = self._q
        while q:
            t, _seq, h, cb, args = q[0]
            if h.cancelled:
                heappop(q)
                continue
            if until is not None and t > until:
                self.now = until
                return
            heappop(q)
            self.now = t
            self.events_executed += 1
            cb(*args)
        if until is not None and until > self.now:
            self.now = until


def _delay(rng):
    """A delay from the distributions the fabric actually produces, plus
    adversarial cases: zero, same-instant ties, values one apart around
    a power of two, and far-future timers."""
    r = rng.random()
    if r < 0.15:
        return 0
    if r < 0.35:
        return rng.choice((40, 40, 100, 250))  # ties on purpose
    if r < 0.60:
        return rng.randrange(1, 3 * _BUCKET)
    if r < 0.75:
        return rng.choice((_BUCKET - 1, _BUCKET, _BUCKET + 1))
    if r < 0.92:
        return rng.randrange(3 * _BUCKET, _HORIZON)
    return rng.randrange(_HORIZON, 5 * _HORIZON)  # RNR backoff, watchdogs


def _drive(sim, seed):
    """Apply an identical seeded script of operations — every scheduling
    entry point, cancel, ``every``, ``peek()`` and ``run(until=)`` — to
    ``sim``; returns the callback log (``peek`` results included).

    All rng draws happen in callback/op order, which is identical between
    implementations until a divergence — at which point the logs differ
    and the assertion reports it.
    """
    rng = random.Random(seed)
    log = []
    handles = []
    label_counter = [0]

    def make_cb(label, depth):
        def cb():
            log.append((label, sim.now))
            # Nested scheduling from inside a callback, bounded depth.
            if depth < 2 and rng.random() < 0.35:
                for _ in range(rng.randrange(1, 3)):
                    label_counter[0] += 1
                    child = (label, label_counter[0])
                    r = rng.random()
                    if r < 0.3:
                        sim.call_later(_delay(rng), make_cb(child, depth + 1))
                    elif r < 0.5:  # the fabric's path: an absolute arrival
                        sim.call_at(sim.now + _delay(rng), make_cb(child, depth + 1))
                    else:
                        h = sim.schedule(_delay(rng), make_cb(child, depth + 1))
                        handles.append(h)
                        if rng.random() < 0.3:
                            rng.choice(handles).cancel()

        return cb

    def make_periodic(label, fires):
        remaining = [fires]

        def tick():
            log.append((label, sim.now))
            remaining[0] -= 1
            return remaining[0] > 0

        return tick

    for op in range(120):
        r = rng.random()
        if r < 0.40:
            sim.schedule(_delay(rng), make_cb(("s", op), 0))
        elif r < 0.55:
            h = sim.schedule(_delay(rng), make_cb(("h", op), 0))
            handles.append(h)
        elif r < 0.65:
            sim.call_soon(make_cb(("soon", op), 0))
        elif r < 0.70:
            sim.call_later(_delay(rng), make_cb(("later", op), 0))
        elif r < 0.75:
            sim.call_at(sim.now + _delay(rng), make_cb(("at", op), 0))
        elif r < 0.78:
            handles.append(sim.schedule_at(sim.now + _delay(rng), make_cb(("h_at", op), 0)))
        elif r < 0.80:
            log.append(("peek", op, sim.peek()))
        elif r < 0.84 and handles:
            rng.choice(handles).cancel()
        elif r < 0.88:
            sim.every(rng.randrange(1, 2 * _BUCKET), make_periodic(("ev", op), rng.randrange(1, 5)))
        else:
            sim.run(until=sim.now + _delay(rng))
    sim.run()
    return log


@pytest.mark.parametrize("seed", range(25))
def test_agenda_matches_reference_heap(seed):
    real_log = _drive(Simulator(), seed)
    ref_log = _drive(RefSim(), seed)
    assert real_log, f"seed {seed} produced an empty script"
    assert real_log == ref_log


@pytest.mark.parametrize("seed", range(25))
def test_agenda_counts_match_reference(seed):
    real, ref = Simulator(), RefSim()
    _drive(real, seed)
    _drive(ref, seed)
    assert real.events_executed == ref.events_executed
    assert real.now == ref.now


# ----------------------------------------------------------------------
# the one agenda push outside engine.py: Process._resume's Timeout wakeup
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(5))
def test_timeout_processes_match_call_later_chains(seed):
    """K generator processes sleeping through seeded ``Timeout``s (zeros
    and ties included) log the same ``(label, now)`` sequence as the same
    chains written with ``call_later`` on the reference heap."""
    rng = random.Random(seed)
    chains = [[_delay(rng) for _ in range(40)] for _ in range(6)]

    real, real_log = Simulator(), []

    def proc(label, delays):
        for i, delay in enumerate(delays):
            real_log.append(((label, i), real.now))
            yield Timeout(delay)
        real_log.append(((label, len(delays)), real.now))

    for label, delays in enumerate(chains):
        real.spawn(proc(label, delays))
    real.run()

    ref, ref_log = RefSim(), []

    def step(label, i):
        ref_log.append(((label, i), ref.now))
        if i < len(chains[label]):
            ref.call_later(chains[label][i], step, label, i + 1)

    for label in range(len(chains)):
        ref.call_soon(step, label, 0)
    ref.run()

    assert real_log == ref_log
    assert (real.events_executed, real.now) == (ref.events_executed, ref.now)


# ----------------------------------------------------------------------
# the fabric's path: every delivery is one call_at under its own key
# ----------------------------------------------------------------------
def test_fabric_deliveries_to_one_lid_fire_in_arrival_then_transmit_order():
    """An open fault window's extra latency makes an earlier-sent message
    arrive later, or exactly when a later one does: deliveries still fire
    by arrival time, ties in transmit order — data and control alike."""
    from repro.faults.injector import FabricFaultState
    from repro.ib import Fabric, IBConfig
    from repro.sim.trace import Tracer

    sim, delivered, sent = Simulator(), [], []

    def deliver(name):
        delivered.append((sim.now, name))

    class Sink:  # stands in for an HCA
        _deliver = staticmethod(deliver)

    fabric = Fabric(sim, IBConfig())
    for lid in range(3):
        fabric.attach(lid, Sink)
    fault = fabric.fault = FabricFaultState(0, Tracer(enabled=False))

    def send(src, name, extra=0, control=False):
        fault.degrade[src] = [(extra, 0.0)]  # a latency window on src's link
        if control:
            sent.append((fabric.send_control(src, 2, deliver, name), name))
        else:
            sent.append((fabric.transmit(src, 2, 64, name), name))
        del fault.degrade[src]

    send(0, "first")
    ser = fabric._ser_cache[64][1]  # one slot on the destination's link
    send(0, "slow", extra=50 * ser)
    send(1, "fast")
    send(0, "tie-a", extra=ser)  # late by the slot "tie-b" queues behind it
    send(1, "tie-b")
    send(0, "slow-ack", extra=50 * ser, control=True)
    send(1, "fast-ack", control=True)
    send(0, "tie-ack", control=True)
    sim.run()

    arrival = {name: t for t, name in sent}
    assert arrival["fast"] < arrival["slow"] and arrival["fast-ack"] < arrival["slow-ack"]
    assert arrival["tie-a"] == arrival["tie-b"] and arrival["fast-ack"] == arrival["tie-ack"]
    # sorted() is stable, so equal arrivals keep their transmit order
    assert delivered == sorted(sent, key=lambda item: item[0])


# ----------------------------------------------------------------------
# satellite: cancellation accounting under cancel/peek/schedule churn
# ----------------------------------------------------------------------
def test_cancel_peek_schedule_churn_accounting():
    """Interleave cancel/peek/schedule so lazy discards (run loop and
    ``peek``) race the compaction threshold; the cancelled-entry counter
    must stay exact and non-negative throughout."""
    rng = random.Random(1234)
    sim = Simulator()
    fired = []
    live = []
    for round_ in range(40):
        for i in range(3 * _COMPACT_MIN):
            h = sim.schedule(rng.randrange(0, 4 * _BUCKET), fired.append, (round_, i))
            live.append(h)
        rng.shuffle(live)
        # cancel enough to cross the compaction threshold repeatedly
        for _ in range(len(live) * 2 // 3):
            live.pop().cancel()
            assert sim._cancelled_pending >= 0
        sim.peek()  # discards cancelled heads, shares the same accounting
        assert sim._cancelled_pending >= 0
        sim.run(until=sim.now + rng.randrange(0, 2 * _BUCKET))
        assert sim._cancelled_pending >= 0
    sim.run()
    assert sim._cancelled_pending == 0
    assert sim._pending == 0
    # every non-cancelled schedule fired exactly once
    assert len(fired) == sim.events_executed


def test_compaction_is_idempotent():
    sim = Simulator()
    keep = []
    for i in range(200):
        h = sim.schedule(1 + i * 37, keep.append, i)
        if i % 3:
            h.cancel()
    sim._compact()
    state1 = (sim._cancelled_pending, sim._pending)
    sim._compact()  # second pass must be a no-op
    assert (sim._cancelled_pending, sim._pending) == state1
    assert sim._cancelled_pending == 0
    sim.run()
    assert sorted(keep) == [i for i in range(200) if not i % 3]


# ----------------------------------------------------------------------
# satellite: max_events counts exactly what ran, timed or same-instant
# ----------------------------------------------------------------------
def test_max_events_agenda_branch_counts_then_raises():
    sim = Simulator()
    ran = []
    for i in range(10):
        sim.schedule(10 * (i + 1), ran.append, i)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=4)
    # exactly the counted callbacks ran, and nothing was silently dropped
    assert ran == [0, 1, 2, 3]
    assert sim.events_executed == 4
    assert sim._pending == 6
    sim.run()  # the survivors still fire
    assert ran == list(range(10))
    assert sim.events_executed == 10


def test_max_events_zero_delay_chain_counts_then_raises():
    """Regression for a chain of same-instant events: the limit check used
    to pop and count the entry but never run its callback, so the
    post-mortem state lied about what executed."""
    sim = Simulator()
    ran = []

    def chain(i):
        ran.append(i)
        sim.call_soon(chain, i + 1)

    sim.call_soon(chain, 0)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=7)
    assert ran == list(range(7))  # counted == ran, nothing discarded
    assert sim.events_executed == 7
    assert sim._pending == 1  # the would-be-next entry is still queued


def test_max_events_exact_budget_completes():
    sim = Simulator()
    for i in range(5):
        sim.schedule(i + 1, lambda: None)
    sim.run(max_events=5)  # exactly at the limit: no livelock, no raise
    assert sim.events_executed == 5
