"""The event loop at the heart of the simulator.

The :class:`Simulator` owns **one agenda: a binary heap of plain tuples led
by ``(time, seq)``**.  ``seq`` is a global, monotonically increasing integer
drawn once per scheduling call, so events due at the same nanosecond fire in
scheduling order.  That order is load-bearing: the reproduction relies on
bit-identical replays for its regression tests
(``tests/test_determinism_replay.py``), so the contract of every entry point
is the exact ``(time, seq)`` execution order and the value of
:attr:`Simulator.events_executed` — nothing else about the agenda is
observable, and nothing outside ``repro.sim`` knows its layout.

* **One entry shape.**  Every heap entry is a ``(time, seq, callback,
  args)`` 4-tuple; ``seq`` is unique, so a comparison never reaches past the
  two leading ints.  A cancellable event (``schedule``) is the same tuple
  with its handle's ``_fire`` as the callback, and ``cancel()`` removes it
  from the heap at once — O(n), but only the queue pair's RNR and ACK
  timers are ever cancelled, and only when a QP enters ERROR.
* **Same-instant FIFO.**  A fire-and-forget event due at the current instant
  (``call_soon``, ``call_later(0, ...)``, ``call_at(now, ...)``) skips the
  heap: it is appended to a deque of ``(seq, callback, args)`` that
  :meth:`Simulator.run` merges with the heap by ``seq``, so the order is the
  one a single heap would give (``tests/test_agenda_property.py`` checks it
  against exactly that).  It is here because it was measured: folding it
  into the heap lost 9 of 10 pairs on three ledger workloads (DESIGN §5.1) —
  a same-instant entry climbs to the heap's root on the push and the pop
  sifts the root back down.  Only this module knows it exists; an entry at
  the current instant is just as correct on the heap.
* **``run(max_events=...)``** checks the budget *before* consuming an entry:
  when it raises, every counted event actually ran and the would-be-next
  entry is still on the agenda, so post-mortem state tells the truth.
"""

from __future__ import annotations

import gc
from collections import deque
from contextlib import contextmanager
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Deque, Generator, Iterator, List, Optional


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (e.g. scheduling in the past)."""


def _as_int_ns(value: Any, what: str) -> int:
    """Validate an integral nanosecond quantity.

    Fractional delays indicate a calibration bug upstream and are rejected
    to protect determinism (truncating them silently would let two runs
    diverge depending on float rounding upstream).
    """
    if type(value) is int:
        return value
    if isinstance(value, int):  # bool / IntEnum / numpy-style integrals
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise SimulationError(
        f"non-integral {what} {value!r}: the clock is integer nanoseconds; "
        "round explicitly at the call site (see repro.sim.units)"
    )


@contextmanager
def gc_paused(settle: bool = False) -> Iterator[None]:
    """Pause the cyclic collector for the duration of the block (or, as a
    decorator, of the call), leaving it as it was found — also on error,
    also when it was already off.

    For phases that allocate many long-lived or purely refcounted objects
    and free none the collector could help with: the event loop, and the
    mesh build, where generation-0 passes fire every 700 allocations over
    an ever-growing heap and reclaim nothing.

    ``settle``: the block built long-lived state (a mesh), which the
    collector would walk twice more as it ages — the second time inside
    whatever job runs ten passes later.  If more young objects are left
    than a generation-1 pass ever sees unpaused, one such pass here files
    them with the old generation; a small build keeps to the collector's
    own schedule (its garbage should die young).
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            if settle:
                gen0, gen1, _ = gc.get_threshold()
                if gc.get_count()[0] > gen0 * gen1:
                    gc.collect(1)
            gc.enable()


class ScheduledEvent:
    """A cancellable entry on the simulator agenda.

    Returned by :meth:`Simulator.schedule`; its agenda entry is the plain
    ``(time, seq, self._fire, ())``, and :meth:`cancel` before the event
    fires takes that entry off the agenda.
    """

    __slots__ = ("time", "seq", "callback", "args", "_sim")

    def __init__(self, sim: "Simulator", time: int, seq: int, callback: Callable,
                 args: tuple):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        #: the simulator whose agenda holds the entry; None once it fired
        #: or was cancelled
        self._sim: Optional["Simulator"] = sim

    def _fire(self) -> None:
        self._sim = None
        self.callback(*self.args)

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        sim = self._sim
        if sim is not None:
            self._sim = None
            q = sim._q  # in place: run() holds a binding to the list
            q.remove((self.time, self.seq, self._fire, ()))
            heapify(q)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "" if self._sim is not None else " done"
        return f"<ScheduledEvent t={self.time} seq={self.seq}{state}>"


class Simulator:
    """Deterministic discrete-event simulator with an integer-ns clock.

    Callbacks run in ``(time, seq)`` order, one at a time, each at its own
    :attr:`now`; ``seq`` is the order of the scheduling calls, so ties at
    one instant are first-scheduled-first-run.  :attr:`events_executed`
    counts the callbacks that ran (cancelled entries never count).  The
    agenda is one heap behind a same-instant FIFO (see the module docstring
    for both, the entry shape and the ``max_events`` budget).
    """

    __slots__ = ("now", "_q", "_now_q", "_seq", "_running", "events_executed")

    def __init__(self) -> None:
        self.now: int = 0
        #: the agenda: a heap of (time, seq, callback, args) tuples
        self._q: List[tuple] = []
        #: same-instant FIFO of (seq, callback, args), all due at ``now``
        self._now_q: Deque[tuple] = deque()
        self._seq: int = 0
        self._running = False
        #: number of events executed so far (cancelled events excluded)
        self.events_executed: int = 0

    # ------------------------------------------------------------------
    # scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callable, *args: Any) -> ScheduledEvent:
        """``call_later(delay, ...)`` that returns a cancellable handle.

        The handle's entry always goes on the heap, a zero ``delay``
        included, so :meth:`ScheduledEvent.cancel` finds it there.
        """
        if type(delay) is not int:
            delay = _as_int_ns(delay, "delay")
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ns in the past")
        seq = self._seq = self._seq + 1
        ev = ScheduledEvent(self, self.now + delay, seq, callback, args)
        heappush(self._q, (ev.time, seq, ev._fire, ()))
        return ev

    def call_soon(self, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` at the current instant, after every event
        already scheduled for it."""
        self._seq += 1
        self._now_q.append((self._seq, callback, args))

    def call_later(self, delay: int, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` ``delay`` nanoseconds from now.

        ``delay`` must be a non-negative integer; fractional delays are
        rejected with :class:`SimulationError` to protect determinism.
        """
        if type(delay) is not int:
            delay = _as_int_ns(delay, "delay")
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ns in the past")
        seq = self._seq = self._seq + 1
        if delay == 0:
            self._now_q.append((seq, callback, args))
            return
        heappush(self._q, (self.now + delay, seq, callback, args))

    def call_at(self, time: int, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` at absolute simulated ``time`` (an
        integer; fractional times raise :class:`SimulationError`)."""
        if type(time) is not int:
            time = _as_int_ns(time, "time")
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} (now is {self.now})"
            )
        seq = self._seq = self._seq + 1
        if time == self.now:
            self._now_q.append((seq, callback, args))
            return
        heappush(self._q, (time, seq, callback, args))

    # ------------------------------------------------------------------
    # process management
    # ------------------------------------------------------------------
    def spawn(self, generator: Generator, name: str = "") -> "Process":
        """Start a coroutine process; it takes its first step immediately
        (well: at the current simulated instant, after the current event)."""
        from repro.sim.process import Process

        proc = Process(self, generator, name=name)
        self.call_soon(proc._step, None, None)
        return proc

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    # The event loop churns short-lived objects (events, headers, WCs) that
    # the cyclic collector scans over and over without freeing anything
    # refcounting doesn't already handle; pausing it for the duration is
    # worth ~5% wall time.
    @gc_paused()
    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> None:
        """Execute events until the agenda empties.

        Parameters
        ----------
        until:
            Stop once the clock would pass this absolute time.  The clock is
            left at ``until``, so a time before :attr:`now` is rejected with
            :class:`SimulationError` (the clock never runs backwards).
        max_events:
            Safety valve for tests: abort with :class:`SimulationError`
            after this many events (a livelock detector).  The check runs
            *before* an entry is consumed, so on raise exactly
            ``max_events`` callbacks have run, ``events_executed`` equals
            ``max_events``, and the next-due entry is still on the agenda.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        if until is not None and until < self.now:
            raise SimulationError(f"cannot run until t={until} (now is {self.now})")
        self._running = True
        q = self._q
        now_q = self._now_q
        popleft = now_q.popleft
        # Infinity sentinels keep the per-event checks to one C-level
        # comparison each instead of an ``is not None`` branch plus one.
        limit = max_events if max_events is not None else float("inf")
        stop = until if until is not None else float("inf")
        executed = self.events_executed
        now = self.now  # local mirror; only this loop advances the clock
        try:
            while True:
                # The FIFO's head runs next unless the heap's head is also
                # due now and was scheduled before it (an older seq).  So
                # the FIFO is empty whenever the clock moves or parks.
                if now_q:
                    fe = now_q[0]
                    if not q or (e := q[0])[0] > now or e[1] > fe[0]:
                        if executed >= limit:
                            raise SimulationError(
                                f"exceeded max_events={max_events}; likely livelock"
                            )
                        popleft()
                        executed += 1
                        fe[1](*fe[2])
                        continue
                elif q:
                    e = q[0]
                else:
                    break
                time = e[0]
                if time > stop:
                    break
                if executed >= limit:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; likely livelock"
                    )
                heappop(q)
                self.now = now = time
                executed += 1
                e[2](*e[3])
            if until is not None:
                self.now = until
        finally:
            self.events_executed = executed
            self._running = False

    def every(self, interval_ns: int, callback: Callable[[], bool]) -> None:
        """Run ``callback()`` every ``interval_ns`` until it returns falsy.

        The callback decides its own lifetime: returning a truthy value
        re-arms the timer, returning falsy lets the chain die so the agenda
        can drain (a perpetual periodic event would keep :meth:`run` alive
        forever).  Used by the runtime invariant auditor's progress
        watchdog (``repro.check``), which disarms itself whenever no MPI
        work is pending and is re-armed by the next application send.
        """
        if type(interval_ns) is not int:
            interval_ns = _as_int_ns(interval_ns, "interval")
        if interval_ns <= 0:
            raise SimulationError(f"every() needs a positive interval, got {interval_ns}")

        def tick() -> None:
            if callback():
                self.call_later(interval_ns, tick)

        self.call_later(interval_ns, tick)

    def peek(self) -> Optional[int]:
        """Time of the next event, or ``None`` if idle."""
        if self._now_q:
            return self.now
        return self._q[0][0] if self._q else None

    @property
    def _pending(self) -> int:
        return len(self._now_q) + len(self._q)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator now={self.now} pending={self._pending}>"
