"""The event loop at the heart of the simulator.

The :class:`Simulator` owns a **calendar-queue agenda** plus a same-instant
FIFO.  Agenda entries are plain tuples led by ``(time, seq)``; ``seq`` is a
global monotonically increasing integer so that events scheduled for the
same nanosecond fire in scheduling order.  This determinism is load-bearing:
the whole reproduction relies on bit-identical replays for its regression
tests (see ``tests/test_determinism_replay.py``), so every fast path below
must preserve the exact ``(time, seq)`` execution order and the value of
:attr:`Simulator.events_executed`.

Calendar-queue layout (kernel v3)
---------------------------------
The agenda is a ring of ``_NBUCKETS`` buckets, each covering a
``2**_SHIFT`` ns *epoch* of the integer clock (``epoch = time >> _SHIFT``).
An entry whose epoch falls inside the ring window ``[_cur, _cur +
_NBUCKETS)`` is **appended unsorted** to its bucket — O(1), no heap
sift — and the bucket is sorted once (C timsort over tuples) when its epoch
becomes *active*.  Entries beyond the window (ACK timeouts, RNR backoff,
watchdog timers — the far-future tail) go to a small binary-heap overflow
tier and migrate into their bucket when the ring reaches their epoch.

The active bucket is consumed through an index (:attr:`_head`) rather than
popped, so draining it is O(1) per event with no memmove.  A push landing in
the active epoch (or, after ``run(until=...)`` parked the clock mid-epoch,
an earlier one) is insorted into the active bucket's un-consumed suffix —
rare, and the bucket only ever holds the few entries of one ~4 µs window.
The near-future-heavy schedule distribution our fabric produces (HCA
pipeline delays, serialisation times, progress-engine polls — almost all
within a few µs) makes schedule/pop O(1) amortised, versus O(log n) heap
sifts over an agenda that grows with rank count.

Hot-path design notes
---------------------
* Agenda entries are plain tuples ordered by their leading ``(time, seq)``
  ints at C speed; ``seq`` is unique, so later elements never take part in
  a comparison — which permits *mixed* entry shapes: fire-and-forget
  events are raw ``(time, seq, callback, args)`` 4-tuples (no event object
  at all), cancellable handles are ``(time, seq, ScheduledEvent)``
  3-tuples, distinguished at dispatch by ``len``.
* Zero-delay events land on a deque (``call_soon``) instead of the agenda —
  the dominant self-scheduling pattern of the progress engine costs O(1).
* Cancelled agenda entries are discarded lazily; when they outnumber live
  ones the whole agenda is compacted in one pass (see :meth:`_compact`),
  which recomputes the cancellation counter exactly — it is therefore
  idempotent and the counter can never go negative (each cancelled entry
  is physically discarded exactly once, by the run loop, ``peek``, or the
  compaction itself).
* ``run(max_events=...)`` checks the budget *before* consuming an entry:
  when it raises, every counted event actually ran and the would-be-next
  entry is still on the agenda, so post-mortem state tells the truth.
"""

from __future__ import annotations

import gc
from bisect import insort
from collections import deque
from contextlib import contextmanager
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Deque, Generator, Iterator, List, Optional

from repro.sim.trace import Tracer


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
def gc_paused() -> Iterator[None]:
    """Pause the cyclic collector for the duration of the block (or, as a
    decorator, of the call), leaving it as it was found — also on error,
    also when it was already off.

    For phases that allocate many long-lived or purely refcounted objects
    and free none the collector could help with: the event loop, and the
    mesh build, where generation-0 passes fire every 700 allocations over
    an ever-growing heap and reclaim nothing.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class ScheduledEvent:
    """A cancellable entry on the simulator agenda.

    Instances are returned by :meth:`Simulator.schedule`; calling
    :meth:`cancel` before the event fires removes its effect (the agenda
    entry is lazily discarded).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_sim")

    def __init__(self, time: int, seq: int, callback: Callable, args: tuple):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: back-ref for cancellation accounting; cleared once discarded
        self._sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            sim = self._sim
            if sim is not None:
                sim._note_cancel()

    def __lt__(self, other: "ScheduledEvent") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        return f"<ScheduledEvent t={self.time} seq={self.seq}{state}>"


#: log2 of the bucket width: 4096 ns epochs.  Almost every fabric/HCA delay
#: (serialisation, pipeline, polls) is well under one epoch, so pushes are
#: plain appends into the first few ring slots.
_SHIFT = 12

#: ring size (power of two).  Window = 256 * 4096 ns ≈ 1.05 ms, which keeps
#: RNR base timers (~320 µs) in-ring; only long backoff/watchdog timers hit
#: the overflow heap.
_NBUCKETS = 256
_MASK = _NBUCKETS - 1

#: compact the agenda once at least this many cancelled entries accumulate
#: *and* they outnumber the live ones
_COMPACT_MIN = 64


class Simulator:
    """Deterministic discrete-event simulator with an integer-ns clock.

    Parameters
    ----------
    tracer:
        Optional :class:`~repro.sim.trace.Tracer` receiving kernel events.
        When omitted a no-op tracer is used (the hot path stays cheap).
    """

    __slots__ = (
        "now",
        "_buckets",
        "_cur",
        "_limit",
        "_active",
        "_head",
        "_count",
        "_over",
        "_now_q",
        "_seq",
        "_running",
        "_cancelled_pending",
        "tracer",
        "events_executed",
    )

    def __init__(self, tracer: Optional[Tracer] = None):
        self.now: int = 0
        # --- calendar-queue agenda (see module docstring) ---
        self._buckets: List[List[tuple]] = [[] for _ in range(_NBUCKETS)]
        self._cur: int = 0  # epoch of the active bucket
        self._limit: int = _NBUCKETS  # first epoch beyond the ring window
        self._active: List[tuple] = self._buckets[0]  # == _buckets[_cur & _MASK]
        self._head: int = 0  # consume index into the active bucket
        self._count: int = 0  # un-consumed entries across all ring buckets
        self._over: List[tuple] = []  # far-future overflow (binary heap)
        self._now_q: Deque[tuple] = deque()  # FIFO of (seq, callback, args) at t == now
        self._seq: int = 0
        self._running = False
        self._cancelled_pending = 0  # cancelled entries still on the agenda
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        #: number of events executed so far (cancelled events excluded)
        self.events_executed: int = 0

    # ------------------------------------------------------------------
    # scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callable, *args: Any) -> ScheduledEvent:
        """Run ``callback(*args)`` ``delay`` nanoseconds from now.

        ``delay`` must be a non-negative integer; fractional delays are
        rejected with :class:`SimulationError` to protect determinism.
        Returns a cancellable handle.
        """
        if type(delay) is not int:
            delay = _as_int_ns(delay, "delay")
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ns in the past")
        return self._push_handle(self.now + delay, callback, args)

    def schedule_at(self, time: int, callback: Callable, *args: Any) -> ScheduledEvent:
        """Run ``callback(*args)`` at absolute simulated ``time`` (an
        integer; fractional times raise :class:`SimulationError`)."""
        if type(time) is not int:
            time = _as_int_ns(time, "time")
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} (now is {self.now})"
            )
        return self._push_handle(time, callback, args)

    def _push_handle(self, time: int, callback: Callable, args: tuple) -> ScheduledEvent:
        seq = self._seq = self._seq + 1
        ev = ScheduledEvent(time, seq, callback, args)
        ev._sim = self
        self._insert(time, (time, seq, ev))
        return ev

    def _insert(self, time: int, entry: tuple) -> None:
        """Place ``entry`` (led by ``(time, seq)``) on the agenda.

        Hot call sites (``call_later``, the Timeout resume in process.py,
        the fabric delivery trains) open-code this body; keep them in sync.
        """
        idx = time >> _SHIFT
        if idx <= self._cur:
            # Active epoch — or, after run(until=) parked the clock
            # mid-epoch, an earlier one; either way the active bucket is
            # the front of the agenda and full-key insort keeps it ordered.
            insort(self._active, entry, self._head)
            self._count += 1
        elif idx < self._limit:
            self._buckets[idx & _MASK].append(entry)
            self._count += 1
        else:
            heappush(self._over, entry)

    # --- fire-and-forget fast paths -----------------------------------
    def call_soon(self, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` at the current instant, after every event
        already scheduled for it.  Equivalent to ``schedule(0, ...)`` minus
        the cancellation handle and the agenda traffic."""
        self._seq += 1
        self._now_q.append((self._seq, callback, args))

    def call_later(self, delay: int, callback: Callable, *args: Any) -> None:
        """``schedule(delay, ...)`` without a cancellation handle; the entry
        is a bare 4-tuple, no event object at all.  (The insert is
        open-coded — this is the single hottest scheduling entry point,
        fed by every ``Timeout`` yield.)"""
        if type(delay) is not int:
            delay = _as_int_ns(delay, "delay")
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} ns in the past")
        seq = self._seq = self._seq + 1
        if delay == 0:
            self._now_q.append((seq, callback, args))
            return
        time = self.now + delay
        idx = time >> _SHIFT
        if idx <= self._cur:
            insort(self._active, (time, seq, callback, args), self._head)
            self._count += 1
        elif idx < self._limit:
            self._buckets[idx & _MASK].append((time, seq, callback, args))
            self._count += 1
        else:
            heappush(self._over, (time, seq, callback, args))

    def call_at(self, time: int, callback: Callable, *args: Any) -> None:
        """``schedule_at(time, ...)`` without a cancellation handle."""
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
        idx = time >> _SHIFT
        if idx <= self._cur:
            insort(self._active, (time, seq, callback, args), self._head)
            self._count += 1
        elif idx < self._limit:
            self._buckets[idx & _MASK].append((time, seq, callback, args))
            self._count += 1
        else:
            heappush(self._over, (time, seq, callback, args))

    # --- bucket rotation ----------------------------------------------
    def _advance(self) -> bool:
        """Rotate to the next non-empty epoch; False when the agenda is
        empty.  Precondition: the active bucket is fully consumed."""
        active = self._active
        if active:
            active.clear()
        self._head = 0
        over = self._over
        cur = self._cur
        if self._count == 0:
            if not over:
                return False
            # Ring empty: jump straight to the overflow head's epoch.
            cur = over[0][0] >> _SHIFT
        else:
            # Some ring bucket is non-empty, so this scan terminates within
            # _NBUCKETS steps; it also stops at the overflow head's epoch
            # so far-future entries migrate before anything later runs.
            buckets = self._buckets
            oe = (over[0][0] >> _SHIFT) if over else -1
            cur += 1
            while not buckets[cur & _MASK]:
                if cur == oe:
                    break
                cur += 1
        self._cur = cur
        self._limit = cur + _NBUCKETS
        b = self._buckets[cur & _MASK]
        if over:
            count = self._count
            while over and (over[0][0] >> _SHIFT) <= cur:
                b.append(heappop(over))
                count += 1
            self._count = count
        if len(b) > 1:
            b.sort()
        self._active = b
        return True

    # --- cancellation accounting --------------------------------------
    def _note_cancel(self) -> None:
        """A pending handle was cancelled; compact the agenda when
        cancelled entries dominate (lazy-cancel would otherwise let
        pathological schedule/cancel churn grow the agenda without
        bound)."""
        self._cancelled_pending += 1
        if (
            self._cancelled_pending >= _COMPACT_MIN
            and self._cancelled_pending * 2 > self._count + len(self._over)
        ):
            self._compact()

    def _compact(self) -> None:
        """Remove every cancelled entry from the agenda in one pass.

        Recomputes ``_count`` and zeroes ``_cancelled_pending`` from what
        is actually present, so it is idempotent and safe to call at any
        instant — including between ``peek()`` discards, which share the
        same per-entry accounting (one decrement where an entry is
        physically dropped, never anywhere else).  Bucket lists are
        filtered in place: ``run()`` holds a local binding to the active
        bucket across callbacks, and only its un-consumed suffix (from
        ``_head``) is touched, so the consume index stays valid.
        """
        cur_slot = self._cur & _MASK
        active = self._active
        head = self._head
        live = []
        append = live.append
        for e in active[head:]:
            if len(e) == 3 and e[2].cancelled:
                e[2]._sim = None
            else:
                append(e)
        active[head:] = live
        count = len(live)
        for slot, b in enumerate(self._buckets):
            if slot == cur_slot or not b:
                continue
            kept = []
            append = kept.append
            for e in b:
                if len(e) == 3 and e[2].cancelled:
                    e[2]._sim = None
                else:
                    append(e)
            if len(kept) != len(b):
                b[:] = kept
            count += len(kept)
        self._count = count
        over = self._over
        if over:
            kept = []
            append = kept.append
            for e in over:
                if len(e) == 3 and e[2].cancelled:
                    e[2]._sim = None
                else:
                    append(e)
            if len(kept) != len(over):
                over[:] = kept
                heapify(over)
        self._cancelled_pending = 0

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
            left at ``until``.
        max_events:
            Safety valve for tests: abort with :class:`SimulationError`
            after this many events (a livelock detector).  The check runs
            *before* an entry is consumed, so on raise exactly
            ``max_events`` callbacks have run, ``events_executed`` equals
            ``max_events``, and the next-due entry is still on the agenda.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        now_q = self._now_q
        popleft = now_q.popleft
        advance = self._advance
        # Infinity sentinels keep the per-event checks to one C-level
        # comparison each instead of an ``is not None`` branch plus one.
        limit = max_events if max_events is not None else float("inf")
        stop = until if until is not None else float("inf")
        executed = self.events_executed
        now = self.now  # local mirror; only this loop advances the clock
        try:
            while True:
                # Same-instant FIFO first, unless an agenda entry at the
                # same time holds an older seq (scheduled before the FIFO
                # entry).  Agenda entries at t == now can only live in the
                # active bucket (every other tier holds later epochs), so
                # an exhausted active bucket means the FIFO entry runs.
                # _head/_active are re-read every iteration: a callback may
                # insort ahead of the consume index or trigger compaction.
                if now_q:
                    fe = now_q[0]
                    active = self._active
                    i = self._head
                    if (
                        i == len(active)
                        or (e := active[i])[0] > now
                        or e[1] > fe[0]
                    ):
                        if executed >= limit:
                            self.events_executed = executed
                            raise SimulationError(
                                f"exceeded max_events={max_events}; likely livelock"
                            )
                        popleft()
                        executed += 1
                        fe[1](*fe[2])
                        continue
                    # else: e is the agenda head and wins; fall through
                else:
                    active = self._active
                    i = self._head
                    if i == len(active):
                        if not advance():
                            break
                        # advance() only returns True with a non-empty
                        # active bucket (it migrates or finds an entry).
                        active = self._active
                        i = 0
                    e = active[i]
                time = e[0]
                if len(e) == 3:
                    ev = e[2]
                    if ev.cancelled:
                        self._head = i + 1
                        self._count -= 1
                        self._cancelled_pending -= 1
                        ev._sim = None
                        continue
                    if time > stop:
                        self.now = until
                        return
                    if executed >= limit:
                        self.events_executed = executed
                        raise SimulationError(
                            f"exceeded max_events={max_events}; likely livelock"
                        )
                    self._head = i + 1
                    self._count -= 1
                    self.now = now = time
                    executed += 1
                    ev.callback(*ev.args)
                    # Drop the back-ref so a late cancel() cannot corrupt
                    # the cancellation accounting.
                    ev._sim = None
                else:
                    if time > stop:
                        self.now = until
                        return
                    if executed >= limit:
                        self.events_executed = executed
                        raise SimulationError(
                            f"exceeded max_events={max_events}; likely livelock"
                        )
                    self._head = i + 1
                    self._count -= 1
                    self.now = now = time
                    executed += 1
                    e[2](*e[3])
            if until is not None and until > self.now:
                self.now = until
                # The ring is empty here (advance() returned False), but
                # _cur still names the last consumed epoch.  Fast-forward
                # it to the parked clock so a later schedule at t == now
                # lands in the *active* bucket — the now-FIFO arbitration
                # above relies on same-instant agenda entries living there.
                cur = until >> _SHIFT
                if cur > self._cur:
                    self._cur = cur
                    self._limit = cur + _NBUCKETS
                    self._active = self._buckets[cur & _MASK]
                    self._head = 0
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
        """Time of the next non-cancelled event, or ``None`` if idle."""
        if self._now_q:
            return self.now
        while True:
            active = self._active
            i = self._head
            if i == len(active):
                if not self._advance():
                    return None
                continue
            e = active[i]
            if len(e) == 3 and e[2].cancelled:
                self._head = i + 1
                self._count -= 1
                self._cancelled_pending -= 1
                e[2]._sim = None
                continue
            return e[0]

    @property
    def _pending(self) -> int:
        return len(self._now_q) + self._count + len(self._over)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator now={self.now} pending={self._pending}>"
