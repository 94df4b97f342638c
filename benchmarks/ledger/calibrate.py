"""Host-speed calibration: two fixed pieces of pure-Python work, timed on
a CPU-time timer while the measured code runs.

The shared host the ledger runs on has slow phases (a busy sibling
thread, a neighbour that streams memory) that move every timing by
30-90 % and switch every few seconds, and at times it simply runs
something else.  A child therefore measures its phases in CPU time, and
samples these loops every 25 ms of it throughout set-up and run; a phase
is reported in **seconds of the reference host**: its CPU time times the
mean host speed over exactly that window (:class:`HostSpeed`).  The
loops never call the simulator, so a change to the simulator cannot
move them.

:func:`core_pass` is a miniature of what the simulator does all day: a
heap of timestamped events, generators resumed one event at a time,
small objects allocated and dropped, dictionary look-ups — all inside a
core's caches, like the 2- and 8-rank workloads.  :func:`memory_pass`
is dependent reads scattered over a table twice the size of a core's L2
cache: what a neighbour's memory traffic slows, and what the 1,024-rank
workload, whose state does not fit a core's caches, spends part of its
time on (``Workload.memory_share``).  Stdlib only: a child starts
sampling before it pays for ``import repro``.
"""

from __future__ import annotations

import heapq
import os
import signal
import statistics
import time
from typing import Dict, Generator, List, Tuple

#: one pass of each loop, sampled inside a running child on the quiet
#: reference host (2-core KVM guest, Xeon 2.1 GHz, Python 3.11) — the
#: speed the timings are normalised to
CORE_REFERENCE_S = 0.00066
MEMORY_REFERENCE_S = 0.00034
_PROCS = 16
_EVENTS = 700
_READS = 1500
#: 8 MiB of bytes that steer the scattered reads (resident in every child:
#: ``peak_rss_mib`` includes it)
_TABLE = bytearray(os.urandom(1 << 16)) * 128


class _Packet:
    __slots__ = ("src", "dst", "size", "seq")

    def __init__(self, src: int, dst: int, size: int, seq: int):
        self.src, self.dst, self.size, self.seq = src, dst, size, seq


def _proc(rank: int, stats: Dict[int, int]) -> Generator[Tuple[int, _Packet], None, None]:
    seq = 0
    while True:
        seq += 1
        pkt = _Packet(rank, (rank * 7 + seq) % _PROCS, 64 + (seq & 1023), seq)
        stats[pkt.dst] = stats.get(pkt.dst, 0) + pkt.size
        yield 100 + (pkt.size >> 2), pkt


def core_pass() -> int:
    """``_EVENTS`` events through a heap-driven generator loop.  Returns a
    checksum (the same every pass)."""
    stats: Dict[int, int] = {}
    procs = [_proc(rank, stats) for rank in range(_PROCS)]
    agenda: List[Tuple[int, int, int]] = [(0, rank, rank) for rank in range(_PROCS)]
    heapq.heapify(agenda)
    order = _PROCS
    delivered = 0
    for _ in range(_EVENTS):
        now, _, rank = heapq.heappop(agenda)
        delay, pkt = next(procs[rank])
        delivered += pkt.seq
        order += 1
        heapq.heappush(agenda, (now + delay, order, rank))
    return delivered + sum(stats.values())


def memory_pass() -> int:
    """``_READS`` reads over ``_TABLE``, each placed by the one before.
    The same chain every pass: its time says how much of it the last
    25 ms of everything else left in this core's caches, and how far
    away the rest is."""
    table, mask, at = _TABLE, len(_TABLE) - 1, 12345
    for _ in range(_READS):
        at = (at * 1103515245 + 12345 + table[at]) & mask
    return at


class HostSpeed:
    """Samples the host's speed on a CPU-time timer while other code runs.

    Every ``interval_s`` of this process's CPU time a ``SIGPROF`` handler
    (main thread, between two bytecodes of whatever is running) times one
    pass of each loop, in CPU time too.  The samples are uniform in CPU
    time, so the work done in a window of C CPU seconds, in seconds of
    the reference host, is ``C * mean(1 / slow-down)`` once the handler's
    own time is taken out of C.  CPU time leaves out the intervals in
    which the host ran something else on this processor; the samples
    catch what slows the process while it does run.
    """

    def __init__(self, interval_s: float = 0.025):
        self.interval_s = interval_s
        #: (thread_time stamp at the end, core pass seconds, memory pass seconds)
        self.samples: List[Tuple[float, float, float]] = []
        self._previous = None

    def _on_timer(self, signum, frame) -> None:
        t0 = time.thread_time()
        core_pass()
        t1 = time.thread_time()
        memory_pass()
        t2 = time.thread_time()
        self.samples.append((t2, t1 - t0, t2 - t1))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._on_timer)
        self._on_timer(None, None)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def normalised(self, start: float, end: float, memory_share: float = 0.0) -> float:
        """Reference-host seconds of the work done between two
        ``time.thread_time()`` stamps by code that spends ``memory_share``
        of its time as :func:`memory_pass` does and the rest as
        :func:`core_pass` does.  A window without a sample of its own
        borrows the one nearest its middle."""
        inside = [s for s in self.samples if start < s[0] <= end]
        used = inside or [min(
            self.samples, key=lambda s: abs(s[0] - (start + end) / 2))]
        speed = statistics.fmean(
            1.0 / ((1.0 - memory_share) * core / CORE_REFERENCE_S
                   + memory_share * memory / MEMORY_REFERENCE_S)
            for _, core, memory in used)
        own = sum(core + memory for _, core, memory in inside)
        return (end - start - own) * speed
