"""Micro-benchmarks: the paper's latency and bandwidth tests (§6.2).

*Latency* — ping-pong with blocking MPI_Send/MPI_Recv; reported as average
one-way time.

*Bandwidth* — the sender pushes ``window`` back-to-back messages, the
receiver replies with a 4-byte ack after all have arrived; repeated
``repetitions`` times.  Blocking version uses MPI_Send/MPI_Recv; the
non-blocking version uses MPI_Isend/MPI_Irecv + Waitall.  The window size
relative to the pre-post depth is exactly the paper's flow-control stressor
(Figures 3–8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.cluster.job import Program
from repro.sim.units import mb_per_s


@dataclass
class BWResult:
    """Per-rank result of a bandwidth run (rank 0 carries the numbers)."""

    bytes_moved: int = 0
    elapsed_ns: int = 0

    @property
    def mbps(self) -> float:
        return mb_per_s(self.elapsed_ns, self.bytes_moved)


def _require_positive(**counts: int) -> None:
    """An average over zero timed rounds is no measurement: refuse it here,
    by name, not as a ``TypeError`` from inside rank 0's generator."""
    for name, value in counts.items():
        if not isinstance(value, int) or value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")


def latency_program(size: int, iterations: int = 100, warmup: int = 10) -> Program:
    """2-rank ping-pong; rank 0 returns average one-way latency (ns)."""
    _require_positive(iterations=iterations)

    def prog(mpi) -> Generator:
        peer = 1 - mpi.rank
        bid = ("lat", mpi.rank)
        total = iterations + warmup
        t0 = None
        for i in range(total):
            if i == warmup:
                t0 = mpi.now
            if mpi.rank == 0:
                yield from mpi.send(peer, size=size, tag=0, buffer_id=bid)
                yield from mpi.recv(source=peer, capacity=size, tag=0, buffer_id=bid)
            else:
                yield from mpi.recv(source=peer, capacity=size, tag=0, buffer_id=bid)
                yield from mpi.send(peer, size=size, tag=0, buffer_id=bid)
        if mpi.rank == 0:
            return (mpi.now - t0) / iterations / 2.0
        return None

    return prog


def manyflows_program(flows) -> Program:
    """Many concurrent point-to-point flows — the congestion stressor.

    ``flows`` is a sequence of ``(src, dst, msgs, msg_bytes)`` tuples.
    Every rank pre-posts irecvs for all traffic addressed to it, then
    pushes its own flows' messages round-robin (a multi-flow sender
    interleaves, so a hot flow can head-of-line-block a victim flow
    through a shared egress queue), waits for everything, and returns
    the simulated time its own traffic completed — the per-rank finish
    times are the incast/hotspot victim metric.
    """
    flows = tuple(tuple(f) for f in flows)

    def prog(mpi) -> Generator:
        me = mpi.rank
        reqs = []
        for src, dst, msgs, msg_bytes in flows:
            if dst == me:
                for _ in range(msgs):
                    r = yield from mpi.irecv(source=src, capacity=msg_bytes)
                    reqs.append(r)
        mine = [[dst, msgs, msg_bytes] for src, dst, msgs, msg_bytes in flows
                if src == me]
        while any(f[1] > 0 for f in mine):
            for f in mine:
                if f[1] > 0:
                    f[1] -= 1
                    r = yield from mpi.isend(f[0], size=f[2])
                    reqs.append(r)
        yield from mpi.waitall(reqs)
        return mpi.now

    return prog


def bandwidth_program(
    size: int,
    window: int,
    repetitions: int = 10,
    blocking: bool = True,
    warmup: int = 2,
) -> Program:
    """2-rank windowed bandwidth test; rank 0 returns a :class:`BWResult`."""
    _require_positive(window=window, repetitions=repetitions)

    def prog(mpi) -> Generator:
        peer = 1 - mpi.rank
        total = repetitions + warmup
        t0 = None
        if mpi.rank == 0:
            for rep in range(total):
                if rep == warmup:
                    t0 = mpi.now
                if blocking:
                    for w in range(window):
                        yield from mpi.send(
                            peer, size=size, tag=1, buffer_id=("bw", w % 64)
                        )
                else:
                    reqs = []
                    for w in range(window):
                        r = yield from mpi.isend(
                            peer, size=size, tag=1, buffer_id=("bw", w % 64)
                        )
                        reqs.append(r)
                    yield from mpi.waitall(reqs)
                yield from mpi.recv(source=peer, capacity=16, tag=2)
            return BWResult(
                bytes_moved=size * window * repetitions,
                elapsed_ns=mpi.now - t0,
            )

        # Receiver.  The non-blocking variant pre-posts the next window
        # before releasing the sender with its reply (standard
        # double-buffered bandwidth-benchmark structure — OSU et al.), so
        # measurements exercise flow control, not receive-posting skew.
        if blocking:
            for rep in range(total):
                for w in range(window):
                    yield from mpi.recv(
                        source=peer, capacity=size, tag=1, buffer_id=("bw", w % 64)
                    )
                yield from mpi.send(peer, size=4, tag=2)
            return None
        reqs = []
        for w in range(window):
            r = yield from mpi.irecv(source=peer, capacity=size, tag=1,
                                     buffer_id=("bw", w % 64))
            reqs.append(r)
        for rep in range(total):
            yield from mpi.waitall(reqs)
            reqs = []
            if rep < total - 1:
                for w in range(window):
                    r = yield from mpi.irecv(source=peer, capacity=size, tag=1,
                                             buffer_id=("bw", w % 64))
                    reqs.append(r)
            yield from mpi.send(peer, size=4, tag=2)
        return None

    return prog
