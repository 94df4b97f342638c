"""Completion queues.

A CQ collects :class:`~repro.ib.wr.WC` entries from any number of QPs
(the paper's MPI associates *all* of a process's send and receive queues
with a single CQ, and so does ``repro.mpi``).  Consumers poll; a blocked
consumer yields the CQ itself, which resumes it once the CQ holds an entry
(at once if it already does) — the simulation analogue of the verbs
completion-channel / ``ibv_req_notify_cq`` pattern.  Like a completion
channel, a CQ has one consumer: one process at a time may wait on it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.ib.wr import WC
from repro.sim import Simulator, Waitable

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim import Process


class CQOverflow(RuntimeError):
    """The CQ filled up — a fatal programming error in the consumer."""


class CompletionQueue(Waitable):
    """A FIFO of work completions; ``yield cq`` blocks until it is non-empty::

        while not done:
            for wc in cq.poll():
                handle(wc)
            if not done:
                yield cq
    """

    def __init__(self, sim: Simulator, depth: int = 65536, name: str = "cq"):
        self.sim = sim
        self.depth = depth
        self.name = name
        self._entries: List[WC] = []  # ``depth`` bounds it: a list, DESIGN §6.4
        self._waiter: Optional["Process"] = None  # the parked consumer
        #: total completions ever pushed (observability)
        self.total_completions = 0

    # ------------------------------------------------------------------
    # producer side (QPs)
    # ------------------------------------------------------------------
    def push(self, wc: WC) -> None:
        if len(self._entries) >= self.depth:
            raise CQOverflow(f"{self.name}: more than {self.depth} outstanding CQEs")
        self._entries.append(wc)
        self.total_completions += 1
        proc = self._waiter
        if proc is not None:  # wake(), open-coded on the per-completion path
            self._waiter = None
            self.sim.call_soon(proc._resume, None, None)

    def wake(self) -> None:
        """Resume the parked consumer without a completion: an arrival the
        CQ does not hold (an RDMA-ring deposit) or a failure to observe."""
        proc = self._waiter
        if proc is not None:
            self._waiter = None
            self.sim.call_soon(proc._resume, None, None)

    def _block(self, sim: Simulator, process: "Process") -> None:
        if self._entries:
            sim.call_soon(process._resume, None, None)
        elif self._waiter is not None and self._waiter.alive:
            raise RuntimeError(
                f"{self.name}: {process.name!r} waits while {self._waiter.name!r} "
                "is parked (one consumer per CQ)")
        else:
            self._waiter = process

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------
    def poll(self, max_entries: int = 0) -> List[WC]:
        """Drain up to ``max_entries`` completions (0 = all)."""
        entries = self._entries
        if max_entries <= 0 or max_entries >= len(entries):
            self._entries = []
            return entries
        out = entries[:max_entries]
        del entries[:max_entries]
        return out

    def remove_errors(self, qp_num: int) -> List[WC]:
        """Remove and return ``qp_num``'s un-polled error completions
        (the flushes of a QP being re-established or severed).  Success
        completions stay put: they are real deliveries from before the
        fault and must still be polled in FIFO order."""
        removed: List[WC] = []
        kept: List[WC] = []
        for wc in self._entries:
            if not wc.ok and wc.qp_num == qp_num:
                removed.append(wc)
            else:
                kept.append(wc)
        self._entries = kept
        return removed

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<CQ {self.name} pending={len(self._entries)}>"
