"""Completion queues.

A CQ collects :class:`~repro.ib.wr.WC` entries from any number of QPs
(the paper's MPI associates *all* of a process's send and receive queues
with a single CQ, and so does ``repro.mpi``).  Consumers poll; a blocked
consumer can wait on :meth:`wait_nonempty`, which hands out a one-shot
:class:`~repro.sim.waitables.Signal` re-armed on each wait — the simulation
analogue of the verbs completion-channel / ``ibv_req_notify_cq`` pattern.
"""

from __future__ import annotations

from typing import List, Optional

from repro.ib.wr import WC
from repro.sim import Signal, Simulator


class CQOverflow(RuntimeError):
    """The CQ filled up — a fatal programming error in the consumer."""


class CompletionQueue:
    """A FIFO of work completions with blocking-wait support."""

    def __init__(self, sim: Simulator, depth: int = 65536, name: str = "cq"):
        self.sim = sim
        self.depth = depth
        self.name = name
        self._notify_name = f"{name}.notify"  # one per blocking wait
        self._entries: List[WC] = []  # ``depth`` bounds it: a list, DESIGN §6.4
        self._notify: Optional[Signal] = None
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
        if self._notify is not None:
            sig, self._notify = self._notify, None
            sig.fire(self.sim, None)

    def wake(self) -> None:
        """Fire the armed wait without a completion: an arrival the CQ
        does not hold (an RDMA-ring deposit) or a failure to observe."""
        if self._notify is not None:
            sig, self._notify = self._notify, None
            sig.fire(self.sim, None)

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

    def wait_nonempty(self) -> Signal:
        """Return a signal that fires when the CQ has (or already has) an
        entry.  Each call arms a fresh signal, so the usual loop is::

            while not done:
                for wc in cq.poll():
                    handle(wc)
                if not done:
                    yield cq.wait_nonempty()
        """
        sig = Signal(self._notify_name)
        if self._entries:
            sig.fire(self.sim, None)
        else:
            if self._notify is not None:
                # Coalesce: chain onto the existing armed signal.
                return self._notify
            self._notify = sig
        return sig

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<CQ {self.name} pending={len(self._entries)}>"
