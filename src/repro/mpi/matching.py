"""MPI message matching: the posted-receive queue and the unexpected queue.

Semantics follow the MPI standard:

* receives match in **post order** against arriving messages;
* unexpected messages are kept in **arrival order** per matching class;
* wildcards ``ANY_SOURCE`` / ``ANY_TAG`` are honoured;
* the non-overtaking rule — two messages from the same sender with
  envelopes matching the same receive must be received in send order —
  falls out of the arrival-order scan because the transport below is an
  in-order reliable connection per peer.
"""

from __future__ import annotations

from typing import List, Optional

from repro.mpi.protocol import Header
from repro.mpi.request import Request


class PostedRecv:
    """A receive posted by the application, waiting for a message."""

    __slots__ = ("source", "tag", "context", "capacity", "request", "buffer_id")

    def __init__(
        self,
        source: int,
        tag: int,
        context: int,
        capacity: int,
        request: Request,
        buffer_id: Optional[object] = None,
    ):
        self.source = source
        self.tag = tag
        self.context = context
        self.capacity = capacity
        self.request = request
        self.buffer_id = buffer_id


class UnexpectedMsg:
    """An arrived message (eager payload or rendezvous RTS) with no matching
    posted receive yet."""

    __slots__ = ("header", "arrival_ns")

    def __init__(self, header: Header, arrival_ns: int):
        self.header = header
        self.arrival_ns = arrival_ns


class MatchingEngine:
    """Per-rank matching state."""

    def __init__(self) -> None:
        # lists: both are scanned linearly and ``del q[i]``-ed (DESIGN §6.4)
        self._posted: List[PostedRecv] = []
        self._unexpected: List[UnexpectedMsg] = []
        # observability
        self.unexpected_peak = 0
        self.total_unexpected = 0

    # ------------------------------------------------------------------
    # receiver side: posting a receive
    # ------------------------------------------------------------------
    def post_recv(self, recv: PostedRecv) -> Optional[UnexpectedMsg]:
        """Try to satisfy ``recv`` from the unexpected queue; if no message
        matches, enqueue it on the posted queue and return None."""
        for i, msg in enumerate(self._unexpected):
            if msg.header.matches(recv.source, recv.tag, recv.context):
                del self._unexpected[i]
                return msg
        self._posted.append(recv)
        return None

    # ------------------------------------------------------------------
    # arrival side: matching an inbound message
    # ------------------------------------------------------------------
    def arrived(self, header: Header, now: int) -> Optional[PostedRecv]:
        """Match ``header`` against posted receives (post order); if none
        matches, store it as unexpected and return None."""
        for i, recv in enumerate(self._posted):
            if header.matches(recv.source, recv.tag, recv.context):
                del self._posted[i]
                return recv
        self._unexpected.append(UnexpectedMsg(header, now))
        self.total_unexpected += 1
        if len(self._unexpected) > self.unexpected_peak:
            self.unexpected_peak = len(self._unexpected)
        return None

    # ------------------------------------------------------------------
    # probes / introspection
    # ------------------------------------------------------------------
    def iprobe(self, source: int, tag: int, context: int) -> Optional[Header]:
        """First unexpected message matching the triple, without removing."""
        for msg in self._unexpected:
            if msg.header.matches(source, tag, context):
                return msg.header
        return None

    @property
    def posted_count(self) -> int:
        return len(self._posted)

    @property
    def unexpected_count(self) -> int:
        return len(self._unexpected)

    def idle(self) -> bool:
        return not self._posted and not self._unexpected
