"""The rendezvous protocol: its state and its per-message decisions.

The zero-copy rendezvous (paper §3.1) pins the user buffers on the fly and
moves the data with one RDMA write:

    sender                      receiver
    ------                      --------
    pin user buffer
    RTS  ─────────────────────▶ (match against posted receives)
                                pin destination buffer
         ◀───────────────────── CTS {addr, rkey}
    RDMA write data ══════════▶ (hardware, transparent)
    FIN  ─────────────────────▶ complete the receive

Small messages normally go eager, but a synchronous send always takes this
handshake (the CTS proves the receive is matched), and a credit-starved
connection pushes backlogged small sends through it too (*fallback mode*).
To avoid charging a tens-of-microseconds registration for a 4-byte payload,
a payload that fits a vbuf rides pre-registered *bounce slots*: no pin at
the sender, a free slot of the receiver's :class:`BounceRegion` at the
other end — memcpys instead of pins, the same trick real MPI stacks use for
their R3/copy-based rendezvous path.

**The slot rule.**  A bounce slot is busy from the CTS that announces it to
the FIN that completes its receive, and freed wherever its
:class:`RndvRecvOp` is dropped (:func:`finish`).  The receiver takes the
next free slot; with none free it pins the user buffer, as a large message
does.  Nothing else bounds how many land at once: the fallback window is
per connection, and every small synchronous send lands in a slot.

The functions below read no simulator, queue pair or endpoint (DESIGN
§5.4).  Each changes a :class:`RndvSendOp`, a :class:`RndvRecvOp` or the
rank's op tables in place and returns the :class:`Header` to emit, the op
to act on, or an int; the endpoint pins, emits and writes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.core import credit
from repro.mpi.protocol import Header, MPIError, MsgKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.ib.mr import MemoryRegion
    from repro.mpi.connection import Connection
    from repro.mpi.matching import PostedRecv
    from repro.mpi.request import Request

_op_ids = itertools.count(1)


def next_op_id() -> int:
    return next(_op_ids)


@dataclass
class RndvSendOp:
    """Sender-side state of one rendezvous transfer."""

    sreq_id: int
    request: Request
    dst: int
    tag: int
    context: int
    size: int
    payload: Any
    buffer_id: Optional[object]
    mr: Optional[MemoryRegion]  # None in bounce (fallback) mode
    bounce: bool = False
    fallback: bool = False  # sent via the optimistic no-credit path
    fin_rreq_id: int = -1  # receiver op id, learned from the CTS
    # landing coordinates from the CTS, kept so connection recovery can
    # re-post the (idempotent) RDMA write after a QP flush
    cts_remote_addr: int = 0
    cts_rkey: int = 0


@dataclass
class RndvRecvOp:
    """Receiver-side state of one rendezvous transfer."""

    rreq_id: int
    request: Request
    src: int
    tag: int
    context: int
    size: int
    buffer_id: Optional[object]
    mr: MemoryRegion
    landing_addr: int
    bounce: bool = False


class BounceRegion:
    """A pre-registered scratch region carved into fixed slots, where a
    rendezvous payload of at most ``max_payload`` bytes lands without a
    pin.  Slots go round-robin, skipping busy ones (``_busy``, a bit a
    slot)."""

    __slots__ = ("mr", "slot_bytes", "slots", "max_payload", "_next", "_busy")

    def __init__(self, mr: MemoryRegion, slot_bytes: int, slots: int, max_payload: int):
        self.mr = mr
        self.slot_bytes = slot_bytes
        self.slots = slots
        self.max_payload = max_payload
        self._next = 0
        self._busy = 0

    def take(self, size: int) -> int:
        """Address of the next free slot for a ``size``-byte payload, now
        busy; -1: too big, or every slot busy."""
        busy = self._busy
        if size > self.max_payload or busy == (1 << self.slots) - 1:
            return -1
        i = self._next
        while busy >> i & 1:
            i = (i + 1) % self.slots
        self._busy = busy | 1 << i
        self._next = (i + 1) % self.slots
        return self.mr.addr + i * self.slot_bytes

    def free(self, addr: int) -> None:
        self._busy &= ~(1 << (addr - self.mr.addr) // self.slot_bytes)


# ----------------------------------------------------------------------
# sender
# ----------------------------------------------------------------------
#: :func:`choose`: eager; rendezvous through bounce slots; rendezvous from
#: the pinned user buffer
EAGER, BOUNCE, PIN = 0, 1, 2


def choose(mode: str, size: int, eager_max: int) -> int:
    """The eager-or-rendezvous choice for a new send: ``EAGER`` up to
    ``eager_max`` bytes, except a synchronous one (MPI_Ssend), which takes
    the handshake by ``BOUNCE``; anything bigger by ``PIN``."""
    if size <= eager_max:
        return BOUNCE if mode == "sync" else EAGER
    return PIN


def rts(sends: Dict[int, RndvSendOp], h: Header, request: Request,
        mr: Optional[MemoryRegion] = None, buffer_id: Optional[object] = None,
        fallback: bool = False) -> Header:
    """One rendezvous send — the :class:`RndvSendOp`, entered in ``sends``,
    and the RTS that announces it — from ``h``, the send's eager header:
    a new rendezvous send (paid; ``mr`` is its pinned buffer, None to go
    through bounce slots), or the head of a credit-starved backlog
    (``fallback``: unpaid, through bounce slots, paper §4.2).  A
    backlogged RTS that falls back keeps its op and is announced again,
    unpaid."""
    if h.kind is MsgKind.EAGER:
        op = RndvSendOp(next_op_id(), request, h.dst, h.tag, h.context, h.size,
                        h.payload, buffer_id, mr, mr is None, fallback)
        sends[op.sreq_id] = op
    else:
        op = sends[h.sreq_id]
        op.fallback = True
    return Header(MsgKind.RNDV_RTS, h.src, h.dst, h.tag, h.context, h.size,
                  went_backlog=fallback, paid=not fallback, sreq_id=op.sreq_id)


def cts(sends: Dict[int, RndvSendOp], conn: "Connection", h: Header) -> RndvSendOp:
    """A CTS arrived: its landing coordinates go on the op, whose payload
    the caller writes there; a fallback's window slot is free
    (:func:`repro.core.credit.end_fallback`)."""
    op = sends.get(h.sreq_id)
    if op is None:
        raise MPIError(f"rank {h.dst}: CTS for unknown sreq {h.sreq_id}")
    op.fin_rreq_id = h.rreq_id
    op.cts_remote_addr = h.remote_addr
    op.cts_rkey = h.rkey
    if op.fallback:
        credit.end_fallback(conn)
    return op


def fin(sends: Dict[int, RndvSendOp], op: RndvSendOp, rank: int) -> Header:
    """The payload write of ``op`` completed: the op is over (out of
    ``sends``; the caller unpins its buffer and completes its request),
    and the FIN tells the receiver."""
    del sends[op.sreq_id]
    return Header(MsgKind.RNDV_FIN, rank, op.dst, paid=False, rreq_id=op.fin_rreq_id)


# ----------------------------------------------------------------------
# receiver
# ----------------------------------------------------------------------
def land(recvs: Dict[int, RndvRecvOp], bounce: BounceRegion, h: Header,
         posted: "PostedRecv", mr: Optional[MemoryRegion] = None) -> Optional[Header]:
    """The receiver's answer to a matched RTS ``h``: where its payload
    lands — the next free bounce slot, or ``mr``, the user buffer the
    caller pinned — as a :class:`RndvRecvOp` entered in ``recvs``, and the
    CTS that says so.  None: no slot takes it (see the slot rule), pin the
    user buffer and ask again."""
    if mr is None:
        addr = bounce.take(h.size)
        if addr < 0:
            return None
        mr = bounce.mr
    else:
        addr = mr.addr
    op = RndvRecvOp(next_op_id(), posted.request, h.src, h.tag, h.context, h.size,
                    posted.buffer_id, mr, addr, mr is bounce.mr)
    recvs[op.rreq_id] = op
    return Header(MsgKind.RNDV_CTS, h.dst, h.src, size=h.size, paid=False,
                  sreq_id=h.sreq_id, rreq_id=op.rreq_id, remote_addr=addr, rkey=mr.rkey)


def finish(recvs: Dict[int, RndvRecvOp], bounce: BounceRegion, rreq_id: int) -> RndvRecvOp:
    """Drop the receive op ``rreq_id`` — its FIN arrived, or its sender
    died — freeing its bounce slot; the caller unpins a pinned buffer and
    completes (or fails) the request."""
    op = recvs.pop(rreq_id, None)
    if op is None:
        raise MPIError(f"FIN for unknown rreq {rreq_id}")
    if op.bounce:
        bounce.free(op.landing_addr)
    return op
