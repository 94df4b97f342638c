"""Wire protocol between MPI endpoints.

Two internal protocols implement the MPI communication modes (paper §3.1):

* **Eager** — the payload rides a single SEND into a pre-posted vbuf at the
  receiver, *regardless of the receiver's state* (it may be unexpected).
* **Rendezvous** — a four-message handshake: RTS (Rendezvous Start, also
  unexpected), CTS (Reply, carries the pinned destination buffer's
  address/rkey), a zero-copy RDMA write of the data, and FIN (Finish).

Every header additionally carries the flow-control piggyback fields:
``credits`` (credit return, user-level schemes) and ``went_backlog`` (the
dynamic scheme's feedback bit).  ``paid`` records whether the sender spent
an MPI-level credit on this message — the receiver only *re-grants* a
credit for paid messages, keeping the credit ↔ buffer correspondence exact
(property-tested in ``tests/test_fc_invariants.py``).

Beside the wire format sit the per-message decisions of the eager side, in
functions that read no simulator, queue pair or endpoint (DESIGN §5.4):
:func:`in_order`, :func:`unpark` and :func:`ring_next` keep arrival
order across the two channels of a ring connection, and :func:`match`
decides what a data message and its receive do, whichever came first.
Each changes the
:class:`~repro.mpi.connection.Connection` in place and returns what the
endpoint executes; :mod:`repro.mpi.rendezvous` holds the rendezvous half.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.mpi.constants import ANY_SOURCE, ANY_TAG

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.connection import Connection
    from repro.mpi.matching import PostedRecv


class MPIError(RuntimeError):
    pass


class TruncationError(MPIError):
    """A message arrived larger than the posted receive buffer."""


class MsgKind(enum.Enum):
    EAGER = "eager"
    RNDV_RTS = "rndv_rts"
    RNDV_CTS = "rndv_cts"
    RNDV_FIN = "rndv_fin"
    CREDIT = "credit"  # explicit credit message (ECM)

    # Members are singletons compared by identity, so the identity hash is
    # the same relation at C speed; ``Enum.__hash__`` is a Python frame on
    # every arrival's handler dispatch.
    __hash__ = object.__hash__


#: Message kinds that are *unexpected* from the receiver's point of view —
#: the sender pushes them without knowing the receiver's state (paper §3.2).
UNEXPECTED_KINDS = frozenset({MsgKind.EAGER, MsgKind.RNDV_RTS})


@dataclass(slots=True)
class Header:
    """Protocol header occupying ``MPIConfig.header_bytes`` on the wire.

    ``size`` is the full MPI message payload size (for RTS it describes the
    data to follow via RDMA, not the RTS packet itself).
    """

    kind: MsgKind
    src: int
    dst: int
    tag: int = 0
    context: int = 0
    size: int = 0
    seq: int = -1  # per-(src,dst,context) ordering number for sanity checks

    # --- flow control piggyback ---------------------------------------
    credits: int = 0
    went_backlog: bool = False
    paid: bool = True
    #: ready-mode send (MPI_Rsend): arriving unexpected is a usage error
    ready: bool = False
    #: travelled through the RDMA eager ring (no WQE was consumed)
    via_ring: bool = False

    # --- rendezvous bookkeeping ----------------------------------------
    sreq_id: int = -1  # sender-side request id (RTS → CTS correlation)
    rreq_id: int = -1  # receiver-side request id (CTS → FIN correlation)
    remote_addr: int = 0
    rkey: int = 0

    # --- payload (opaque; only eager carries data in the header's vbuf) --
    payload: Any = None

    def matches(self, source: int, tag: int, context: int) -> bool:
        """Match against the MPI envelope triple — the matching engine
        calls this once per scanned queue entry."""
        if context != self.context:
            return False
        if source != ANY_SOURCE and source != self.src:
            return False
        if tag != ANY_TAG and tag != self.tag:
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<{self.kind.value} {self.src}->{self.dst} tag={self.tag} "
            f"size={self.size} credits={self.credits}"
            f"{' backlog' if self.went_backlog else ''}>"
        )


# ----------------------------------------------------------------------
# arrival order: one sequence space, two channels
# ----------------------------------------------------------------------
def in_order(conn: "Connection", h: Header) -> bool:
    """A header polled from the CQ: True, it is next in the connection's
    sequence and taken (``seq_in_expected`` advanced).  False, it overtook
    an eager write still in flight toward the ring — the CQ and the ring
    share one sequence space but not one wire — and waits on the ring's
    ``cq_stash`` for :func:`unpark` (the QP is FIFO, so appends keep the
    stash in order).  Any other gap is an error."""
    expected = conn.seq_in_expected
    if h.seq == expected:
        conn.seq_in_expected = expected + 1
        return True
    ch = conn.ring
    if ch is None or h.seq < expected:
        raise MPIError(
            f"rank {h.dst}: out-of-order delivery from {h.src}: "
            f"seq {h.seq} != expected {expected}"
        )
    if type(ch.cq_stash) is tuple:  # first use
        ch.cq_stash = []
    ch.cq_stash.append(h)
    return False


def unpark(conn: "Connection") -> Optional[Header]:
    """The parked CQ header that ring progress made next in sequence,
    taken; None while the stash's head still waits (or it is empty)."""
    stash = conn.ring.cq_stash
    if stash and stash[0].seq == conn.seq_in_expected:
        conn.seq_in_expected += 1
        return stash.pop(0)
    return None


def ring_next(conn: "Connection") -> Optional[Header]:
    """The ring's next arrival if it is next in sequence, taken; else None
    (a write waiting on a control message still in the CQ path)."""
    arrived = conn.ring._arrived
    if arrived and arrived[0].seq == conn.seq_in_expected:
        conn.seq_in_expected += 1
        return arrived.pop(0)
    return None


# ----------------------------------------------------------------------
# matching: a data message and its receive, whichever came first
# ----------------------------------------------------------------------
#: :func:`match`: copy the payload out (to the user buffer, or a temporary
#: one); complete the receive with it; answer the RTS (the landing and its
#: CTS, :func:`repro.mpi.rendezvous.land`); free the message's vbuf or ring
#: slot (:func:`repro.core.credit.release`).  0: parked in its vbuf.
COPY, COMPLETE, LAND, FREE = 1, 2, 4, 8


def match(h: Header, posted: Optional["PostedRecv"], late: bool = False) -> int:
    """What an EAGER or RTS header ``h`` and its receive ``posted`` do: at
    arrival (``posted`` None: nothing matched, ``h`` is unexpected), or
    ``late``, when a new receive finds ``h`` in the unexpected queue.

    Unexpected, an RTS is fully parsed and an eager payload on a ring is
    copied out at once (ring slots free in order, the [13] design); in a
    vbuf the payload stays parked until matched — the vbuf *is* the
    storage (MVICH), which is how a fast sender exhausts a slow receiver
    (paper §3.2).  A ready-mode message must not arrive unexpected
    (MPI_Rsend), and no message may overflow its receive."""
    if posted is None:
        if h.kind is MsgKind.RNDV_RTS:
            return FREE
        if h.ready:
            raise MPIError(
                f"rank {h.dst}: ready-mode message from {h.src} (tag {h.tag}) "
                "arrived with no matching receive posted — MPI_Rsend "
                "contract violated"
            )
        return COPY | FREE if h.via_ring else 0
    if posted.capacity and h.size > posted.capacity:
        raise TruncationError(
            f"message of {h.size} bytes into a {posted.capacity}-byte receive"
        )
    if h.kind is MsgKind.RNDV_RTS:
        return LAND if late else LAND | FREE
    if late and h.via_ring:
        return COPY | COMPLETE  # its slot was freed at arrival
    return COPY | COMPLETE | FREE
