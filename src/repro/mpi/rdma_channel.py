"""RDMA-write-based eager channel (the paper's companion design, [13]:
Liu et al., "High Performance RDMA-Based MPI Implementation over
InfiniBand", ICS'03).

Instead of SEND into a pre-posted receive WQE, each connection's eager
messages are RDMA-written into a *ring* of fixed 2 KB slots in the
receiver's registered memory.  The receiver discovers arrivals by polling
the slots' completion flags — no receive WQE, no CQE, no RNR NAK is ever
involved, and small-message latency drops by the receive-side WQE/CQE
processing (the paper quotes 6.8 µs vs the send/recv design's ~7.5 µs).

Flow control maps onto the same credit machinery the paper studies: a ring
slot *is* a credit.  The sender consumes one per eager message; the
receiver returns slots via the usual piggyback/ECM paths after copying a
message out.  The ring is fixed-size and owned by the flow-control scheme
(``FlowControlScheme.uses_ring``: ``rdma-eager``).  The paper's §7 remark
that growing one "is more complicated because cooperation between both the
sender and the receiver is necessary" stays a remark: nothing grows a ring.

Simulation note: the receiver's memory polling is modelled by waking the
CQ's armed wait (:meth:`~repro.ib.cq.CompletionQueue.wake`) when an
RDMA-written message becomes visible — equivalent to a sub-microsecond spin
loop without flooding the event queue.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple, Union

from repro.ib.mr import MemoryRegion

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.endpoint import Endpoint
    from repro.mpi.protocol import Header

# ----------------------------------------------------------------------
# Slot wire layout (the Liu design's two-flag scheme)
#
# | head flag (1B) | payload size (4B LE) | payload | tail flag (1B) |
#
# The head flag plus the size-prefix-addressed tail flag make arrival
# detection total: the poller reads the head flag, computes where the
# tail flag must sit from the size prefix, and declares the message
# visible only when both flags are set.  The layout this replaces polled
# the payload's *last byte* — undefined for a zero-length eager message
# and indistinguishable from "not yet written" when the payload happens
# to end in NUL.
# ----------------------------------------------------------------------
SLOT_HEAD_FLAG = 0xAA
SLOT_TAIL_FLAG = 0x55
_SIZE_PREFIX_BYTES = 4
SLOT_OVERHEAD_BYTES = 1 + _SIZE_PREFIX_BYTES + 1


def _payload_bytes(header: "Header") -> bytes:
    """The on-wire payload image: real bytes when the program attached
    any, otherwise ``size`` zero bytes — the maximally adversarial case
    for tail-byte polling."""
    payload = header.payload
    if isinstance(payload, (bytes, bytearray)):
        return bytes(payload)
    return b"\x00" * header.size


def encode_slot(header: "Header") -> bytes:
    """Render the slot image an RDMA write deposits for ``header``."""
    body = _payload_bytes(header)
    return (
        bytes((SLOT_HEAD_FLAG,))
        + len(body).to_bytes(_SIZE_PREFIX_BYTES, "little")
        + body
        + bytes((SLOT_TAIL_FLAG,))
    )


def slot_message_ready(slot: bytes) -> bool:
    """Two-flag arrival detection: head flag set and the tail flag (at
    the offset the size prefix dictates) set.  Total over every payload,
    including empty and NUL-terminated ones."""
    if len(slot) < SLOT_OVERHEAD_BYTES or slot[0] != SLOT_HEAD_FLAG:
        return False
    size = int.from_bytes(slot[1 : 1 + _SIZE_PREFIX_BYTES], "little")
    tail = 1 + _SIZE_PREFIX_BYTES + size
    return len(slot) > tail and slot[tail] == SLOT_TAIL_FLAG


class RingBuffer:
    """A connection's receive ring: ``slots`` fixed-size slots in one
    registered region."""

    __slots__ = ("mr", "slots")

    def __init__(self, mr: MemoryRegion, slots: int):
        self.mr = mr
        self.slots = slots


class RDMAChannel:
    """One connection's RDMA eager channel (``Connection.ring``), both
    halves: the ring this rank allocated and polls, with its arrivals and
    the stash of CQ headers that overtook one; and the peer's ring
    advertisement (addr, rkey, slots) with this rank's write cursor into
    it.  The credit count stays on the Connection with the rest of the
    flow-control state.
    """

    # one per connection of a ring mesh: no instance dict
    __slots__ = (
        "endpoint", "peer", "slot_bytes", "ring", "_arrived", "cq_stash",
        "tx_addr", "tx_rkey", "tx_slots", "tx_next",
        "messages",
    )

    def __init__(self, endpoint: "Endpoint", peer: int, slots: int,
                 mr: Optional[MemoryRegion] = None):
        self.endpoint = endpoint
        self.peer = peer
        self.slot_bytes = endpoint.config.vbuf_bytes  # a slot is a vbuf
        if mr is None:
            mr = endpoint.hca.reg_mr(slots * self.slot_bytes)
        # the simulator routes an RDMA write's landing to deposit()
        mr.on_write = lambda addr, payload: self.deposit(payload)
        self.ring = RingBuffer(mr, slots)
        #: arrived-but-unprocessed headers, FIFO: both channels ride one
        #: RC QP, which accepts in MSN order, so deposits come in sequence
        #: order (the auditor checks it), at most a ringful of them
        self._arrived: List["Header"] = []
        #: CQ headers polled ahead of a ring write that precedes them (one
        #: sequence space, and the CQ is polled first); parked in seq order
        #: until the ring drain closes the gap; a ``list`` from the first
        #: park in ``protocol.in_order`` on
        self.cq_stash: Union[List["Header"], Tuple[()]] = ()
        # sender half (set by point_tx_ring at wiring)
        self.tx_addr = 0
        self.tx_rkey = 0
        self.tx_slots = 0
        self.tx_next = 0
        # observability
        self.messages = 0

    # ------------------------------------------------------------------
    # receiver side
    # ------------------------------------------------------------------
    def deposit(self, header: "Header") -> None:
        """An RDMA-written eager message became visible in some slot (the
        simulator routes it here from the MR landing)."""
        # Detect the arrival through the two-flag slot image.
        if not slot_message_ready(encode_slot(header)):  # pragma: no cover - layout is total
            raise RuntimeError(f"ring slot arrival not detectable: {header!r}")
        self._arrived.append(header)
        self.messages += 1
        if self.endpoint.observer is not None:
            self.endpoint.observer.on_ring_deposit(self, header)
        self.endpoint._ring_dirty.add(self.peer)
        self.endpoint.cq.wake()  # the blocked rank waits on its CQ alone

    def poll_peek(self, expected_seq: int) -> bool:
        """Would :func:`repro.mpi.protocol.ring_next` take a header now?"""
        return bool(self._arrived) and self._arrived[0].seq == expected_seq

    @property
    def has_arrivals(self) -> bool:
        return bool(self._arrived)

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------
    def point_tx_ring(self, addr: int, rkey: int, slots: int) -> None:
        """Aim at the peer's ring, cursor at slot 0 (every bring-up of the
        pair: a recovered one keeps its rings, and its captured arrivals)."""
        self.tx_addr = addr
        self.tx_rkey = rkey
        self.tx_slots = slots
        self.tx_next = 0

    def next_ring_addr(self) -> int:
        """The next slot address in the peer's current ring."""
        addr = self.tx_addr + self.tx_next * self.slot_bytes
        self.tx_next = (self.tx_next + 1) % self.tx_slots
        return addr

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<RDMAChannel {self.endpoint.rank}<->{self.peer} "
            f"slots={self.ring.slots} tx_next={self.tx_next}>"
        )
