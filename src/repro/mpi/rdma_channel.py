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
message out.  The paper's §7 remark is reproduced faithfully: the dynamic
scheme "is more complicated because cooperation between both the sender
and the receiver is necessary in order to increase the number of posted
buffers" — growing means allocating a *new, larger ring* and telling the
sender to switch (a RING_RESIZE control message); messages in flight to
the old ring drain by sequence number.

Simulation note: the receiver's memory polling is modelled by a one-shot
signal (owned by the endpoint) fired when an RDMA-written message becomes
visible — equivalent to a sub-microsecond spin loop without flooding the
event queue.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, List, Optional, Tuple

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
    """One generation of a connection's receive ring."""

    __slots__ = ("mr", "slots", "slot_bytes", "generation")

    def __init__(self, mr: MemoryRegion, slots: int, slot_bytes: int, generation: int):
        self.mr = mr
        self.slots = slots
        self.slot_bytes = slot_bytes
        self.generation = generation


class RDMAChannel:
    """Receiver-side state of one connection's RDMA eager channel.

    The *sender* half lives on the Connection: it just needs the current
    ring's (addr, rkey, slots) advertisement and the shared credit count.
    """

    def __init__(self, endpoint: "Endpoint", peer: int, slots: int, slot_bytes: int):
        self.endpoint = endpoint
        self.peer = peer
        self.slot_bytes = slot_bytes
        self.generation = 0
        self.ring = self._allocate(slots)
        #: arrived-but-unprocessed headers, ordered by sequence number (two
        #: ring generations can be in flight during a resize)
        self._arrived: List[Tuple[int, "Header"]] = []
        # observability
        self.messages = 0
        self.resizes = 0
        self.reestablishments = 0

    def _allocate(self, slots: int) -> RingBuffer:
        mr = self.endpoint.hca.reg_mr(max(1, slots) * self.slot_bytes)
        # the simulator routes an RDMA write's landing to deposit()
        mr.on_write = lambda addr, payload: self.deposit(payload)
        ring = RingBuffer(mr, slots, self.slot_bytes, self.generation)
        self.generation += 1
        return ring

    # ------------------------------------------------------------------
    # receiver side
    # ------------------------------------------------------------------
    def deposit(self, header: "Header") -> None:
        """An RDMA-written eager message became visible in some slot (the
        simulator routes it here from the MR landing)."""
        # Detect the arrival through the two-flag slot image.
        if not slot_message_ready(encode_slot(header)):  # pragma: no cover - layout is total
            raise RuntimeError(f"ring slot arrival not detectable: {header!r}")
        heapq.heappush(self._arrived, (header.seq, header))
        self.messages += 1
        aud = self.endpoint._audit
        if aud is not None:
            aud.on_ring_deposit(self, header)
        self.endpoint._ring_dirty.add(self.peer)
        self.endpoint._ring_signal_fire()

    def poll(self, expected_seq: int) -> Optional["Header"]:
        """Next in-sequence arrived header, if visible."""
        if self._arrived and self._arrived[0][0] == expected_seq:
            return heapq.heappop(self._arrived)[1]
        return None

    def poll_peek(self, expected_seq: int) -> bool:
        """Would :meth:`poll` return a header right now?"""
        return bool(self._arrived) and self._arrived[0][0] == expected_seq

    @property
    def has_arrivals(self) -> bool:
        return bool(self._arrived)

    # ------------------------------------------------------------------
    # dynamic growth: the two-sided resize the paper's §7 describes
    # ------------------------------------------------------------------
    def grow(self, new_slots: int) -> RingBuffer:
        """Allocate the next-generation ring (receiver side).  The old
        ring stays readable until the sender has switched; the returned
        ring's coordinates travel to the sender in a RING_RESIZE control
        message."""
        self.ring = self._allocate(new_slots)
        self.resizes += 1
        return self.ring

    def reestablish(self) -> RingBuffer:
        """Recovery: allocate a fresh ring generation after the QP
        incarnation backing the old one died.  The transport's epoch
        guard already drops in-flight writes from the dead era, so the
        new ring starts empty at slot 0; arrivals already captured in
        :attr:`_arrived` stay queued — they were delivered and will be
        processed (and their slots reported reclaimed) after resync."""
        self.ring = self._allocate(self.ring.slots)
        self.reestablishments += 1
        return self.ring

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<RDMAChannel {self.endpoint.rank}<-{self.peer} "
            f"slots={self.ring.slots} gen={self.ring.generation}>"
        )
