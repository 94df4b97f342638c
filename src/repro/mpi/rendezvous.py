"""Rendezvous protocol bookkeeping.

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

Small messages normally go eager, but a credit-starved connection pushes
backlogged small sends through this handshake too (*fallback mode*).  To
avoid charging a tens-of-microseconds registration for a 4-byte payload,
fallback transfers ride pre-registered *bounce slots* on both sides, paying
memcpys instead of pins — the same trick real MPI stacks use for their
R3/copy-based rendezvous path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.ib.mr import MemoryRegion
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
    """A pre-registered scratch region carved into fixed slots, used by
    fallback-mode rendezvous so tiny transfers never pay pin costs."""

    def __init__(self, mr: MemoryRegion, slot_bytes: int, slots: int):
        self.mr = mr
        self.slot_bytes = slot_bytes
        self.slots = slots
        self._next = 0

    def next_slot(self) -> int:
        """Address of the next scratch slot (round-robin; safe because at
        most one fallback handshake is active per connection and slot count
        far exceeds the connection count)."""
        addr = self.mr.addr + self._next * self.slot_bytes
        self._next = (self._next + 1) % self.slots
        return addr
