"""Work requests and work completions (the descriptor types of the verbs
interface).

A :class:`SendWR` describes an outbound operation (channel-semantics SEND or
memory-semantics RDMA write); a :class:`RecvWR` describes where an
inbound SEND's payload may land.  Completions are reported as :class:`WC`
entries on a completion queue.  ``context`` fields are opaque to the IB
layer — the MPI implementation stores its protocol headers there.

These are hand-written ``__slots__`` classes rather than dataclasses: a WC
is allocated for every completion and a SendWR for every posted
send, so the dataclass ``__init__``/``__post_init__`` indirection was
measurable on the hot path.  Construction stays keyword-compatible with
the previous dataclass signatures.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any

from repro.ib.types import Opcode, WCStatus


class SendWR:
    """An outbound work request.

    Parameters
    ----------
    wr_id:
        Caller cookie returned in the matching completion.
    opcode:
        SEND consumes a remote receive WQE; RDMA_WRITE does not.
    length:
        Payload bytes.
    payload:
        Opaque data object delivered to the remote side (SEND) or written
        into the remote MR (RDMA_WRITE).
    remote_addr, rkey:
        Target region for RDMA operations (must be within a registered MR
        at the responder or the op completes with REMOTE_ACCESS_ERROR).

    Every send completes: its completion releases what the poster holds
    for it (an MPI send's vbuf or pin).
    """

    __slots__ = (
        "wr_id",
        "opcode",
        "length",
        "payload",
        "remote_addr",
        "rkey",
        "msn",
        "rnr_tries",
        "xport_tries",
    )

    def __init__(
        self,
        wr_id: Any,
        opcode: Opcode,
        length: int,
        payload: Any = None,
        remote_addr: int = 0,
        rkey: int = 0,
    ):
        if length < 0:
            raise ValueError(f"negative WR length {length}")
        if rkey == 0 and opcode is Opcode.RDMA_WRITE:
            raise ValueError(f"{opcode.value} requires an rkey")
        self.wr_id = wr_id
        self.opcode = opcode
        self.length = length
        self.payload = payload
        self.remote_addr = remote_addr
        self.rkey = rkey
        # transport bookkeeping (assigned by the QP; not caller-visible)
        self.msn = -1
        self.rnr_tries = 0
        self.xport_tries = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SendWR(wr_id={self.wr_id!r}, opcode={self.opcode!r}, "
            f"length={self.length!r}, payload={self.payload!r}, "
            f"remote_addr={self.remote_addr!r}, rkey={self.rkey!r})"
        )


class RecvWR:
    """An inbound buffer descriptor.

    ``capacity`` bounds the SEND payload that may land here; an overlong
    message completes with LOCAL_LENGTH_ERROR at the receiver (and the
    sender sees a remote error), mirroring IBA semantics.
    """

    __slots__ = ("wr_id", "capacity")

    def __init__(self, wr_id: Any, capacity: int):
        if capacity < 0:
            raise ValueError(f"negative recv capacity {capacity}")
        self.wr_id = wr_id
        self.capacity = capacity

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RecvWR(wr_id={self.wr_id!r}, capacity={self.capacity!r})"


@lru_cache(maxsize=None)
def shared_recv_wr(wr_id: Any, capacity: int) -> RecvWR:
    """The one descriptor for ``(wr_id, capacity)``: nothing mutates a
    :class:`RecvWR`, so the P - 1 connections a mesh holds *to* one peer (at
    one buffer size) post the same object instead of 48 B each."""
    return RecvWR(wr_id, capacity)


class WC:
    """A work completion.

    Attributes
    ----------
    wr_id:
        Cookie of the completed work request.
    opcode:
        For receive completions this is the opcode of the *remote* op
        (always SEND here, since RDMA bypasses receive WQEs).
    byte_len:
        Payload bytes transferred.
    data:
        For receive completions, the delivered payload object.
    qp_num / peer:
        Identify the connection the completion belongs to.
    is_recv:
        Distinguishes receive-side completions from send-side ones.
    """

    __slots__ = (
        "wr_id",
        "status",
        "opcode",
        "byte_len",
        "data",
        "qp_num",
        "peer",
        "is_recv",
    )

    def __init__(
        self,
        wr_id: Any,
        status: WCStatus,
        opcode: Opcode,
        byte_len: int = 0,
        data: Any = None,
        qp_num: int = -1,
        peer: int = -1,
        is_recv: bool = False,
    ):
        self.wr_id = wr_id
        self.status = status
        self.opcode = opcode
        self.byte_len = byte_len
        self.data = data
        self.qp_num = qp_num
        self.peer = peer
        self.is_recv = is_recv

    @property
    def ok(self) -> bool:
        return self.status is WCStatus.SUCCESS

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"WC(wr_id={self.wr_id!r}, status={self.status!r}, "
            f"opcode={self.opcode!r}, byte_len={self.byte_len!r}, "
            f"qp_num={self.qp_num!r}, peer={self.peer!r}, "
            f"is_recv={self.is_recv!r})"
        )
