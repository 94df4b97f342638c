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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.mpi.constants import ANY_SOURCE, ANY_TAG


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
