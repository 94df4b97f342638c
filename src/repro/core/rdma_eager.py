"""RDMA-write ring-buffer eager flow control (the Liu et al. sequel).

The paper's three schemes all spend a receive WQE per eager message; the
MPICH2-over-InfiniBand follow-up RDMA-writes small messages into a
per-connection *persistent ring* of fixed-size slots instead.  The
receiver discovers arrivals by polling the slot memory (two-flag
head/tail layout, see :mod:`repro.mpi.rdma_channel`) — no receive WQE,
no CQE, no RNR path for eager traffic.

Flow control changes currency, not shape: the sender holds one token per
*free ring slot* and each eager message consumes one; at zero tokens
sends divert to the FIFO backlog queue exactly as under the static
scheme.  Slots are reclaimed when the receiver copies the message out,
and the reclamation notice travels back by:

* **piggybacking** — every reverse-direction message carries the
  accumulated reclaimed-slot count (the common case for symmetric
  patterns);
* **low-watermark explicit ACK** — when the receiver's unreported
  reclamations grow so large that the sender's worst-case view of free
  slots has dropped to ``reclaim_watermark``, an explicit credit message
  ships them immediately.  This is deliberately lazier than the static
  scheme's ECM threshold: ring slots are cheap to leave unreported while
  the sender still has plenty, and the explicit packet is only worth its
  wire cost when starvation is near.

Messages larger than a slot fall back to the rendezvous protocol (whose
handshake also refreshes slot tokens, so a slot-starved backlog can
always drain).  Control traffic (RTS/CTS/FIN, explicit ACKs) still
travels by SEND into the small ``rdma_control_bufs`` reserve — the ring
carries eager data only, so ``optimistic_headroom`` is zero.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.base import FlowControlScheme, SchemeName

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.config import MPIConfig
    from repro.mpi.connection import Connection

#: Fire the explicit slot-reclamation ACK when the sender's worst-case
#: free-slot count (ring size minus unreported reclamations) falls this
#: low.  Two keeps one slot for the in-flight message that triggered the
#: report plus one of slack, while staying lazy enough that symmetric
#: traffic almost never pays for an explicit packet.
DEFAULT_RECLAIM_WATERMARK = 2


class RdmaEagerScheme(FlowControlScheme):
    """Per-connection RDMA-write ring with slot-reclamation flow control."""

    name = SchemeName.RDMA_EAGER
    uses_credits = True
    uses_ring = True
    #: Control traffic rides the fixed ``rdma_control_bufs`` reserve that
    #: every ring connection posts (:meth:`setup_budget`), not an extra
    #: per-scheme headroom.
    optimistic_headroom = 0

    def __init__(self, reclaim_watermark: int = DEFAULT_RECLAIM_WATERMARK):
        if reclaim_watermark < 1:
            raise ValueError("reclaim_watermark must be >= 1")
        self.reclaim_watermark = reclaim_watermark

    def setup_budget(self, prepost: int, mpi: "MPIConfig") -> int:
        return mpi.rdma_control_bufs  # the slots are ring memory, not WQEs

    def setup_connection(self, conn: "Connection", requested_prepost: int) -> None:
        # The ring was allocated by Endpoint.add_connection before this
        # hook runs; prepost_target doubles as the ring's slot count and
        # the token pool size, so the headroom is what brings the receive
        # budget down to the control-buffer reserve.
        conn.prepost_target = requested_prepost
        conn.headroom = self.setup_budget(
            requested_prepost, conn.endpoint.config) - requested_prepost
        conn.credits = requested_prepost
