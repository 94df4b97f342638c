"""The flow-control scheme interface (the paper's §4).

A scheme decides, per connection:

* how many receive vbufs to pre-post initially (and later — the dynamic
  scheme grows this at runtime),
* whether a credit gate applies to unexpected messages and when a send must
  be diverted to the backlog queue,
* when the receiver ships credits back explicitly (ECMs) rather than by
  piggybacking,
* whether a credit-starved connection may fall back to the rendezvous
  protocol (whose handshake refreshes credits — paper §4.2).

Schemes are *stateless policy objects*: all mutable state lives on
:class:`repro.mpi.connection.Connection`, so one scheme instance is shared
by every endpoint of a job and can be interrogated afterwards.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.config import MPIConfig
    from repro.mpi.connection import Connection
    from repro.mpi.protocol import Header


class SchemeName(enum.Enum):
    """The paper's three schemes, plus the RDMA-write ring eager design
    from the MPICH2-over-InfiniBand sequel (Liu et al.)."""

    HARDWARE = "hardware"
    STATIC = "static"
    DYNAMIC = "dynamic"
    RDMA_EAGER = "rdma-eager"


class FlowControlScheme:
    """Abstract base.  Subclasses override the policy hooks."""

    name: SchemeName

    #: False for the hardware-based scheme: no MPI-level credit machinery at
    #: all — outgoing messages are posted immediately and the InfiniBand
    #: end-to-end flow control (RNR NAK + retry) copes with overruns.
    uses_credits: bool = True

    #: True when eager messages travel by RDMA write into a per-connection
    #: ring of pre-agreed slots (polling detection) instead of SEND into a
    #: receive WQE.  Connection setup then allocates the ring pair at
    #: connect time and the progress engine arms the ring-dirty wakeup
    #: alongside the CQ wait.
    uses_ring: bool = False

    #: May a credit-starved sender push the head of its backlog through the
    #: rendezvous protocol without a credit?  (paper §4.2: "when there are
    #: no credits, only Rendezvous protocol is used")
    allows_rndv_fallback: bool = True

    #: How many optimistic fallback handshakes may be in flight at once per
    #: connection.  Deep enough to pipeline the handshake latency behind the
    #: receiver's compute, shallow enough that the unpaid RTS traffic cannot
    #: swamp a one-buffer receiver with RNR storms.
    fallback_window: int = 4

    #: Extra receive vbufs posted per connection *outside* the credit
    #: covenant, absorbing optimistic (unpaid) control traffic — ECMs,
    #: rendezvous CTS/FIN and fallback RTSs.  Real MVAPICH-family stacks
    #: keep exactly such a reserve so that non-flow-controlled messages do
    #: not trip the hardware RNR path.  Zero for the hardware-based scheme,
    #: which has no optimistic traffic (and whose appeal is having no extra
    #: machinery).  The paper's pre-post experiments count *credited*
    #: buffers, which is what Table 2 and the benches report.
    optimistic_headroom: int = 3

    # ------------------------------------------------------------------
    # connection lifecycle
    # ------------------------------------------------------------------
    def setup_connection(self, conn: "Connection", requested_prepost: int) -> None:
        """Initialise credit/prepost state at MPI_Init time: the receive
        budget (``prepost_target + headroom``) whoever wires the connection
        then posts — :meth:`setup_budget` buffers."""
        raise NotImplementedError

    def setup_budget(self, prepost: int, mpi: "MPIConfig") -> int:
        """Receive WQEs one connection posts at set-up, at pre-post
        ``prepost``: what ``Cluster.launch`` checks against ``rq_depth``."""
        return prepost + self.optimistic_headroom

    # ------------------------------------------------------------------
    # sender-side hooks
    # ------------------------------------------------------------------
    def try_consume_credit(self, conn: "Connection") -> bool:
        """Gate for credit-consuming (unexpected) messages.  True → the
        caller may post now; False → the send joins the backlog."""
        raise NotImplementedError

    def on_credits_received(self, conn: "Connection", n: int) -> None:
        """Piggybacked or explicit credits arrived from the peer."""
        if n:
            conn.credits += n

    # ------------------------------------------------------------------
    # receiver-side hooks
    # ------------------------------------------------------------------
    def on_recv_header(self, conn: "Connection", header: "Header") -> int:
        """Inspect an arrived header (feedback bit etc.).  Returns the
        number of *newly posted* receive buffers so the caller can charge
        posting time (only the dynamic scheme ever returns non-zero)."""
        return 0

    def should_send_ecm(self, conn: "Connection") -> bool:
        """Called after a vbuf is re-posted; True → the endpoint emits an
        explicit credit message carrying ``pending_credit_return``."""
        return False

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__}>"
