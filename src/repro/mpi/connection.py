"""Per-peer connection state.

One :class:`Connection` exists for every ordered pair of ranks that has
been wired (the paper's MPI sets up a Reliable Connection between every
two processes during ``MPI_Init``; the simulator builds a static-mesh
pair at its first touch, as ``MPI_Init`` would have).  It owns the QP and
both halves of the flow-control state:

**sender half** — ``credits`` (how many more unexpected messages this rank
may push to the peer), the FIFO ``backlog`` of sends that found no credit,
and the rendezvous-fallback latch;

**receiver half** — ``prepost_target`` (how many vbufs this rank keeps
posted for the peer; *the* scalability quantity the paper studies),
``recv_posted``, and ``pending_credit_return`` (credits accumulated for the
peer, shipped by piggyback or explicit credit message).

The credit protocol, :mod:`repro.core.credit`, moves exactly these fields
under the schemes' policies; the endpoint and progress engine execute what
it returns and are scheme-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Deque, Optional, Tuple, Union

from repro.ib.qp import QueuePair
from repro.ib.wr import RecvWR
from repro.mpi.protocol import Header

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.endpoint import Endpoint
    from repro.mpi.rdma_channel import RDMAChannel


@dataclass
class PendingSend:
    """A backlogged send operation (paper §4.2: the backlog queue)."""

    header: Header
    request: Any = None  # the send's Request
    enqueue_ns: int = 0


@dataclass(slots=True)
class ConnStats:
    """Per-connection observability, aggregated into the paper's tables."""

    msgs_sent: int = 0  # every MPI-level message incl. control
    data_msgs_sent: int = 0  # eager payloads + rendezvous transfers
    ctl_msgs_sent: int = 0  # handshake control plane: RTS/CTS/FIN
    ecm_sent: int = 0  # explicit credit messages (Table 1)
    backlogged: int = 0  # sends that went through the backlog
    ctl_backlogged: int = 0  # of which control-plane (backlogged RTSs)
    backlog_max: int = 0  # high-water backlog depth (robustness metric)
    rndv_fallbacks: int = 0  # small sends converted to rendezvous
    max_prepost: int = 0  # high-water prepost_target (Table 2)
    credit_stalled_ns: int = 0  # cumulative head-of-backlog wait
    piggybacked_credits: int = 0
    ecm_credits: int = 0


class Connection:
    """State for one directed rank→rank link (shared by both directions:
    each rank owns its endpoint's Connection object to the peer)."""

    # Slots, and the two queues below are the shared empty tuple until their
    # first append (DESIGN §6.4).
    __slots__ = (
        "endpoint", "peer", "qp",
        "credits", "backlog", "fallback_inflight", "seq_out",
        "prepost_target", "headroom", "recv_wr", "recv_posted",
        "pending_credit_return", "swallow_debt", "seq_in_expected",
        "_decay_quiet_msgs", "_grow_barrier_seq",
        "ring",
        "recovering", "deferred", "stats",
    )

    def __init__(self, endpoint: "Endpoint", peer: int, qp: QueuePair):
        self.endpoint = endpoint
        self.peer = peer
        self.qp = qp

        # --- sender half ---
        self.credits = 0
        #: FIFO of sends that found no credit; a ``deque`` from the first
        #: ``Endpoint._enqueue_backlog`` on (only the application bounds its
        #: depth, so not a list — DESIGN §6.4)
        self.backlog: Union[Deque[PendingSend], Tuple[()]] = ()
        self.fallback_inflight = 0  # outstanding optimistic handshakes
        self.seq_out = 0

        # --- receiver half ---
        self.prepost_target = 0
        #: set by the scheme: the **receive budget** is ``prepost_target +
        #: headroom``, read in place.  Its non-credited reserve — or, where
        #: ``prepost_target`` counts ring slots, the control reserve less those
        self.headroom = 0
        #: the descriptor every receive vbuf of this connection is posted
        #: with (set by ``Endpoint._set_up``; never mutated, so all
        #: posted WQEs share it)
        self.recv_wr: Optional[RecvWR] = None
        #: receiver-half state of dynamic growth, ``credit.grow`` (only a fresh
        #: connection is set up, so not reset there): quiet-streak length for
        #: the optional decay, and the sequence number growth feedback is
        #: ignored up to (the rate limit)
        self._decay_quiet_msgs = 0
        self._grow_barrier_seq = -1

        self.recv_posted = 0
        self.pending_credit_return = 0
        #: credits a decay took off the target that still circulate
        self.swallow_debt = 0
        self.seq_in_expected = 0

        #: the RDMA eager channel, both halves — set by
        #: ``Endpoint._set_up`` iff the scheme owns a ring
        #: (``FlowControlScheme.uses_ring``), else None
        self.ring: Optional["RDMAChannel"] = None

        # --- recovery (inert unless a RecoveryManager is installed) ---
        #: True while the underlying QP pair is being re-established; new
        #: emissions park in ``deferred`` instead of touching the QP
        self.recovering = False
        #: ``Endpoint._emit`` arguments ``(header, ref)`` parked during
        #: recovery, re-emitted FIFO (after replays) once the QP re-arms;
        #: a ``deque`` from the first parked emission on
        self.deferred: Union[Deque[tuple], Tuple[()]] = ()

        self.stats = ConnStats(max_prepost=endpoint.requested_prepost)

    # ------------------------------------------------------------------
    # receiver-half helpers
    # ------------------------------------------------------------------
    def post_setup_buffers(self) -> None:
        """Post the receive budget as ``MPI_Init`` does, before any receiver
        stall or auditor can exist: what a static-mesh pair wired at first
        touch holds (on demand, :meth:`refill_recv_buffers` posts it)."""
        n = self.prepost_target + self.headroom
        self.qp.post_recv(self.recv_wr, n)
        self.recv_posted = n

    def refill_recv_buffers(self) -> int:
        """Post receive vbufs up to the receive budget; returns how many
        were posted (the endpoint charges the CPU cost)."""
        if self.endpoint._stall_until > self.endpoint.sim.now:
            return 0  # receiver stalled (fault injection): no reposts
        missing = self.prepost_target + self.headroom - self.recv_posted
        if missing <= 0:
            return 0
        return self.endpoint._post_recv_vbuf(self, missing)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Conn {self.endpoint.rank}->{self.peer} credits={self.credits} "
            f"backlog={len(self.backlog)} prepost={self.prepost_target} "
            f"pending_ret={self.pending_credit_return}>"
        )
