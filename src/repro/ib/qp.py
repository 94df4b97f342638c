"""Reliable Connection queue pairs: the verbs surface of one end of an RC
connection, executing what :mod:`repro.ib.transport` decides — it starts
or cancels a timer, pushes a WC, sends a control packet or kicks the
adapter's send engine (DESIGN §5.5)."""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.ib import transport
from repro.ib.transport import Requester
from repro.ib.types import Opcode, QPState, WCStatus
from repro.ib.wr import WC, RecvWR, SendWR

if TYPE_CHECKING:  # pragma: no cover
    from repro.ib.cq import CompletionQueue
    from repro.ib.hca import HCA


class QPError(RuntimeError):
    pass


class _Message:
    """What actually crosses the fabric (one per MPI-level message)."""

    __slots__ = (
        "src_lid",
        "src_qpn",
        "dst_lid",
        "dst_qpn",
        "opcode",
        "msn",
        "length",
        "payload",
        "remote_addr",
        "rkey",
    )

    def __init__(self, qp: "QueuePair", wr: SendWR):
        self.src_lid = qp.hca.lid
        self.src_qpn = qp.qp_num
        self.dst_lid = qp.remote_lid
        self.dst_qpn = qp.remote_qpn
        self.opcode = wr.opcode
        self.msn = wr.msn
        self.length = wr.length
        self.payload = wr.payload
        self.remote_addr = wr.remote_addr
        self.rkey = wr.rkey


class QueuePair:
    """One end of a reliable connection.

    Created via :meth:`repro.ib.hca.HCA.create_qp`; wire up with
    :meth:`connect` before posting.  A QP that entered ERROR is never
    revived: :meth:`successor` replaces it with a new one.
    """

    # Slots instead of a per-instance dict, and what is constant per adapter
    # (queue depths, the pipelining window, a fault plan's ACK timeout) read
    # from the HCA; the requester half is an object of its own (DESIGN §6.4).
    __slots__ = (
        "hca", "qp_num", "send_cq", "recv_cq",
        "state", "remote_lid", "remote_qpn", "_peer_qp", "epoch",
        "_req",
        "_rq", "_expected_msn",
        "rnr_naks_sent", "messages_delivered",
    )

    def __init__(
        self,
        hca: "HCA",
        qp_num: int,
        send_cq: "CompletionQueue",
        recv_cq: "CompletionQueue",
    ):
        self.hca = hca
        self.qp_num = qp_num
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.state = QPState.RESET
        self.remote_lid = -1
        self.remote_qpn = -1
        self._peer_qp: Optional["QueuePair"] = None  # resolved lazily
        #: connection incarnation, a label: :meth:`successor` counts it up
        #: (what was in flight to or from a dead incarnation names its
        #: destroyed number or its flushed object, and goes nowhere)
        self.epoch = 0

        #: the send half, built with the adapter's fault-plan transport
        #: settings (``hca.fault_transport``)
        self._req = Requester(hca.fault_transport)

        # --- responder state ---
        #: posted receive WQEs, FIFO.  A list, not a deque (``rq_depth``
        #: bounds it — DESIGN §6.4): an idle mesh connection holds one to
        #: four, and a deque's first block is 760 B
        self._rq: List[RecvWR] = []
        self._expected_msn = 0

        # --- observability (the requester keeps its own three) ---
        self.rnr_naks_sent = 0
        self.messages_delivered = 0

    rnr_naks_received = property(lambda self: self._req.rnr_naks_received)
    retransmissions = property(lambda self: self._req.retransmissions)
    messages_sent = property(lambda self: self._req.messages_sent)

    def retry_counts(self) -> Tuple[int, int]:
        """``(RNR NAKs received, retransmissions)`` since the last
        :meth:`reset_counters` — a flow-control report's verbs columns."""
        req = self._req
        return req.rnr_naks_received, req.retransmissions

    def reset_counters(self) -> None:
        self.rnr_naks_sent = 0
        self.messages_delivered = 0
        req = self._req
        req.rnr_naks_received = req.retransmissions = req.messages_sent = 0

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------
    def connect(self, remote_lid: int, remote_qpn: int) -> None:
        if self.state is not QPState.RESET:
            raise QPError(f"QP {self.qp_num}: connect() in state {self.state}")
        self.remote_lid = remote_lid
        self.remote_qpn = remote_qpn
        self.state = QPState.READY

    def force_error(self) -> None:
        """Recovery teardown: transition to ERROR and flush outstanding
        work with ``WR_FLUSH_ERROR`` completions.  Idempotent — a QP that
        already errored out (and flushed) is left alone, so the recovery
        manager can call this on both ends of a pair without caring which
        one detected the fault."""
        if self.state is not QPState.ERROR:
            self._flush()

    def successor(self) -> "QueuePair":
        """The new QP (RESET, the adapter's next number) that takes over
        from this dead one, which is destroyed: packets still in flight to
        its number are dropped, and control bound to this object finds its
        queues flushed.  It keeps what was set on this one (the armed
        transport retry, the e2e credit seed), the job's counters and the
        next :attr:`epoch`."""
        hca, req = self.hca, self._req
        hca.destroy_qp(self)
        qp = hca.create_qp(self.send_cq, self.recv_cq)
        qp.arm_transport((req._xport_timeout_ns, req._xport_limit)
                         if req._xport_enabled else None)
        qp.set_initial_credit_estimate(req._credit_seed)
        for counter in ("rnr_naks_received", "retransmissions", "messages_sent"):
            setattr(qp._req, counter, getattr(req, counter))
        qp.rnr_naks_sent, qp.messages_delivered = self.rnr_naks_sent, self.messages_delivered
        qp.epoch = self.epoch + 1
        return qp

    def set_initial_credit_estimate(self, credits: Optional[int]) -> None:
        """Seed the requester's view of remote receive WQEs (the consumer
        knows how many buffers it pre-posted on the other side)."""
        self._req._credit_est = self._req._credit_seed = credits

    def _peer(self) -> "QueuePair":
        # Resolved once and cached: the remote end of an RC connection
        # never changes after connect().  The two-dict chase sat on the
        # per-message ACK path.
        peer = self._peer_qp
        if peer is None:
            peer = self._peer_qp = self.hca.fabric.hca_at(self.remote_lid).qp(
                self.remote_qpn
            )
        return peer

    # ------------------------------------------------------------------
    # verbs: posting
    # ------------------------------------------------------------------
    def post_send(self, wr: SendWR) -> None:
        if self.state is not QPState.READY:
            raise QPError(f"QP {self.qp_num}: post_send in state {self.state}")
        req = self._req
        if len(req._sq) + len(req._inflight) >= self.hca.sq_depth:
            raise QPError(f"QP {self.qp_num}: send queue overflow (depth {self.hca.sq_depth})")
        req._sq.append(wr)
        self.hca._kick(self)

    def post_recv(self, wr: RecvWR, n: int = 1) -> None:
        """Post ``n`` receive WQEs described by ``wr`` (a descriptor is
        never mutated once posted, so the ``n`` entries share it)."""
        if self.state is QPState.ERROR:
            raise QPError(f"QP {self.qp_num}: post_recv in ERROR state")
        rq = self._rq
        if len(rq) + n > self.hca.rq_depth:
            raise QPError(f"QP {self.qp_num}: receive queue overflow")
        rq.extend((wr,) * n)

    @property
    def posted_recvs(self) -> int:
        return len(self._rq)

    @property
    def outstanding_sends(self) -> int:
        req = self._req
        return len(req._sq) + len(req._inflight)

    # ------------------------------------------------------------------
    # executing the transport's decisions (repro.ib.transport)
    # ------------------------------------------------------------------
    def arm_transport(self, xport: Optional[Tuple[int, int]]) -> None:
        """Arm this QP's RC local-ACK-timeout retry with ``(timeout_ns,
        retry_limit)``, or disarm it (``None``): :func:`transport.arm`.  A
        fault plan arms and disarms every QP of an adapter; a congestion
        drop arms the QP whose request it dropped."""
        act = transport.arm(self._req, xport)
        if act == transport.WATCH:
            self._watch()
        elif act == transport.CANCEL:
            self._req._xport_timer.cancel()
            self._req._xport_timer = None

    def _watch(self) -> None:
        """Start the ACK timer (a transition returned ``WATCH``)."""
        req = self._req
        req._xport_timer = self.hca.sim.schedule(req._xport_timeout_ns, self._xport_expire)

    def _on_ack(self, msn: int, advertised: int) -> None:
        req = self._req
        wr = transport.retire(req, msn, advertised)
        if wr is None:
            return
        # per message: positional, in WC's field order
        self.send_cq.push(
            WC(wr.wr_id, WCStatus.SUCCESS, wr.opcode, wr.length, None,
               self.qp_num, self.remote_lid)
        )
        self.hca._kick(self)

    def _on_rnr_nak(self, msn: int) -> None:
        wait = transport.rnr_nak(self._req, msn, self.hca.config)
        if wait == transport.DROP:
            return
        self.hca.tracer.count("ib.rnr_nak", (self.hca.lid, self.remote_lid))
        if wait == transport.FATAL:
            self._fail(msn, WCStatus.RNR_RETRY_EXCEEDED)
        else:
            self._req._rnr_timer_ev = self.hca.sim.schedule(wait, self._rnr_expire, msn)

    def _rnr_expire(self, nak_msn: int) -> None:
        self._req._rnr_timer_ev = None
        transport.rnr_expire(self._req, nak_msn)
        self.hca._kick(self)

    def _xport_expire(self) -> None:
        req = self._req
        req._xport_timer = None
        act = transport.expire(req)
        if act == transport.DROP:
            return
        if act != transport.WATCH:
            self.hca.tracer.count("faults.transport_timeout", (self.hca.lid, self.remote_lid))
        if act == transport.FATAL:
            self._fail(min(req._inflight), WCStatus.RETRY_EXCEEDED)
            return
        self._watch()
        if act == transport.REPLAY:
            self.hca._kick(self)

    def _on_remote_error(self, msn: int, status: WCStatus) -> None:
        if transport.remote_error(self._req, msn) == transport.FATAL:
            self._fail(msn, status)

    def _fail(self, msn: int, status: WCStatus) -> None:
        """``msn`` completes with ``status``; the QP enters ERROR."""
        wr = transport.retire(self._req, msn)
        self._error(wr.wr_id, wr.opcode, status)
        self._flush()

    def _flush(self) -> None:
        """Enter ERROR — every way in comes here: stop both timers and
        complete every queued, in-flight and posted WR with
        ``WR_FLUSH_ERROR``."""
        self.state = QPState.ERROR
        req = self._req
        for wr in transport.flush(req):
            self._error(wr.wr_id, wr.opcode, WCStatus.WR_FLUSH_ERROR)
        for ev in (req._rnr_timer_ev, req._xport_timer):
            if ev is not None:
                ev.cancel()
        req._rnr_timer_ev = req._xport_timer = None
        for rwr in self._rq:
            self._error(rwr.wr_id, Opcode.SEND, WCStatus.WR_FLUSH_ERROR, True)
        self._rq.clear()

    def _error(self, wr_id, opcode: Opcode, status: WCStatus, recv: bool = False,
               byte_len: int = 0) -> None:
        """An error completion of this QP, on its receive CQ (``recv``) or
        its send CQ."""
        (self.recv_cq if recv else self.send_cq).push(
            WC(wr_id, status, opcode, byte_len, None, self.qp_num, self.remote_lid, recv))

    def _receive(self, msg: _Message) -> None:
        """An inbound message at receive-engine service time (the HCA)."""
        act = transport.respond(self, msg, self.hca.mrs)
        if act == transport.DROP:
            return
        hca = self.hca
        rq = self._rq
        if act == transport.DELIVER:
            # engine time is already paid: complete now (per message:
            # positional, in WC's field order).  ``del``, not ``pop(0)``: a
            # queue emptied by ``del`` frees its array
            rwr = rq[0]
            del rq[0]
            self.recv_cq.push(
                WC(rwr.wr_id, WCStatus.SUCCESS, Opcode.SEND, msg.length,
                   msg.payload, self.qp_num, msg.src_lid, True)
            )
        elif act == transport.RNR_NAK:
            hca.tracer.count("ib.rnr_nak_sent", (hca.lid, msg.src_lid))
            hca.fabric.send_control(hca.lid, msg.src_lid, self._peer()._on_rnr_nak, msg.msn)
            return
        elif act != transport.ACK:  # a length or an RDMA access error
            if act == transport.LENGTH_ERROR:
                rwr = rq[0]
                del rq[0]
                self._error(rwr.wr_id, Opcode.SEND, WCStatus.LOCAL_LENGTH_ERROR, True,
                            msg.length)
            hca.fabric.send_control(hca.lid, msg.src_lid, self._peer()._on_remote_error,
                                    msg.msn, WCStatus.REMOTE_ACCESS_ERROR)
            if act == transport.LENGTH_ERROR:
                self._flush()
            return
        # the e2e credit field: the receive WQEs left
        hca.fabric.send_control(hca.lid, msg.src_lid, (self._peer_qp or self._peer())._on_ack,
                                msg.msn, len(rq))

    check_invariants = transport.check_invariants

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<QP {self.qp_num}@{self.hca.lid}->{self.remote_qpn}@{self.remote_lid} "
            f"{self.state.value} sq={len(self._req._sq)} inflight={len(self._req._inflight)} "
            f"rq={len(self._rq)}>"
        )
