"""Reliable Connection queue pairs.

This module is the transport heart of the substrate.  Each QP implements
both halves of the IBA RC protocol at message granularity:

**Requester** — WQEs posted to the send queue are injected in order by the
HCA send engine, up to a pipelining window.  Each message carries a message
sequence number (MSN).  A send completes (CQE) when its acknowledgement
returns.  If the responder had no receive WQE, the requester receives an
RNR NAK, freezes the QP for the configured RNR timer, then *replays* every
unacknowledged message from the NAK point — exactly the
timeout-and-retransmit behaviour the paper's hardware-based flow control
scheme leans on.

**Responder** — accepts only the expected MSN (late/duplicate packets from
a replay era are dropped), consumes a receive WQE per SEND, never consumes
one for RDMA, and acknowledges with a piggybacked advertisement of its
remaining receive-WQE count (the IBA end-to-end flow-control credit field).

The requester uses the advertised credits to gate SEND injection: with zero
known credits it keeps at most one probe message outstanding rather than
blasting the full window into a NAK storm.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.ib.mr import RemoteAccessError
from repro.ib.types import INFINITE_RETRY, Opcode, QPState, WCStatus
from repro.ib.wr import WC, RecvWR, SendWR

if TYPE_CHECKING:  # pragma: no cover
    from repro.ib.cq import CompletionQueue
    from repro.ib.hca import HCA


class QPError(RuntimeError):
    pass


class Requester:
    """The send half of a queue pair: what is queued and in flight, the
    per-incarnation transport state around it, and what it counted.  Each
    QP builds its own when it is created."""

    __slots__ = (
        "_sq", "_inflight", "_next_msn", "_rnr_waiting", "_rnr_timer_ev",
        "_credit_est", "_credit_est_msn", "_sends_inflight",
        "_xport_enabled", "_xport_timeout_ns", "_xport_limit", "_xport_timer",
        "_xport_acks", "_xport_seen",
        "rnr_naks_received", "retransmissions", "messages_sent",
    )

    def __init__(self, xport: Optional[Tuple[int, int]]):
        self._rnr_timer_ev = self._xport_timer = None
        self.set_transport(xport)
        self.rnr_naks_received = self.retransmissions = self.messages_sent = 0
        self.rewind()

    def set_transport(self, xport: Optional[Tuple[int, int]]) -> None:
        """Fault-mode transport reliability.  An ideal fabric never loses a
        message, so the seed transport has no ACK-timeout machinery
        (``None``); with ``(timeout_ns, retry_limit)`` the requester runs a
        real RC local-ACK-timeout timer: no progress for a full period means
        the oldest unacked message was lost, so replay from it."""
        self._xport_enabled = xport is not None
        self._xport_timeout_ns, self._xport_limit = xport or (0, INFINITE_RETRY)
        if xport is None and self._xport_timer is not None:
            self._xport_timer.cancel()
            self._xport_timer = None

    def cancel_timers(self) -> None:
        for ev in (self._rnr_timer_ev, self._xport_timer):
            if ev is not None:
                ev.cancel()
        self._rnr_timer_ev = self._xport_timer = None

    def rewind(self) -> None:
        """A new incarnation: every per-connection transport artifact back
        to what a fresh requester has.  The transport settings (static QP
        attributes) and the job's counters are not per incarnation."""
        self.cancel_timers()
        #: waiting to inject (incl. replays), and msn -> WR awaiting its
        #: ACK.  ``sq_depth`` bounds the queue: a list, not a deque
        self._sq: List[SendWR] = []
        self._inflight: Dict[int, SendWR] = {}
        self._next_msn = 0
        self._rnr_waiting = False
        self._credit_est: Optional[int] = None  # None = unknown/unlimited
        self._credit_est_msn = -1  # freshness of the estimate
        self._sends_inflight = 0
        self._xport_acks = 0  # requester progress marker (ACKs absorbed)
        self._xport_seen = 0  # progress at the last timer expiry


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
        "is_read_response",
        "read_wr_msn",
        "epoch",
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
        self.is_read_response = False
        self.read_wr_msn = -1
        self.epoch = qp.epoch


class QueuePair:
    """One end of a reliable connection.

    Created via :meth:`repro.ib.hca.HCA.create_qp`; wire up with
    :meth:`connect` before posting.
    """

    # Slots instead of a per-instance dict, and what is constant per adapter
    # (queue depths, the pipelining window, a fault plan's ACK timeout) read
    # from the HCA; the requester half is an object of its own (DESIGN §6.4).
    __slots__ = (
        "hca", "qp_num", "send_cq", "recv_cq",
        "state", "remote_lid", "remote_qpn", "_peer_qp", "epoch",
        "_req",
        "_rq", "_expected_msn", "reack_stale",
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
        #: connection incarnation — bumped by :meth:`reset` so in-flight
        #: messages and control callbacks from a pre-fault era are
        #: recognisably stale (MSNs restart at 0 per epoch, so without the
        #: stamp an old ACK could acknowledge a new message)
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
        #: fault mode: re-acknowledge stale duplicates (their ACK was lost
        #: on the wire) instead of dropping them silently
        self.reack_stale = hca.fault_transport is not None

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
        self._peer_qp = None
        self.state = QPState.READY

    def force_error(self) -> None:
        """Recovery teardown: transition to ERROR and flush outstanding
        work with ``WR_FLUSH_ERROR`` completions.  Idempotent — a QP that
        already errored out (and flushed) is left alone, so the recovery
        manager can call this on both ends of a pair without caring which
        one detected the fault."""
        if self.state is QPState.ERROR:
            return
        self.state = QPState.ERROR
        self._flush()

    def reset(self) -> None:
        """ERROR → RESET (the verbs modify-QP step that precedes
        re-establishment).  Clears every per-incarnation transport
        artifact — MSN counters, credit estimate, RNR/ACK-timeout timers —
        and bumps :attr:`epoch` so anything still in flight from the old
        incarnation is dropped by the epoch guards.  Fault-mode transport
        settings (:meth:`enable_transport_retry`) survive, as they model
        static QP attributes."""
        if self.state is not QPState.ERROR:
            raise QPError(f"QP {self.qp_num}: reset() in state {self.state}")
        self.state = QPState.RESET
        self.epoch += 1
        self._req.rewind()
        self._rq.clear()
        self._expected_msn = 0

    def set_initial_credit_estimate(self, credits: Optional[int]) -> None:
        """Seed the requester's view of remote receive WQEs (the consumer
        knows how many buffers it pre-posted on the other side)."""
        self._req._credit_est = credits

    def _peer(self) -> "QueuePair":
        # Resolved once and cached: the remote end of an RC connection
        # never changes after connect() (which resets the cache).  The
        # two-dict chase sat on the per-message ACK path.
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
    # requester: injection (driven by the HCA send engine)
    # ------------------------------------------------------------------
    def _next_injectable(self) -> Optional[SendWR]:
        """Return the WR the HCA engine may inject now, or None.

        Honours: QP state, RNR freeze, the pipelining window and the
        end-to-end credit gate for SEND opcodes.
        """
        req = self._req
        if self.state is not QPState.READY or req._rnr_waiting or not req._sq:
            return None
        if len(req._inflight) >= self.hca._max_inflight:
            return None
        wr = req._sq[0]
        if wr.opcode is Opcode.SEND and req._credit_est is not None:
            if req._credit_est <= 0 and req._sends_inflight >= 1:
                return None  # one probe at a time when starved
        return wr

    def _take_injectable(self) -> Optional[SendWR]:
        wr = self._next_injectable()
        if wr is None:
            return None
        req = self._req
        del req._sq[0]
        if wr.msn < 0:
            wr.msn = req._next_msn
            req._next_msn += 1
        else:
            req.retransmissions += 1
            self.hca.tracer.count("ib.retransmission", (self.hca.lid, self.remote_lid))
        req._inflight[wr.msn] = wr
        if wr.opcode is Opcode.SEND:
            req._sends_inflight += 1
            if req._credit_est is not None:
                req._credit_est -= 1
        if req._xport_enabled and req._xport_timer is None:
            req._xport_seen = req._xport_acks
            req._xport_timer = self.hca.sim.schedule(
                req._xport_timeout_ns, self._xport_expire
            )
        return wr

    # ------------------------------------------------------------------
    # requester: acknowledgement handling
    # ------------------------------------------------------------------
    def _on_ack(self, msn: int, advertised: int, epoch: int = 0) -> None:
        if epoch != self.epoch:
            return  # ACK from a pre-recovery incarnation (MSNs restarted)
        req = self._req
        wr = req._inflight.get(msn)
        if wr is None:
            return  # duplicate / stale ACK from a replay era
        del req._inflight[msn]
        req._xport_acks += 1
        if wr.opcode is Opcode.SEND:
            req._sends_inflight -= 1
        if msn > req._credit_est_msn:
            req._credit_est_msn = msn
            if req._credit_est is not None:
                # The gate is opt-in (hardware-based flow control sets an
                # initial estimate); credits advertised net of our own
                # still-inflight sends.
                req._credit_est = advertised - req._sends_inflight
        wr.rnr_tries = 0
        if wr.signaled and wr.opcode is not Opcode.RDMA_READ:
            # per message: positional, in WC's field order
            self.send_cq.push(
                WC(wr.wr_id, WCStatus.SUCCESS, wr.opcode, wr.length, None,
                   self.qp_num, self.remote_lid)
            )
        self.hca._kick(self)

    def _on_rnr_nak(self, msn: int, epoch: int = 0) -> None:
        if epoch != self.epoch:
            return
        req = self._req
        if msn not in req._inflight or req._rnr_waiting:
            return  # duplicate NAK for a message already being replayed
        req.rnr_naks_received += 1
        self.hca.tracer.count("ib.rnr_nak", (self.hca.lid, self.remote_lid))
        if req._credit_est is not None:
            req._credit_est = 0
            req._credit_est_msn = max(req._credit_est_msn, msn - 1)

        wr = req._inflight[msn]
        tries = wr.rnr_tries = wr.rnr_tries + 1
        cfg = self.hca.config
        if cfg.rnr_retry_count != INFINITE_RETRY and tries > cfg.rnr_retry_count:
            del req._inflight[msn]
            if wr.opcode is Opcode.SEND:
                req._sends_inflight -= 1
            self._fatal(wr, WCStatus.RNR_RETRY_EXCEEDED)
            return

        delay = cfg.rnr_timer_ns
        if cfg.rnr_backoff_factor != 1.0 and tries > 1:
            # Exponential backoff on consecutive NAKs for the same message;
            # rnr_tries resets to 0 on any ACK, so one delivered message
            # snaps the wait back to the base timer.
            delay = min(
                int(delay * cfg.rnr_backoff_factor ** (tries - 1)),
                cfg.rnr_backoff_max_ns,
            )
        req._rnr_waiting = True
        req._rnr_timer_ev = self.hca.sim.schedule(delay, self._rnr_expire, msn)

    def _rnr_expire(self, nak_msn: int) -> None:
        req = self._req
        req._rnr_waiting = False
        req._rnr_timer_ev = None
        self._requeue_unacked(nak_msn)
        # Allow one probe even with zero estimated credits (handled by the
        # injection gate).
        self.hca._kick(self)

    def _requeue_unacked(self, first_msn: int) -> None:
        """Move every unacked message from ``first_msn`` on back to the
        head of the send queue, in MSN order (go-back-N: later messages
        were discarded by the responder's in-order filter)."""
        req = self._req
        inflight = req._inflight
        sq = req._sq
        for msn in sorted((m for m in inflight if m >= first_msn), reverse=True):
            wr = inflight.pop(msn)
            if wr.opcode is Opcode.SEND:
                req._sends_inflight -= 1
                if req._credit_est is not None:
                    req._credit_est += 1
            sq.insert(0, wr)

    # ------------------------------------------------------------------
    # requester: transport (ACK timeout) retries — armed by a fault plan or
    # by the first congestion drop
    # ------------------------------------------------------------------
    def enable_transport_retry(self, timeout_ns: int, retry_limit: int) -> None:
        """Arm this QP's RC local-ACK-timeout timer
        (:meth:`Requester.set_transport`).  With ``retry_limit =
        INFINITE_RETRY`` the QP replays forever; otherwise the oldest
        message errors out with ``WCStatus.RETRY_EXCEEDED`` after
        ``retry_limit`` fruitless timeout periods."""
        self._req.set_transport((int(timeout_ns), retry_limit))
        self.reack_stale = True

    def adopt_fault_transport(self) -> None:
        """``hca.fault_transport`` changed (``repro.faults`` armed or
        disarmed a plan; ``None`` is the ideal fabric's transport, whatever
        armed this QP before): follow it."""
        xport = self.hca.fault_transport
        self.reack_stale = xport is not None
        self._req.set_transport(xport)

    def on_wire_loss(self, timeout_ns: int) -> None:
        """The fabric dropped one of this QP's requests (congestion tail
        drop): nothing will ever acknowledge it, so the ACK timeout must
        be running.  A QP some fault plan already armed keeps its own
        settings; otherwise arm with ``timeout_ns`` and no retry limit."""
        req = self._req
        if not req._xport_enabled:
            self.enable_transport_retry(timeout_ns, INFINITE_RETRY)
        if req._xport_timer is None and req._inflight:
            req._xport_seen = req._xport_acks
            req._xport_timer = self.hca.sim.schedule(
                req._xport_timeout_ns, self._xport_expire
            )

    def _xport_expire(self) -> None:
        req = self._req
        req._xport_timer = None
        if self.state is not QPState.READY or not req._inflight:
            return  # re-armed on the next injection
        if req._rnr_waiting or req._xport_acks != req._xport_seen:
            # RNR recovery is already driving a replay, or ACKs arrived
            # during the period — keep watching, don't retransmit.
            req._xport_seen = req._xport_acks
            req._xport_timer = self.hca.sim.schedule(
                req._xport_timeout_ns, self._xport_expire
            )
            return
        # A full timeout with zero progress: the oldest unacked message (or
        # its ACK) was lost on the wire.  Retry accounting is per-WR.
        oldest = min(req._inflight)
        wr = req._inflight[oldest]
        tries = wr.xport_tries + 1
        wr.xport_tries = tries
        self.hca.tracer.count(
            "faults.transport_timeout", (self.hca.lid, self.remote_lid)
        )
        if req._xport_limit != INFINITE_RETRY and tries > req._xport_limit:
            del req._inflight[oldest]
            if wr.opcode is Opcode.SEND:
                req._sends_inflight -= 1
            self._fatal(wr, WCStatus.RETRY_EXCEEDED)
            return
        self._requeue_unacked(oldest)
        req._xport_seen = req._xport_acks
        req._xport_timer = self.hca.sim.schedule(
            req._xport_timeout_ns, self._xport_expire
        )
        self.hca._kick(self)

    def _on_read_response(self, msg: _Message) -> None:
        req = self._req
        wr = req._inflight.get(msg.read_wr_msn)
        if wr is None:
            return
        del req._inflight[msg.read_wr_msn]
        req._xport_acks += 1
        if wr.signaled:
            self.send_cq.push(
                WC(
                    wr_id=wr.wr_id,
                    status=WCStatus.SUCCESS,
                    opcode=Opcode.RDMA_READ,
                    byte_len=msg.length,
                    data=msg.payload,
                    qp_num=self.qp_num,
                    peer=self.remote_lid,
                )
            )
        self.hca._kick(self)

    def _on_remote_error(self, msn: int, status: WCStatus, epoch: int = 0) -> None:
        if epoch != self.epoch:
            return
        inflight = self._req._inflight
        wr = inflight.get(msn)
        if wr is None:
            return
        del inflight[msn]
        self._fatal(wr, status)

    def _fatal(self, wr: SendWR, status: WCStatus) -> None:
        """Complete ``wr`` with an error and flush the QP."""
        self.state = QPState.ERROR
        self.send_cq.push(
            WC(
                wr_id=wr.wr_id,
                status=status,
                opcode=wr.opcode,
                qp_num=self.qp_num,
                peer=self.remote_lid,
            )
        )
        self._flush()

    def _flush(self) -> None:
        """Cancel timers and flush both work queues with WR_FLUSH_ERROR
        completions (the QP is already in ERROR state)."""
        req = self._req
        for pending in list(req._inflight.values()) + list(req._sq):
            self.send_cq.push(
                WC(
                    wr_id=pending.wr_id,
                    status=WCStatus.WR_FLUSH_ERROR,
                    opcode=pending.opcode,
                    qp_num=self.qp_num,
                    peer=self.remote_lid,
                )
            )
        req.cancel_timers()
        req._inflight.clear()
        req._sq.clear()
        for rwr in self._rq:
            self.recv_cq.push(
                WC(
                    wr_id=rwr.wr_id,
                    status=WCStatus.WR_FLUSH_ERROR,
                    opcode=Opcode.SEND,
                    qp_num=self.qp_num,
                    peer=self.remote_lid,
                    is_recv=True,
                )
            )
        self._rq.clear()

    # ------------------------------------------------------------------
    # responder: inbound message handling (called by the HCA)
    # ------------------------------------------------------------------
    def _receive(self, msg: _Message) -> None:
        if self.state is not QPState.READY:
            return  # drops on dead QPs
        if msg.epoch != self.epoch:
            return  # in-flight data from a pre-recovery incarnation
        if msg.is_read_response:
            self._on_read_response(msg)
            return
        if msg.msn != self._expected_msn:
            # Stale duplicate from a replay era (msn < expected) or an
            # out-of-order packet after a NAK (msn > expected): discard.
            # In fault mode a stale duplicate means the original *ACK* was
            # lost on the wire — re-acknowledge it, or the requester's
            # transport timer replays forever.
            if self.reack_stale and msg.msn < self._expected_msn:
                if msg.opcode is Opcode.RDMA_READ:
                    try:
                        mr = self.hca.mrs.check_remote(
                            msg.rkey, msg.remote_addr, msg.length
                        )
                    except RemoteAccessError:
                        return
                    self.hca._respond_read(self, msg, mr)
                else:
                    self._ack(msg)
            return

        if msg.opcode is Opcode.SEND:
            if not self._rq:
                self.rnr_naks_sent += 1
                self.hca.tracer.count("ib.rnr_nak_sent", (self.hca.lid, msg.src_lid))
                self.hca.fabric.send_control(
                    self.hca.lid,
                    msg.src_lid,
                    self._peer()._on_rnr_nak,
                    msg.msn,
                    self.epoch,
                )
                return
            rwr = self._rq[0]
            if msg.length > rwr.capacity:
                del self._rq[0]
                self._expected_msn += 1
                self.recv_cq.push(
                    WC(
                        wr_id=rwr.wr_id,
                        status=WCStatus.LOCAL_LENGTH_ERROR,
                        opcode=Opcode.SEND,
                        byte_len=msg.length,
                        qp_num=self.qp_num,
                        peer=msg.src_lid,
                        is_recv=True,
                    )
                )
                self.state = QPState.ERROR
                self.hca.fabric.send_control(
                    self.hca.lid,
                    msg.src_lid,
                    self._peer()._on_remote_error,
                    msg.msn,
                    WCStatus.REMOTE_ACCESS_ERROR,
                    self.epoch,
                )
                return
            # Accepted: engine time is already paid, complete now (per
            # message: positional, in WC's field order).
            del self._rq[0]
            self._expected_msn += 1
            self.messages_delivered += 1
            self.recv_cq.push(
                WC(rwr.wr_id, WCStatus.SUCCESS, Opcode.SEND, msg.length,
                   msg.payload, self.qp_num, msg.src_lid, True)
            )
            self._ack(msg)
        elif msg.opcode is Opcode.RDMA_WRITE:
            try:
                mr = self.hca.mrs.check_remote(msg.rkey, msg.remote_addr, msg.length)
            except RemoteAccessError:
                self._expected_msn += 1
                self.hca.fabric.send_control(
                    self.hca.lid,
                    msg.src_lid,
                    self._peer()._on_remote_error,
                    msg.msn,
                    WCStatus.REMOTE_ACCESS_ERROR,
                    self.epoch,
                )
                return
            mr.store(msg.remote_addr, msg.payload)
            self._expected_msn += 1
            self.messages_delivered += 1
            self._ack(msg)
        elif msg.opcode is Opcode.RDMA_READ:
            try:
                mr = self.hca.mrs.check_remote(msg.rkey, msg.remote_addr, msg.length)
            except RemoteAccessError:
                self._expected_msn += 1
                self.hca.fabric.send_control(
                    self.hca.lid,
                    msg.src_lid,
                    self._peer()._on_remote_error,
                    msg.msn,
                    WCStatus.REMOTE_ACCESS_ERROR,
                    self.epoch,
                )
                return
            self._expected_msn += 1
            self.hca._respond_read(self, msg, mr)
        else:  # pragma: no cover - exhaustive enum
            raise QPError(f"unknown opcode {msg.opcode}")

    # ------------------------------------------------------------------
    # introspection (used by repro.check)
    # ------------------------------------------------------------------
    def check_invariants(self) -> list:
        """Structural self-audit; returns a list of problem strings
        (empty when healthy).  Cheap — called at end of audited runs."""
        problems = []
        if self.outstanding_sends > self.hca.sq_depth:
            problems.append(
                f"QP {self.qp_num}: {self.outstanding_sends} outstanding "
                f"sends exceed sq_depth {self.hca.sq_depth}"
            )
        req = self._req
        for msn in req._inflight:
            if msn >= req._next_msn:
                problems.append(
                    f"QP {self.qp_num}: inflight msn {msn} >= next_msn "
                    f"{req._next_msn}"
                )
        sends = sum(
            1 for wr in req._inflight.values() if wr.opcode is Opcode.SEND
        )
        if req._sends_inflight != sends:
            problems.append(
                f"QP {self.qp_num}: _sends_inflight={req._sends_inflight} "
                f"but {sends} SEND WRs are inflight"
            )
        if len(self._rq) > self.hca.rq_depth:
            problems.append(
                f"QP {self.qp_num}: {len(self._rq)} posted recvs exceed "
                f"rq_depth {self.hca.rq_depth}"
            )
        if self.state is QPState.ERROR and self.outstanding_sends:
            problems.append(
                f"QP {self.qp_num}: ERROR state with unflushed work queues"
            )
        return problems

    def _ack(self, msg: _Message) -> None:
        hca = self.hca
        hca.fabric.send_control(
            hca.lid,
            msg.src_lid,
            (self._peer_qp or self._peer())._on_ack,
            msg.msn,
            len(self._rq),  # the e2e credit field: receive WQEs left
            self.epoch,
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<QP {self.qp_num}@{self.hca.lid}->{self.remote_qpn}@{self.remote_lid} "
            f"{self.state.value} sq={len(self._req._sq)} inflight={len(self._req._inflight)} "
            f"rq={len(self._rq)}>"
        )
