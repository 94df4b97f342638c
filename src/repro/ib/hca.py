"""The Host Channel Adapter.

Owns queue pairs, completion queues and the registration table for one
node, and models the two serialised engines of an InfiniHost-class adapter:

* the **send engine** drains send WQEs from ready QPs round-robin.  Each
  WQE costs doorbell + WQE-fetch + DMA-startup time on the engine; the
  payload's serialisation is then charged on the wire by the fabric
  (cut-through — engine and wire overlap across messages);
* the **receive engine** turns accepted inbound messages into completions
  after per-WQE processing time (payload DMA overlaps with reception and is
  already covered by the arrival time).

The HCA is where channel semantics (SEND consumes a receive WQE, payload
copied to the posted buffer) and memory semantics (RDMA bypasses the
receive queue entirely) diverge — see :func:`repro.ib.transport.respond`
for the protocol side.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ib import transport
from repro.ib.cq import CompletionQueue
from repro.ib.fabric import Fabric
from repro.ib.mr import MemoryRegion, RegistrationTable
from repro.ib.qp import QPError, QueuePair, _Message
from repro.ib.types import IBConfig, Opcode, QPState
from repro.sim import Simulator
from repro.sim.trace import Tracer
from repro.sim.units import transfer_ns


class HCA:
    """One adapter, attached to the fabric at ``lid``."""

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        lid: int,
        config: Optional[IBConfig] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.sim = sim
        self.fabric = fabric
        self.lid = lid
        self.config = config or fabric.config
        self.tracer = tracer or fabric.tracer
        self.mrs = RegistrationTable(lid)
        self._qps: Dict[int, QueuePair] = {}
        self._next_qpn = lid * 10_000 + 1
        #: round-robin; each QP at most once (``QueuePair._queued`` is set
        #: while it is in)
        self._ready: List[QueuePair] = []
        self._send_busy = 0
        #: send-engine time per WQE (IBConfig is frozen once traffic flows)
        self._send_wqe_cost = self.config.hca_send_wqe_ns + self.config.dma_startup_ns
        # What every QP of this adapter shares, snapshotted here so the
        # injectability probe (twice per pumped WQE) and post_recv read one
        # attribute off ``qp.hca`` — not a copy per QP, not a chain walk.
        self.sq_depth = self.config.sq_depth
        self.rq_depth = self.config.rq_depth
        self._max_inflight = self.config.max_inflight_msgs
        self._pump_scheduled = False
        self._recv_busy = 0
        #: receive-engine burst FIFO: (service_done_ns, msg) in arrival
        #: order.  One armed agenda event services the whole burst head-to
        #: -tail instead of one heap entry per in-flight packet.
        self._rx_fifo: List[tuple] = []
        self._rx_armed = False
        # These go onto the agenda once per message; prebinding avoids a
        # bound-method allocation per scheduling.
        self._pump = self._pump
        self._rx_service = self._rx_service
        #: (timeout_ns, retry_limit) while a FaultInjector has transport
        #: retries armed: every requester built meanwhile (a QP's first
        #: send, an on-demand connection's) reads it.
        self.fault_transport = None
        #: set by :meth:`kill` (rank-death fault): both engines stop for
        #: good and inbound packets vanish — the adapter answers nothing.
        self.dead = False
        fabric.attach(lid, self)

    # ------------------------------------------------------------------
    # resource creation (verbs)
    # ------------------------------------------------------------------
    def create_cq(self, name: str = "") -> CompletionQueue:
        return CompletionQueue(
            self.sim, depth=self.config.cq_depth, name=name or f"cq@{self.lid}"
        )

    def create_qp(
        self,
        send_cq: CompletionQueue,
        recv_cq: Optional[CompletionQueue] = None,
        qpn: Optional[int] = None,
    ) -> QueuePair:
        """A new QP, numbered next — or ``qpn``, one :meth:`reserve_qpns`
        set aside."""
        if qpn is None:
            qpn = self.reserve_qpns(1)
        qp = QueuePair(self, qpn, send_cq, recv_cq or send_cq)
        self._qps[qpn] = qp
        return qp

    def reserve_qpns(self, n: int) -> int:
        """Set aside the next ``n`` QP numbers; returns the first."""
        qpn = self._next_qpn
        self._next_qpn += n
        return qpn

    def qp(self, qpn: int) -> Optional[QueuePair]:
        """The QP numbered ``qpn``; None once it is destroyed."""
        return self._qps.get(qpn)

    def destroy_qp(self, qp: QueuePair) -> None:
        """Release a dead QP (``ERROR`` or ``RESET``: its work queues are
        already flushed).  Packets still in flight to its number are
        dropped on arrival (:meth:`_rx_service`).  Idempotent."""
        if qp.state is QPState.READY:
            raise QPError(f"QP {qp.qp_num}: destroy_qp in state {qp.state}")
        self._qps.pop(qp.qp_num, None)

    def reg_mr(self, length: int, at: Optional[Tuple[int, int]] = None) -> MemoryRegion:
        """Register ``length`` bytes (``at``: see
        :meth:`RegistrationTable.register`).  The *caller* must burn
        ``config.registration_ns(length)`` of CPU time — the MPI layer's
        pin-down path does."""
        return self.mrs.register(length, at)

    def dereg_mr(self, mr: MemoryRegion) -> None:
        self.mrs.deregister(mr)

    def pause(self, duration_ns: int) -> None:
        """Fault hook: freeze both engines for ``duration_ns``.  In-flight
        wire traffic still lands (the adapter's input buffering absorbs it);
        service resumes once the busy horizons pass."""
        resume = self.sim.now + int(duration_ns)
        if resume > self._send_busy:
            self._send_busy = resume
        if resume > self._recv_busy:
            self._recv_busy = resume

    def kill(self) -> None:
        """Fault hook (rank death): the adapter dies outright.  Every
        owned QP goes to ERROR with its outstanding work flushed; the
        send and receive engines stop permanently; packets arriving from
        the wire are absorbed without ACK, NAK, or completion.  Peers
        observe pure silence — detecting it is the failure detector's
        job, not the transport's."""
        if self.dead:
            return
        self.dead = True
        # in QPN order, whatever the creation order: flushes land in wiring
        # order, a recovered pair's successors (the newest numbers) last
        for qpn in sorted(self._qps):
            self._qps[qpn].force_error()

    # ------------------------------------------------------------------
    # send engine
    # ------------------------------------------------------------------
    def _kick(self, qp: QueuePair) -> None:
        """A QP may have become injectable; enqueue it and poke the engine."""
        if self.dead:
            return
        # Most kicks are an ACK landing on a QP with nothing left to send.
        if (
            qp._req._sq
            and not qp._queued
            and transport.injectable(qp._req, self._max_inflight) is not None
        ):
            self._ready.append(qp)
            qp._queued = True
        if self._ready and not self._pump_scheduled:
            self._schedule_pump()

    def _schedule_pump(self) -> None:
        """Put the pump on the agenda at the engine's next free instant.
        Callers check that it is neither scheduled nor idle."""
        self._pump_scheduled = True
        sim = self.sim
        busy = self._send_busy
        sim.call_at(busy if busy > sim.now else sim.now, self._pump)

    def _pump(self) -> None:
        self._pump_scheduled = False
        if self.dead:
            return
        now = self.sim.now
        if self._send_busy > now:
            if self._ready:
                self._schedule_pump()
            return
        # Round-robin: find the first currently-eligible ready QP.
        for _ in range(len(self._ready)):
            qp = self._ready.pop(0)
            qp._queued = False
            req = qp._req
            wr = transport.injectable(req, self._max_inflight)
            if wr is None:
                continue  # re-kicked when it becomes eligible again
            act = transport.take(req, wr)
            if act:
                if act & transport.RESEND:
                    self.tracer.count("ib.retransmission", (self.lid, qp.remote_lid))
                if act & transport.WATCH:
                    qp._watch()
            if req._sq and transport.injectable(req, self._max_inflight) is not None:
                self._ready.append(qp)
                qp._queued = True
            cost = self._send_wqe_cost
            self._send_busy = now + cost
            # Build the message now (the WR is final once taken) and put
            # the fabric hand-off itself on the agenda — one event, no
            # intermediate _inject frame.
            self.sim.call_later(
                cost, self.fabric.transmit, self.lid, qp.remote_lid, wr.length,
                _Message(qp, wr),
            )
            if self._ready:
                self._schedule_pump()
            return

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def _deliver(self, msg: _Message) -> None:
        """Last byte arrived on the wire.  The packet sits in the adapter's
        input buffering until the receive engine services it — crucially,
        the receive-WQE lookup (and hence any RNR NAK decision) happens at
        *engine service time*, not wire-arrival time, so line-rate bursts
        released by head-of-line blocking do not spuriously NAK as long as
        software keeps re-posting at the engine's pace."""
        if self.dead:
            return  # dead adapter: the packet vanishes, nothing answers
        start = max(self.sim.now, self._recv_busy)
        if msg.opcode is Opcode.RDMA_WRITE:
            cost = self.config.hca_rdma_rx_ns  # no WQE consume, no CQE
        else:
            cost = self.config.hca_recv_wqe_ns
        done = start + cost
        self._recv_busy = done
        self._rx_fifo.append((done, msg))
        if not self._rx_armed:
            self._rx_armed = True
            self.sim.call_at(done, self._rx_service)

    def _rx_service(self) -> None:
        """Service the head of the receive-engine FIFO (one event per
        message, re-armed before protocol processing so burst arrivals keep
        their engine-service order)."""
        done, msg = self._rx_fifo.pop(0)
        if self._rx_fifo:
            self._rx_armed = True
            self.sim.call_at(self._rx_fifo[0][0], self._rx_service)
        else:
            self._rx_armed = False
        if self.dead:
            return  # packets queued before death are never serviced
        qp = self._qps.get(msg.dst_qpn)
        if qp is not None:  # a packet to a destroyed QP is dropped
            qp._receive(msg)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<HCA lid={self.lid} qps={len(self._qps)}>"
