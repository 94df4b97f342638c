"""The MPI endpoint: one per rank, the ADI2-style device of this MPI.

An :class:`Endpoint` owns the rank's verbs resources (one CQ for every
connection, exactly like the paper's design), the pre-pinned vbuf pool, the
matching engine, the pin-down cache, the rendezvous bookkeeping and — via
:class:`~repro.mpi.connection.Connection` — all flow-control state.

All public operations are *generators* driven by the simulation kernel;
application programs call them with ``yield from``::

    def program(mpi):
        req = yield from mpi.irecv(source=1, capacity=1 << 20)
        yield from mpi.send(1, size=4)
        status = yield from mpi.wait(req)

Progress happens only inside MPI calls (the paper's user-level schemes
explicitly depend on this; the hardware scheme's "application bypass"
advantage shows up as the HCA needing no software help to *deliver*, though
buffer re-posting is always software).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, Generator, List, Optional, Set

from repro.core.base import FlowControlScheme
from repro.ib.hca import HCA
from repro.ib.mr import MemoryRegion
from repro.ib.qp import QueuePair
from repro.ib.types import Opcode, QPState, WCStatus
from repro.ib.wr import SendWR, WC, shared_recv_wr
from repro.mpi import collectives
from repro.mpi.buffer_pool import SendBufferPool
from repro.mpi.config import MPIConfig
from repro.mpi.connection import Connection, PendingSend
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, WORLD_CONTEXT
from repro.mpi.matching import MatchingEngine, PostedRecv
from repro.mpi.pindown_cache import PinDownCache
from repro.mpi.protocol import Header, MsgKind
from repro.mpi.rendezvous import BounceRegion, RndvRecvOp, RndvSendOp, next_op_id
from repro.mpi.request import Request, Status
from repro.ft.failures import RankFailedError
from repro.recovery.failures import ConnectionFailedError, ConnectionFailure
from repro.sim import TIMEOUTS, AnyOf, Signal, Simulator
from repro.sim.trace import Tracer


class MPIError(RuntimeError):
    pass


class TruncationError(MPIError):
    """A message arrived larger than the posted receive buffer."""


#: the ring channel class, bound by the first endpoint whose scheme uses a
#: ring (``Endpoint.__init__``): a job without one never loads it
RDMAChannel = None

#: vbufs held back for control traffic (CTS/FIN/ECM) so progress-side
#: emissions can never block on the pool (which would deadlock progress).
CONTROL_RESERVE = 32


class Endpoint:
    """One MPI process endpoint."""

    # Past 30 attributes CPython stops keeping an instance's values inline
    # and gives it a dict of its own; every attribute is assigned in
    # __init__ (the three subsystem hooks included), so they are declared.
    __slots__ = (
        "sim", "hca", "rank", "world_size", "config", "scheme",
        "requested_prepost", "tracer", "_ring_mode", "mesh",
        "cq", "pool", "matching", "pindown", "bounce",
        "connections", "_backlogged", "_standin",
        "_ring_dirty",
        "_sends_open", "_rndv_send", "_rndv_recv", "_coll_seq", "_connector",
        "_ring_notify", "finalized", "_stall_until", "_stall_held",
        "_t_call", "_t_poll", "_eager_max",
        "_audit", "_recovery", "_ft", "_halted", "_halt_signal",
        "bytes_sent", "bytes_received", "wait_ns",
    )

    def __init__(
        self,
        sim: Simulator,
        hca: HCA,
        rank: int,
        world_size: int,
        config: MPIConfig,
        scheme: FlowControlScheme,
        requested_prepost: int,
        tracer: Optional[Tracer] = None,
        connector: Optional[Callable] = None,
        mesh: bool = False,
    ):
        if requested_prepost < 1:
            raise MPIError("requested_prepost must be >= 1")
        if scheme.uses_ring and not scheme.uses_credits:
            # only a slot token per write keeps a sender from overrunning
            # the ring, and the model cannot represent an overrun
            raise MPIError(f"{type(scheme).__name__}: uses_ring needs uses_credits")
        self.sim = sim
        self.hca = hca
        self.rank = rank
        self.world_size = world_size
        self.config = config
        self.scheme = scheme
        self.requested_prepost = requested_prepost
        self.tracer = tracer or Tracer(enabled=False)
        #: eager traffic travels by RDMA-write ring (the scheme owns one):
        #: gates ring allocation at connect time and the ring-dirty arm of
        #: the progress waits
        self._ring_mode = scheme.uses_ring
        if self._ring_mode:
            global RDMAChannel
            from repro.mpi.rdma_channel import RDMAChannel

        self.cq = hca.create_cq(f"mpi.cq.{rank}")
        self.pool = SendBufferPool(sim, config.send_pool_buffers, config.vbuf_bytes)
        self.matching = MatchingEngine()
        self.pindown = PinDownCache(hca)
        bounce_mr = hca.reg_mr(config.vbuf_bytes * 64)
        self.bounce = BounceRegion(bounce_mr, config.vbuf_bytes, 64)

        self.connections: Dict[int, Connection] = {}
        self._backlogged: Set[int] = set()  # peers with non-empty backlog
        #: a static mesh: every other rank is a peer, its pair wired at first
        #: touch (``connections`` holds those wired so far)
        self.mesh = mesh
        self._standin: Optional[Connection] = None  # see idle_connection()
        #: peers whose RDMA ring holds arrived-but-unprocessed messages
        #: (dirty-flag wakeups: the progress engine only looks at these
        #: instead of scanning every connection per poll)
        self._ring_dirty: Set[int] = set()
        #: sends posted, completion not polled yet (each holds a vbuf or a pin)
        self._sends_open = 0
        self._rndv_send: Dict[int, RndvSendOp] = {}
        self._rndv_recv: Dict[int, RndvRecvOp] = {}
        self._coll_seq: Dict[int, int] = {}  # context -> collective sequence
        #: wires the pair of a first send: ``Cluster.wire`` on a static mesh
        #: (wired on the spot, returns None), ``ConnectionManager.request`` on
        #: demand (returns the signal to wait for); None: the table is all
        self._connector = connector
        #: armed waiter for RDMA-ring arrivals (the spin-loop stand-in)
        self._ring_notify = None
        self.finalized = False
        # --- fault injection (repro.faults): slow-consumer throttling ---
        #: while ``sim.now < _stall_until`` this rank neither re-posts vbufs
        #: nor returns paid credits — the starved-receiver model.
        self._stall_until = 0
        #: peer -> paid credits withheld during the stall window
        self._stall_held: Dict[int, int] = {}
        # the fixed per-call costs, yielded thousands of times per run
        self._t_call = TIMEOUTS[config.call_overhead_ns]
        self._t_poll = TIMEOUTS[config.poll_overhead_ns]
        #: largest eager payload; anything bigger goes through rendezvous
        self._eager_max = config.eager_max()
        #: runtime invariant auditor (repro.check); None = disabled, and
        #: every hook site below is guarded so the disabled cost is one
        #: attribute load + None test.
        self._audit = None
        #: connection recovery manager (repro.recovery); None = disabled,
        #: same zero-cost hook pattern as the auditor.
        self._recovery = None
        #: rank-failure tolerance manager (repro.ft); None = disabled,
        #: same zero-cost hook pattern as the auditor.
        self._ft = None
        #: rank-death fault: once halted, every MPI entry point and the
        #: progress engine park forever (the process is dead; its state
        #: must stop mutating even as flushed completions hit the CQ).
        self._halted = False
        self._halt_signal = None

        # observability
        self.bytes_sent = 0
        self.bytes_received = 0
        self.wait_ns = 0

    # ------------------------------------------------------------------
    # wiring (done by the cluster: a pair at its first send)
    # ------------------------------------------------------------------
    def add_connection(self, peer: int, conn: Connection,
                       ring_mr: Optional[MemoryRegion] = None) -> None:
        """Enter ``conn`` in the table, set up: see :meth:`_set_up`.  Its
        receive budget is the caller's to post."""
        self.connections[peer] = conn
        self._set_up(conn, ring_mr)

    def _set_up(self, conn: Connection, ring_mr: Optional[MemoryRegion]) -> None:
        """The receive descriptor, the ring (in ``ring_mr``, or a region
        registered now) and the scheme's set-up state."""
        conn.recv_wr = shared_recv_wr(conn.peer, self.config.vbuf_bytes)
        if self._ring_mode:
            conn.ring = RDMAChannel(self, conn.peer, self.requested_prepost, ring_mr)
        self.scheme.setup_connection(conn, self.requested_prepost)

    def idle_connection(self) -> Connection:
        """What a pair is as the wiring built it: the stand-in a per-job
        report counts every static-mesh pair not wired yet as.  Built once,
        as ``Cluster.wire`` builds a half, but off the table and off the
        adapter: a QP no HCA numbers or holds, a ring region registered
        nowhere and pointed at itself."""
        conn = self._standin
        if conn is None:
            conn = Connection(self, -1, QueuePair(self.hca, -1, self.cq, self.cq))
            ring_bytes = self.requested_prepost * self.config.vbuf_bytes
            self._set_up(conn, MemoryRegion(0, ring_bytes, 0, 0))
            if conn.ring is not None:
                self.wire_rdma_rings(conn, conn)
            conn.post_setup_buffers()
            self._standin = conn
        return conn

    @staticmethod
    def wire_rdma_rings(conn_ab: Connection, conn_ba: Connection) -> None:
        """Exchange ring coordinates between the two halves of a freshly
        (re-)established connection (part of connection setup in RDMA
        mode, and of recovery after both sides allocated fresh rings)."""
        for tx, rx in ((conn_ab, conn_ba), (conn_ba, conn_ab)):
            ring = rx.ring.ring
            tx.ring.point_tx_ring(ring.mr.addr, ring.mr.rkey, ring.slots)

    def _post_recv_vbuf(self, conn: Connection, n: int = 1) -> int:
        """Post ``n`` receive vbufs on ``conn``; returns how many were
        posted (``n``, or 0 while the QP cannot take them)."""
        qp = conn.qp
        if qp.state is not QPState.READY:
            # Recovery window: the QP cannot accept WQEs (post_recv raises
            # in ERROR state).  The credit for a paid message processed in
            # this window is still granted by the caller; the physical
            # buffer population is restored by the resync refill.
            return 0
        qp.post_recv(conn.recv_wr, n)
        audit = self._audit
        if audit is None:
            conn.recv_posted += n
        else:
            for _ in range(n):  # the auditor observes every buffer
                conn.recv_posted += 1
                audit.on_post_recv(conn)
        return n

    @property
    def now(self) -> int:
        return self.sim.now

    # ------------------------------------------------------------------
    # public API: point-to-point
    # ------------------------------------------------------------------
    def isend(
        self,
        dest: int,
        size: int,
        tag: int = 0,
        payload: Any = None,
        buffer_id: Optional[object] = None,
        context: int = WORLD_CONTEXT,
        mode: str = "standard",
    ) -> Generator:
        """Non-blocking send; returns a :class:`Request`.

        ``mode`` selects the MPI communication mode (paper §3.1: "MPI
        defines four different communication modes: Standard, Synchronous,
        Buffered, and Ready"):

        * ``"standard"`` / ``"buffered"`` — eager below the rendezvous
          threshold (this device buffers through the vbuf pool, so the two
          behave identically), rendezvous above;
        * ``"sync"`` — always rendezvous: the request cannot complete until
          the handshake proves a matching receive exists (MPI_Ssend);
        * ``"ready"`` — like standard, but the receiver *errors* if the
          message arrives unexpected (MPI_Rsend's contract).
        """
        if mode not in ("standard", "buffered", "sync", "ready"):
            raise MPIError(f"unknown send mode {mode!r}")
        # A connected peer is a valid one (and almost always is connected).
        conn = self.connections.get(dest)
        if conn is None:
            self._check_peer(dest)
        if size < 0:
            raise MPIError(f"negative message size {size}")
        req = Request("send")
        if self._ft is not None:
            if self._ft.fail_if_dead(self, req, dest):
                return req
            self._ft.watch(self, req, dest)
        if conn is None:
            try:
                conn = yield from self._ensure_connected(dest)
            except RankFailedError:
                # dest died while the on-demand setup exchange was parked;
                # the request completes with PROC_FAILED, never hangs
                self._ft.fail_request(self, req, dest)
                return req
        self.bytes_sent += size
        if self._audit is not None:
            self._audit.on_app_send(self.rank, dest, tag, context, size)
        yield self._t_call
        if req.done:  # dest declared dead while this call was parked
            return req

        if mode != "sync" and size <= self._eager_max:
            ref = req  # an eager send completes at emission
            # Per message, so positional, in Header's field order: kind,
            # src, dst, tag, context, size, seq, credits, went_backlog,
            # paid, ready, via_ring, sreq_id, rreq_id, remote_addr, rkey,
            # payload.
            header = Header(
                MsgKind.EAGER, self.rank, dest, tag, context, size, -1,
                0, False, True, mode == "ready", False,
                -1, -1, 0, 0, payload,
            )
        else:
            # Rendezvous path (large messages, and every "sync" send —
            # the CTS proves the receive is matched).  Small synchronous
            # payloads ride the pre-registered bounce region instead of
            # paying a pin.
            bounce = size <= self._eager_max
            if bounce:
                mr, pin_cost = None, 0
            else:
                mr, pin_cost = self.pindown.acquire(buffer_id, size)
            yield TIMEOUTS[pin_cost]
            if req.done:  # dest declared dead while pinning
                if mr is not None:
                    self.pindown.release(buffer_id, mr)
                return req
            ref = RndvSendOp(
                sreq_id=next_op_id(),
                request=req,
                dst=dest,
                tag=tag,
                context=context,
                size=size,
                payload=payload,
                buffer_id=buffer_id,
                mr=mr,
                bounce=bounce,
            )
            self._rndv_send[ref.sreq_id] = ref
            header = Header(
                kind=MsgKind.RNDV_RTS,
                src=self.rank,
                dst=dest,
                tag=tag,
                context=context,
                size=size,
                sreq_id=ref.sreq_id,
                paid=True,
            )
        # A non-empty backlog forces FIFO (MPI non-overtaking): new sends
        # may not jump the queue even if a credit is available.  A
        # recovering connection parks everything in the backlog too — its
        # credit state is stale until the resync.
        if not conn.backlog and not conn.recovering and self._take_credit(conn):
            # Everything but an eager ring write is staged in a pool vbuf.
            ring = conn.ring is not None and header.kind is MsgKind.EAGER
            if not ring and not self._pool_ok(control=False):
                yield from self._progress_until(lambda: self._pool_ok(control=False))
                if req.done:  # dest declared dead during the pool wait
                    return req
            yield TIMEOUTS[self._emit(conn, header, ref)]
        else:
            self._enqueue_backlog(conn, PendingSend(header, ref, self.sim.now))
            yield TIMEOUTS[self._drain(conn)]
        # Opportunistic progress poke: every MPI call advances the engine
        # (as MPICH's ADI does) — without it, a rank that only isends would
        # never see CTSs or credit updates (user-level flow control "relies
        # on communication progress", paper §4.2).  The idle case of
        # ``_poll_once`` is open-coded (same yield sequence) to skip a
        # sub-generator per send.
        yield self._t_poll
        if self.cq._entries or self._ring_dirty:
            yield from self._poll_busy()
        elif self._backlogged:
            cost = self._drain_backlogged()
            if cost:
                yield TIMEOUTS[cost]
        return req

    def irecv(
        self,
        source: int = ANY_SOURCE,
        capacity: int = 0,
        tag: int = ANY_TAG,
        buffer_id: Optional[object] = None,
        context: int = WORLD_CONTEXT,
    ) -> Generator:
        """Non-blocking receive; returns a :class:`Request`."""
        if source != ANY_SOURCE and source not in self.connections:
            self._check_peer(source)
        req = Request("recv")
        if (
            self._ft is not None
            and source != ANY_SOURCE
            and self._ft.fail_if_dead(self, req, source)
        ):
            yield self._t_call
            return req
        yield self._t_call
        posted = PostedRecv(source, tag, context, capacity, req, buffer_id)
        unexpected = self.matching.post_recv(posted)
        if unexpected is not None:
            h = unexpected.header
            if self._audit is not None:
                self._audit.on_match(h)
            self._check_capacity(h, capacity)
            if h.kind is MsgKind.EAGER:
                yield TIMEOUTS[self.config.copy_ns(h.size)]
                self._complete_recv(req, h.src, h.tag, h.size, h.payload)
                if not h.via_ring:
                    # The message's vbuf was pinned while it sat unexpected;
                    # copy-out releases it now (ring slots were already
                    # freed at arrival).
                    yield TIMEOUTS[self._release(self.connections[h.src], h)]
            else:  # RNDV_RTS
                yield TIMEOUTS[self._rndv_recv_start(h, posted)]
        elif self._ft is not None and source != ANY_SOURCE:
            # nothing arrived yet: the peer's liveness now gates this
            # request, so the failure detector watches it
            self._ft.watch(self, req, source)
        # Open-coded idle _poll_once, as in isend.
        yield self._t_poll
        if self.cq._entries or self._ring_dirty:
            yield from self._poll_busy()
        elif self._backlogged:
            cost = self._drain_backlogged()
            if cost:
                yield TIMEOUTS[cost]
        return req

    def send(self, dest: int, size: int, **kwargs) -> Generator:
        """Blocking send (MPI_Send): returns once the operation finished
        locally — for eager sends that is the moment the payload is staged
        (buffered semantics); for rendezvous, the end of the handshake."""
        req = yield from self.isend(dest, size, **kwargs)
        yield from self.wait(req)

    def ssend(self, dest: int, size: int, **kwargs) -> Generator:
        """Blocking synchronous send (MPI_Ssend): completes only after the
        receiver has matched the message (forced rendezvous)."""
        req = yield from self.isend(dest, size, mode="sync", **kwargs)
        yield from self.wait(req)

    def issend(self, dest: int, size: int, **kwargs) -> Generator:
        req = yield from self.isend(dest, size, mode="sync", **kwargs)
        return req

    def rsend(self, dest: int, size: int, **kwargs) -> Generator:
        """Blocking ready send (MPI_Rsend): erroneous unless the matching
        receive is already posted at the destination."""
        req = yield from self.isend(dest, size, mode="ready", **kwargs)
        yield from self.wait(req)

    def recv(
        self,
        source: int = ANY_SOURCE,
        capacity: int = 0,
        tag: int = ANY_TAG,
        **kwargs,
    ) -> Generator:
        """Blocking receive; returns the :class:`Status`."""
        req = yield from self.irecv(source, capacity, tag, **kwargs)
        status = yield from self.wait(req)
        return status

    def wait(self, request: Request) -> Generator:
        """Block until ``request`` completes; returns its status."""
        sim = self.sim
        t0 = sim.now
        # Open-coded _progress_until(lambda: request.done): this is the
        # single hottest progress loop and the closure + predicate calls
        # are measurable.  Keep the yield sequence identical to the
        # generic loop — determinism depends on it.
        cq = self.cq
        while not request.done:
            if self._halted:
                yield self._halt_signal  # never fires: this rank is dead
            # Inline idle _poll_once (same yield sequence).
            yield self._t_poll
            if cq._entries or self._ring_dirty:
                yield from self._poll_busy()
            elif self._backlogged:
                cost = self._drain_backlogged()
                if cost:
                    yield TIMEOUTS[cost]
            if request.done:
                break
            if not cq._entries and not (self._ring_dirty and self._ring_ready()):
                if self._ring_mode:
                    yield AnyOf([cq.wait_nonempty(), self._ring_wait()])
                else:
                    yield cq.wait_nonempty()
        self.wait_ns += sim.now - t0
        return request.status

    def waitall(self, requests: List[Request]) -> Generator:
        """Block until every request completes; returns their statuses."""
        t0 = self.now
        # The completion predicate runs after every progress step; a plain
        # ``all(r.done ...)`` rescans the whole window each time, which is
        # O(n²) over a window of n requests (the dominant cost of the
        # non-blocking bandwidth benchmark).  Requests only ever go from
        # pending to done, so tracking the done-prefix makes the total
        # predicate work O(n) without changing its value at any instant.
        n = len(requests)
        prefix = 0

        def all_done() -> bool:
            nonlocal prefix
            i = prefix
            while i < n and requests[i].done:
                i += 1
            prefix = i
            return i == n

        yield from self._progress_until(all_done)
        self.wait_ns += self.now - t0
        return [r.status for r in requests]

    def test(self, request: Request) -> Generator:
        """One progress poke; returns (done, status_or_None)."""
        yield from self._poll_once()
        return (request.done, request.status)

    def iprobe(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG, context: int = WORLD_CONTEXT
    ) -> Generator:
        """Non-blocking probe of the unexpected queue (after one poke)."""
        yield from self._poll_once()
        h = self.matching.iprobe(source, tag, context)
        return None if h is None else Status(h.src, h.tag, h.size)

    def compute(self, ns: int) -> Generator:
        """Model local computation: burn simulated CPU time without
        progressing MPI (this is exactly the application-bypass window)."""
        if ns > 0:
            yield TIMEOUTS[ns]

    # ------------------------------------------------------------------
    # public API: collectives — the algorithms in repro.mpi.collectives
    # take the endpoint (or a Communicator) as their first argument, so
    # binding them as methods is the whole delegation
    # ------------------------------------------------------------------
    barrier = collectives.barrier
    bcast = collectives.bcast
    reduce = collectives.reduce
    allreduce = collectives.allreduce
    alltoall = collectives.alltoall
    alltoallv = collectives.alltoallv
    allgather = collectives.allgather
    gather = collectives.gather
    scatter = collectives.scatter

    # ------------------------------------------------------------------
    # finalize
    # ------------------------------------------------------------------
    def finalize(self) -> Generator:
        """Quiesce: wait for all local sends to complete and backlogs to
        drain, then synchronise with every rank.  After finalize, stray
        inbound control traffic parks in posted vbufs without needing this
        rank's attention (no RNR livelock)."""
        yield from self._progress_until(self._locally_quiescent)
        if self._ft is not None:
            # With the failure detector armed, finalize must not world-
            # synchronize: a rank can enter the barrier before a death is
            # declared while another skips it after — an asymmetric hang.
            # ULFM semantics: quiesce locally, never wait on membership.
            self.finalized = True
            return
        yield from self.barrier()
        yield from self._progress_until(self._locally_quiescent)
        self.finalized = True

    def _locally_quiescent(self) -> bool:
        dead = self._ft.dead if self._ft is not None else ()
        return (
            all(
                not c.backlog
                and not c.recovering
                and not c.deferred
                and c.qp.outstanding_sends == 0
                # severed state toward dead peers is frozen; a torn-down
                # on-demand pair has left the table
                for p, c in self.connections.items()
                if p not in dead
            )
            and not self._rndv_send
            and not self._sends_open  # every completion polled (pool released)
            and len(self.cq) == 0
        )

    # ------------------------------------------------------------------
    # progress engine
    # ------------------------------------------------------------------
    def _ring_signal_fire(self) -> None:
        if self._ring_notify is not None:
            sig, self._ring_notify = self._ring_notify, None
            sig.fire(self.sim, None)

    def _ring_wait(self):
        if self._ring_notify is None:
            self._ring_notify = Signal(f"ring.{self.rank}")
        return self._ring_notify

    def _ring_ready(self) -> bool:
        """Any RDMA-ring arrival that is next in its connection's sequence?"""
        for peer in self._ring_dirty:
            conn = self.connections[peer]
            if conn.ring.poll_peek(conn.seq_in_expected):
                return True
        return False

    def _progress_until(self, pred: Callable[[], bool]) -> Generator:
        while not pred():
            if self._halted:
                yield self._halt_signal  # never fires: this rank is dead
            yield from self._poll_once()
            if pred():
                return
            if not self.cq._entries and not (self._ring_dirty and self._ring_ready()):
                if self._ring_mode:
                    yield AnyOf([self.cq.wait_nonempty(), self._ring_wait()])
                else:
                    yield self.cq.wait_nonempty()

    def _poll_once(self) -> Generator:
        """Drain the CQ and the RDMA rings, handling each completion (and
        charging its CPU cost); drains backlogs afterwards.  Idle
        connections cost nothing: only rings flagged dirty by an RDMA
        deposit are examined."""
        if self._halted:
            return  # dead rank: resumed mid-loop by a stale wakeup
        yield self._t_poll
        # Idle fast path: nothing completed, no ring flagged dirty — the
        # common case for the opportunistic poke every MPI call performs.
        if not self.cq._entries and not self._ring_dirty:
            if self._backlogged:
                cost = self._drain_backlogged()
                if cost:
                    yield TIMEOUTS[cost]
            return
        yield from self._poll_busy()

    def _poll_busy(self) -> Generator:
        """The non-idle tail of :meth:`_poll_once` (poll overhead already
        charged by the caller)."""
        if self._halted:
            # A dead rank processes nothing: flushed completions from its
            # errored QPs must not mutate its (frozen) protocol state.
            return
        if self._stall_until > self.sim.now:
            # Fault model: a stalled (descheduled) consumer handles no
            # completions at all — arrivals pile up in the CQ, posted
            # vbufs are consumed and never replenished, and no credits
            # or rendezvous replies leave this rank until the window
            # closes.  This is the paper's slow-receiver stressor: the
            # hardware scheme's sender keeps pushing into the shrinking
            # receive queue and degenerates into RNR timeout storms,
            # while user-level senders park the overflow in the backlog.
            return
        cq = self.cq
        while True:
            progressed = False
            wcs = cq.poll(32) if cq._entries else ()
            for wc in wcs:
                progressed = True
                cost = self._handle_wc(wc)
                if cost:
                    yield TIMEOUTS[cost]
            dirty = self._ring_dirty
            if dirty:
                if len(dirty) == 1:
                    peers = tuple(dirty)
                elif self.mesh:
                    # multi-peer drains in the pre-dirty-flag full scan's
                    # order: its table's, ascending peer on a mesh ...
                    peers = sorted(dirty)
                else:  # ... and establishment order on demand
                    peers = [p for p in self.connections if p in dirty]
                for peer in peers:
                    conn = self.connections[peer]
                    ch = conn.ring
                    while True:
                        h = ch.poll(conn.seq_in_expected)
                        if h is None:
                            if not ch.has_arrivals:
                                # fully drained; a blocked head (waiting on
                                # a control message in the CQ path to
                                # advance seq_in_expected) stays dirty
                                dirty.discard(peer)
                            break
                        progressed = True
                        cost = self.config.rdma_poll_ns + self._deliver(conn, h)
                        if ch.cq_stash:
                            # ring progress may unpark overtaking CQ headers
                            cost += self._drain_cq_stash(conn)
                        if cost:
                            yield TIMEOUTS[cost]
            if not progressed:
                break
        if self._backlogged:
            cost = self._drain_backlogged()
            if cost:
                yield TIMEOUTS[cost]

    def _handle_wc(self, wc: WC) -> int:
        if self._halted:
            # A Timeout scheduled before this rank died can resume its
            # generator mid-CQ-drain, past _poll_busy's entry guard; the
            # remaining completions (now flushes) must not be processed.
            return 0
        if wc.status is not WCStatus.SUCCESS:
            return self._handle_error_wc(wc)
        if wc.is_recv:
            return self._handle_recv(wc)
        return self._handle_send_done(wc)

    # --- errored completions ---------------------------------------------
    def _conn_of(self, wc: WC) -> Optional[Connection]:
        """The connection an errored or flushed completion belongs to (a
        receive descriptor's ``wr_id`` is its peer, a send's is the record
        :meth:`_post` attached, which names its ``dst``) — None unless
        that peer's QP is the one that completed."""
        conn = self.connections.get(wc.wr_id if wc.is_recv else wc.wr_id.dst)
        if conn is not None and conn.qp.qp_num == wc.qp_num:
            return conn
        return None

    def _reclaim_error_wc(self, wc: WC) -> Any:
        """Undo the local bookkeeping an errored/flushed completion
        invalidates: release the send-pool vbuf for eager/control sends
        and drop the posted-recv count for flushed receives.  Returns the
        send's record (None for a receive), so the recovery manager can
        decide what to replay."""
        if wc.is_recv:
            conn = self._conn_of(wc)
            if conn is not None:
                conn.recv_posted -= 1
            return None
        self._sends_open -= 1
        if self._sends_open < 0:
            raise MPIError(f"rank {self.rank}: completion for a send never posted: {wc!r}")
        record = wc.wr_id
        if type(record) is Header and not record.via_ring:
            self._release_send_vbuf()
        return record

    def _handle_error_wc(self, wc: WC) -> int:
        """A completion with non-success status.  With a recovery manager
        installed this begins (or feeds) a QP-pair re-establishment;
        without one, the job fails promptly with a structured record —
        the pre-recovery behaviour was to leak the vbuf and hang until
        the progress watchdog tripped."""
        if self._ft is not None:
            # Rank death first: an error completion explained by a dead
            # peer is absorbed (and may *be* the detection — transport
            # retry exhaustion against a dead HCA confirms the failure).
            cost = self._ft.on_error_wc(self, wc)
            if cost is not None:
                return cost
        if self._recovery is not None:
            return self._recovery.on_error_wc(self, wc)
        self._reclaim_error_wc(wc)
        conn = self._conn_of(wc)
        peer = conn.peer if conn is not None else wc.peer
        raise ConnectionFailedError(
            ConnectionFailure(
                rank=self.rank,
                peer=peer,
                scheme=self.scheme.name.value,
                epoch=conn.qp.epoch if conn is not None else 0,
                cause=wc.status.value,
                elapsed_ns=self.sim.now,
                attempts=0,
            )
        )

    # --- inbound ---------------------------------------------------------
    def _handle_recv(self, wc: WC) -> int:
        h: Header = wc.data
        conn = self.connections[h.src]
        conn.recv_posted -= 1
        ch = conn.ring
        if h.seq != conn.seq_in_expected:
            if ch is not None and h.seq > conn.seq_in_expected:
                # Cross-channel skew: the CQ (send/recv) channel and the
                # RDMA ring share one per-connection sequence space but
                # not one wire, so a control message can overtake an
                # eager write still in flight toward the ring.  Park the
                # header; the ring drain re-dispatches it the moment the
                # gap closes.  The QP itself is FIFO, so appends keep the
                # stash in sequence order.
                if type(ch.cq_stash) is tuple:  # first use
                    ch.cq_stash = []
                ch.cq_stash.append(h)
                return self.config.header_proc_ns
            raise MPIError(
                f"rank {self.rank}: out-of-order delivery from {h.src}: "
                f"seq {h.seq} != expected {conn.seq_in_expected}"
            )
        cost = self._deliver(conn, h)
        if ch is not None and ch.cq_stash:
            cost += self._drain_cq_stash(conn)
        return cost

    def _drain_cq_stash(self, conn: Connection) -> int:
        """Deliver parked CQ headers made in-sequence by ring progress."""
        cost = 0
        ch = conn.ring
        while ch.cq_stash and ch.cq_stash[0].seq == conn.seq_in_expected:
            cost += self._deliver(conn, ch.cq_stash.pop(0))
        return cost

    def _deliver(self, conn: Connection, h: Header) -> int:
        """Process one in-sequence arrival, whichever channel carried it:
        a SEND polled from the CQ (its vbuf's ``recv_posted`` decrement
        already happened at poll time) or an eager write drained from the
        RDMA ring (``h.via_ring``; the caller charges the ring poll)."""
        cost = self.config.header_proc_ns
        conn.seq_in_expected += 1

        if self._ft is not None:
            # liveness piggyback: any delivery proves the peer is alive
            self._ft.on_heard(self.rank, conn.peer)
        if h.credits:
            self.scheme.on_credits_received(conn, h.credits)
        if self._audit is not None:
            self._audit.on_deliver(conn, h)

        # Dispatch.  A handler returns None only for unexpected eager data
        # on the send/recv channel: its payload stays parked in the vbuf
        # until the application posts the matching receive (the vbuf IS
        # the storage — MVICH design), so that buffer cannot be released
        # yet.  This is precisely how a fast sender exhausts a slow
        # receiver (paper §3.2).
        handled = self._HANDLERS[h.kind](self, conn, h)
        if handled is not None:
            cost += handled + self._release(conn, h)

        # Feedback hook (dynamic growth).
        if self._audit is not None:
            grown = self._audit.observe_recv_header(self.scheme, conn, h)
        else:
            grown = self.scheme.on_recv_header(conn, h)
        if grown:
            # growing a WQE population charges posting of the new buffers
            cost += grown * self.config.post_overhead_ns
            if self.scheme.should_send_ecm(conn):
                cost += self._emit_ecm(conn)

        if conn.backlog:
            cost += self._drain(conn)
        return cost

    def _handle_data(self, conn: Connection, h: Header) -> Optional[int]:
        """EAGER and RNDV_RTS, the kinds a sender pushes unasked: match
        against the posted receives, or queue as unexpected."""
        posted = self.matching.arrived(h, self.sim.now)
        if posted is None:
            if h.kind is MsgKind.RNDV_RTS:
                return 0  # fully parsed here; its vbuf is reusable
            if h.ready:
                raise MPIError(
                    f"rank {self.rank}: ready-mode message from {h.src} "
                    f"(tag {h.tag}) arrived with no matching receive "
                    "posted — MPI_Rsend contract violated"
                )
            if h.via_ring:
                # Unlike a vbuf, a ring slot cannot hold an unexpected
                # message (the [13] design — rings must free in order):
                # it is copied out to a temporary buffer immediately.
                return self.config.copy_ns(h.size)
            return None  # vbuf pinned until matched
        if self._audit is not None:
            self._audit.on_match(h)
        self._check_capacity(h, posted.capacity)
        if h.kind is MsgKind.RNDV_RTS:
            return self._rndv_recv_start(h, posted)
        self._complete_recv(posted.request, h.src, h.tag, h.size, h.payload)
        return self.config.copy_ns(h.size)  # vbuf / slot -> user buffer

    def _release(self, conn: Connection, h: Header) -> int:
        """Release the buffer of a fully processed message — a ring slot
        or a receive vbuf — and grant the credit back for paid messages
        (unpaid traffic occupies the non-credited headroom — see
        protocol.Header.paid).

        The grant is decoupled from the physical repost: if dynamic growth
        already refilled the population while this message's vbuf was
        pinned in the unexpected queue, the buffer was replaced but the
        paid credit must still return.  Only an *over*-full population
        (decay contraction) swallows the credit.  In ring mode the WQE
        population is the fixed control reserve, disjoint from the credit
        population (ring slots): it never decay-contracts, so a paid
        credit that rode a control-channel message (a rendezvous RTS
        borrowing a slot token) always returns.

        During a fault-injected receiver stall a vbuf stays consumed and
        the paid credit is withheld; :meth:`fault_release_stall` settles
        both once the window closes.
        """
        stalled = self._stall_until > self.sim.now
        if stalled:
            self.tracer.count("faults.stall_deferred", conn.peer)
        cost = 0
        paid = h.paid
        if h.via_ring:
            # The slot itself is free the moment the copy-out lands (even
            # when a fault stall withholds the *credit* below).
            if self._audit is not None:
                self._audit.on_ring_free(conn.ring, h)
        elif not stalled:
            budget = conn.prepost_target + conn.headroom
            if conn.recv_posted < budget:
                self._post_recv_vbuf(conn)
                cost = self.config.post_overhead_ns
            elif paid and conn.recv_posted > budget:
                paid = False  # swallowed (see the docstring above)
                if self._audit is not None:
                    self._audit.on_swallow(conn)
        if paid:
            cost += self._grant(conn, 1)
        # Drains here, ahead of :meth:`_deliver`'s growth feedback (a late
        # match in :meth:`irecv` has no other drain).
        if conn.backlog:
            cost += self._drain(conn)
        return cost

    def _grant(self, conn: Connection, n: int) -> int:
        """Return ``n`` paid credits to the peer (they ride the next
        outgoing header, or an explicit credit message when the scheme
        asks for one) — or withhold them while a fault stall is open.
        Returns the CPU cost."""
        if self._stall_until > self.sim.now:
            self._stall_held[conn.peer] = self._stall_held.get(conn.peer, 0) + n
            return 0
        conn.pending_credit_return += n
        if self._audit is not None:
            self._audit.on_grant(conn, n)
        if self.scheme.should_send_ecm(conn):
            return self._emit_ecm(conn)
        return 0

    def _handle_cts(self, conn: Connection, h: Header) -> int:
        op = self._rndv_send.get(h.sreq_id)
        if op is None:
            raise MPIError(f"rank {self.rank}: CTS for unknown sreq {h.sreq_id}")
        op.fin_rreq_id = h.rreq_id
        op.cts_remote_addr = h.remote_addr
        op.cts_rkey = h.rkey
        if op.fallback:
            conn.fallback_inflight -= 1
        cost = self._emit_data(conn, op)
        if op.bounce:
            cost += self.config.copy_ns(op.size)  # stage into pinned scratch
        return cost

    def _handle_fin(self, conn: Connection, h: Header) -> int:
        op = self._rndv_recv.pop(h.rreq_id, None)
        if op is None:
            raise MPIError(f"rank {self.rank}: FIN for unknown rreq {h.rreq_id}")
        payload = op.mr.load(op.landing_addr)
        if op.bounce:
            cost = self.config.copy_ns(op.size)  # bounce slot -> user buffer
        else:
            cost = self.pindown.release(op.buffer_id, op.mr)
        self._complete_recv(op.request, op.src, op.tag, op.size, payload)
        return cost

    #: arrival dispatch of :meth:`_deliver`: ``handler(self, conn, h)``
    #: returns its CPU cost (None: the message still occupies its vbuf)
    _HANDLERS = {
        MsgKind.EAGER: _handle_data,
        MsgKind.RNDV_RTS: _handle_data,
        MsgKind.RNDV_CTS: _handle_cts,
        MsgKind.RNDV_FIN: _handle_fin,
        # an explicit credit message is all prologue: its credits were
        # folded in before the dispatch
        MsgKind.CREDIT: lambda self, conn, h: 0,
    }

    # --- outbound completions --------------------------------------------
    def _handle_send_done(self, wc: WC) -> int:
        self._sends_open -= 1
        if self._sends_open < 0:
            raise MPIError(f"rank {self.rank}: completion for a send never posted: {wc!r}")
        record = wc.wr_id  # what _post attached
        if type(record) is Header:
            if not record.via_ring:  # a ring write consumed no vbuf
                self._release_send_vbuf()
            return 0
        op: RndvSendOp = record  # the rendezvous payload landed
        cost = self._emit_fin(self.connections[op.dst], op)
        if op.mr is not None:
            cost += self.pindown.release(op.buffer_id, op.mr)
        del self._rndv_send[op.sreq_id]
        op.request.complete(Status())
        return cost

    def _release_send_vbuf(self) -> None:
        """An eager/control SEND is over — completed, flushed or errored:
        its vbuf returns to the pool."""
        self.pool.release()
        if self._audit is not None:
            self._audit.on_send_done(self)

    # ------------------------------------------------------------------
    # emission paths
    # ------------------------------------------------------------------
    def _pool_ok(self, control: bool) -> bool:
        floor = 0 if control else CONTROL_RESERVE
        return self.pool.free > floor

    def _take_credit(self, conn: Connection) -> bool:
        """Consume one credit toward ``conn.peer`` if the scheme has one
        to give; the paid header it buys may be emitted later (a vbuf
        wait can sit in between)."""
        if not self.scheme.try_consume_credit(conn):
            return False
        if self._audit is not None:
            self._audit.on_consume(conn)
        return True

    def _post(self, conn: Connection, record: Any, opcode: Opcode, length: int,
              payload: Any, remote_addr: int = 0, rkey: int = 0) -> None:
        """Post one send work request.  ``record`` — the :class:`Header`
        of a SEND or ring write, the :class:`RndvSendOp` of a payload write
        — is its ``wr_id``, the cookie the verbs hand back in the completion:
        to :meth:`_handle_send_done`, or :meth:`_reclaim_error_wc` on a flush."""
        self._sends_open += 1
        conn.qp.post_send(SendWR(record, opcode, length, payload, remote_addr, rkey))

    def _emit(
        self,
        conn: Connection,
        header: Header,
        ref: Any = None,
        replay: bool = False,
    ) -> int:
        """Emit one protocol message: staged into a pool vbuf and SENT —
        the caller must have verified pool availability (``_pool_ok``) —
        or, for eager data on a ring connection, RDMA-written into the
        peer's ring (no vbuf, no remote WQE).  ``ref`` is what the message
        belongs to: the :class:`Request` of an eager send, the
        :class:`RndvSendOp` of an RTS.  Returns CPU cost.

        ``replay=True`` (recovery manager only) re-posts an un-acked
        message after QP re-establishment: the header keeps its original
        sequence number (the receiver never consumed it), carries no
        credits (pre-fault piggybacked grants are re-minted by the
        resync), and neither the stats nor the request are touched —
        eager requests completed at first emission.  A ring replay lands
        in the fresh ring, re-established empty at slot 0, in its
        original order.
        """
        if replay:
            header.credits = 0
        else:
            if self._halted or (self._ft is not None and conn.peer in self._ft.dead):
                # A dead rank emits nothing; toward a dead peer there is no
                # one to emit to (the QP is in ERROR — post_send would
                # raise).  Any request this message carried was already
                # completed with PROC_FAILED by the failure manager.
                return 0
            if conn.recovering:
                # QP pair mid-re-establishment: park the emission (no vbuf,
                # no ring slot, no sequence number) — the manager re-emits
                # deferred messages FIFO after the un-acked replays once
                # the QP re-arms (and the fresh ring is wired).
                if type(conn.deferred) is tuple:  # first use
                    conn.deferred = deque()
                conn.deferred.append((header, ref))
                return 0
            # all pending return-credits ride this message
            piggy = conn.pending_credit_return
            conn.pending_credit_return = 0
            header.credits += piggy
            header.seq = conn.seq_out
            conn.seq_out += 1
        cfg = self.config
        eager = header.kind is MsgKind.EAGER
        ring = eager and conn.ring is not None
        if not ring and not self.pool.try_acquire():
            raise MPIError(f"rank {self.rank}: vbuf pool exhausted (control reserve breached)")
        cost = cfg.post_overhead_ns
        wire = cfg.header_bytes
        if eager:
            wire += header.size
            cost += cfg.copy_ns(header.size)  # user -> vbuf / ring-slot copy
        if ring:
            header.via_ring = True
            self._post(conn, header, Opcode.RDMA_WRITE, wire, header,
                       conn.ring.next_ring_addr(), conn.ring.tx_rkey)
        else:
            self._post(conn, header, Opcode.SEND, wire, header)
        if not replay:
            stats = conn.stats
            stats.msgs_sent += 1
            if eager:
                stats.data_msgs_sent += 1
                if ref is not None:
                    # Buffered-send semantics: the user buffer is reusable
                    # the moment the payload is staged into the vbuf (or
                    # ring slot), so the send request completes at emission
                    # (not at the ACK).  A send that had to wait in the
                    # backlog therefore blocks its MPI_Send until
                    # credits/handshake let it out — which is exactly how
                    # blocking tests "get more credits through the
                    # handshaking procedure" (paper §6.2.2).
                    ref.complete(Status())
            if header.kind is MsgKind.CREDIT:
                stats.ecm_sent += 1
                stats.ecm_credits += header.credits
            else:
                stats.piggybacked_credits += piggy
                if not eager:
                    # Control-plane send (RTS/CTS/FIN): counted apart from
                    # data so the Figure-8 control-overhead split doesn't
                    # attribute handshake traffic to data messages.
                    stats.ctl_msgs_sent += 1
        if self._audit is not None:
            self._audit.on_emit(conn, header, replay)
        return cost

    def _emit_data(self, conn: Connection, op: RndvSendOp, replay: bool = False) -> int:
        """RDMA-write a rendezvous payload to the landing coordinates its
        CTS announced.  Idempotent at the receiver — the coordinates are
        stable and ``mr.store`` overwrites in place — so recovery re-runs
        a flushed write (``replay=True``: stats untouched)."""
        self._post(conn, op, Opcode.RDMA_WRITE, op.size,
                   op.payload, op.cts_remote_addr, op.cts_rkey)
        if not replay:
            conn.stats.msgs_sent += 1
            conn.stats.data_msgs_sent += 1
        return self.config.post_overhead_ns

    def _emit_ecm(self, conn: Connection) -> int:
        """Explicit credit message — optimistic, never flow-controlled
        (the paper's deadlock-avoidance scheme)."""
        ecm = Header(
            kind=MsgKind.CREDIT, src=self.rank, dst=conn.peer, paid=False
        )
        return self._emit(conn, ecm)

    def _emit_fin(self, conn: Connection, op: RndvSendOp) -> int:
        fin = Header(
            kind=MsgKind.RNDV_FIN,
            src=self.rank,
            dst=conn.peer,
            rreq_id=op.fin_rreq_id,
            paid=False,
        )
        return self._emit(conn, fin)

    # ------------------------------------------------------------------
    # backlog / flow-control plumbing
    # ------------------------------------------------------------------
    def _enqueue_backlog(self, conn: Connection, pending: PendingSend) -> None:
        backlog = conn.backlog
        if type(backlog) is tuple:  # first use
            backlog = conn.backlog = deque()
        backlog.append(pending)
        if self._audit is not None:
            self._audit.on_backlog_enqueue(conn, pending.header)
        conn.stats.backlogged += 1
        if pending.header.kind is not MsgKind.EAGER:
            conn.stats.ctl_backlogged += 1
        depth = len(backlog)
        if depth > conn.stats.backlog_max:
            conn.stats.backlog_max = depth
        self._backlogged.add(conn.peer)

    def _drain_backlogged(self) -> int:
        cost = 0
        for peer in list(self._backlogged):
            cost += self._drain(self.connections[peer])
        return cost

    def _drain(self, conn: Connection) -> int:
        """Process the backlog FIFO: send while credits allow; with zero
        credits, push the head through the rendezvous fallback (one
        handshake at a time per connection)."""
        if conn.recovering:
            return 0  # stale credit state; the resync re-drains
        if self._halted or (self._ft is not None and conn.peer in self._ft.dead):
            return 0  # dead rank / dead peer: nothing drains (see _emit)
        cost = 0
        # Credit-less schemes only ever backlog while a connection is
        # recovering; their drain gate is the vbuf pool alone (there are
        # no credits to wait for, and no fallback to convert to).
        while (
            conn.backlog
            and (conn.credits > 0 or not self.scheme.uses_credits)
            and self._pool_ok(control=False)
        ):
            if not self._take_credit(conn):  # pragma: no cover
                break
            p = conn.backlog.popleft()
            if self._audit is not None:
                self._audit.on_backlog_dequeue(conn, p.header)
            p.header.went_backlog = True
            conn.stats.credit_stalled_ns += self.sim.now - p.enqueue_ns
            cost += self._emit(conn, p.header, p.request)
        while (
            conn.backlog
            and conn.credits == 0
            and self.scheme.allows_rndv_fallback
            and conn.fallback_inflight < self.scheme.fallback_window
            and self._pool_ok(control=True)
        ):
            p = conn.backlog.popleft()
            if self._audit is not None:
                # the fallback mints a fresh unpaid RTS; the dequeued
                # header itself is never emitted
                self._audit.on_backlog_dequeue(conn, p.header, reemitted=False)
            cost += self._start_fallback(conn, p)
        if not conn.backlog:
            self._backlogged.discard(conn.peer)
        return cost

    def _start_fallback(self, conn: Connection, p: PendingSend) -> int:
        """Convert the head of the backlog to an optimistic rendezvous
        (paper §4.2: with no credits, only Rendezvous is used — its
        handshake refreshes credit state via piggybacking)."""
        conn.fallback_inflight += 1
        conn.stats.rndv_fallbacks += 1
        conn.stats.credit_stalled_ns += self.sim.now - p.enqueue_ns
        h = p.header
        if h.kind is MsgKind.EAGER:
            op = RndvSendOp(
                sreq_id=next_op_id(),
                request=p.request,
                dst=h.dst,
                tag=h.tag,
                context=h.context,
                size=h.size,
                payload=h.payload,
                buffer_id=None,
                mr=None,
                bounce=True,
                fallback=True,
            )
            self._rndv_send[op.sreq_id] = op
        else:  # an RTS that was itself backlogged: send it unpaid
            op = p.request
            op.fallback = True
        rts = Header(
            kind=MsgKind.RNDV_RTS,
            src=self.rank,
            dst=conn.peer,
            tag=h.tag,
            context=h.context,
            size=h.size,
            sreq_id=op.sreq_id,
            paid=False,
            went_backlog=True,
        )
        return self._emit(conn, rts)

    # ------------------------------------------------------------------
    # rendezvous receiver side
    # ------------------------------------------------------------------
    def _rndv_recv_start(self, h: Header, posted: PostedRecv) -> int:
        conn = self.connections[h.src]
        bounce = h.size <= self._eager_max
        cost = 0
        if bounce:
            mr = self.bounce.mr
            addr = self.bounce.next_slot()
        else:
            mr, pin_cost = self.pindown.acquire(posted.buffer_id, h.size)
            addr = mr.addr
            cost += pin_cost
        op = RndvRecvOp(
            rreq_id=next_op_id(),
            request=posted.request,
            src=h.src,
            tag=h.tag,
            context=h.context,
            size=h.size,
            buffer_id=posted.buffer_id,
            mr=mr,
            landing_addr=addr,
            bounce=bounce,
        )
        self._rndv_recv[op.rreq_id] = op
        cts = Header(
            kind=MsgKind.RNDV_CTS,
            src=self.rank,
            dst=h.src,
            size=h.size,
            sreq_id=h.sreq_id,
            rreq_id=op.rreq_id,
            remote_addr=addr,
            rkey=mr.rkey,
            paid=False,
        )
        return cost + self._emit(conn, cts)

    # ------------------------------------------------------------------
    # fault-injection hooks (driven by repro.faults.FaultInjector)
    # ------------------------------------------------------------------
    def halt(self) -> None:
        """Fault hook (rank death): freeze this rank's program for good.
        The progress loops park on a signal that never fires, stray
        timer-driven resumptions fall through emission guards, and no
        state mutates after this point — the rank is simply gone."""
        self._halted = True
        if self._halt_signal is None:
            self._halt_signal = Signal(f"halted.{self.rank}")

    def fault_stall(self, duration_ns: int) -> None:
        """Start (or extend) a receiver-stall window: the rank stops
        re-posting vbufs and withholds paid credit returns, modelling a
        slow consumer that starves the sender (paper §3.2 / Figure 10)."""
        until = self.sim.now + int(duration_ns)
        if until > self._stall_until:
            self._stall_until = until

    def fault_release_stall(self) -> int:
        """End of a stall window: refill every connection's buffer
        population and return the withheld credits, announcing them with an
        ECM so credit-blocked senders wake promptly.  Returns the number of
        credits released (0 if a longer overlapping stall is still open).
        A static-mesh pair not wired yet is full and holds nothing back:
        nothing to do for it."""
        if self._stall_until > self.sim.now:
            return 0
        held, self._stall_held = self._stall_held, {}
        released = 0
        for peer in sorted(self.connections):
            conn = self.connections[peer]
            conn.refill_recv_buffers()
            paid = held.get(peer, 0)
            if paid:
                self._grant(conn, paid)
                released += paid
                self.tracer.count("faults.stall_released", peer, paid)
            if (
                conn.pending_credit_return
                and self.scheme.uses_credits
                and self._pool_ok(control=True)
            ):
                self._emit_ecm(conn)
        return released

    # ------------------------------------------------------------------
    # misc helpers
    # ------------------------------------------------------------------
    def _complete_recv(self, req: Request, src: int, tag: int, size: int, payload: Any) -> None:
        """The user buffer has the data: the one place a received message
        is counted, whichever channel and however late the match."""
        self.bytes_received += size
        req.complete(Status(src, tag, size, payload))

    def _check_peer(self, peer: int) -> None:
        if peer == self.rank:
            raise MPIError("self-sends are not supported by this device")
        if not 0 <= peer < self.world_size:
            raise MPIError(f"rank {peer} outside the world of {self.world_size}")
        if peer not in self.connections and self._connector is None:
            raise MPIError(f"rank {self.rank} has no connection to {peer}")

    def _ensure_connected(self, dest: int) -> Generator:
        """Return the connection to ``dest``, wiring it on this first send:
        a static-mesh pair on the spot (MPI_Init paid for it: nothing is
        simulated), an on-demand one by the CM exchange the send blocks
        for, as in MVAPICH's on-demand mode."""
        sig = self._connector(self, dest)
        if sig is not None and not sig.fired:
            yield sig
        return self.connections[dest]

    @staticmethod
    def _check_capacity(h: Header, capacity: int) -> None:
        if capacity and h.size > capacity:
            raise TruncationError(
                f"message of {h.size} bytes into a {capacity}-byte receive"
            )

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Endpoint rank={self.rank}/{self.world_size}>"
