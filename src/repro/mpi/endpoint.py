"""The MPI endpoint: one per rank, the ADI2-style device of this MPI.

An :class:`Endpoint` owns the rank's verbs resources (one CQ for every
connection, as in the paper's design), the pre-pinned vbuf pool, the
matching engine, the pin-down cache and the rendezvous op tables.  It
*executes* the protocol — the credit transitions of :mod:`repro.core.credit`
and the message decisions of :mod:`repro.mpi.protocol` and
:mod:`repro.mpi.rendezvous` (DESIGN §5.3-5.4) — against the verbs layer,
and runs the progress engine; the subsystems watch it through the
observer seam (``Cluster.observe``), ft and recovery decide at their own
few sites, and an errored completion's verdict is one sim-free table
(:func:`repro.recovery.failures.classify`) that the endpoint executes.

All public operations are *generators* driven by the simulation kernel;
application programs call them with ``yield from``::

    def program(mpi):
        req = yield from mpi.irecv(source=1, capacity=1 << 20)
        yield from mpi.send(1, size=4)
        status = yield from mpi.wait(req)

Progress happens only inside MPI calls, which the paper's user-level
schemes depend on.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, Generator, List, Optional, Set

from repro.core import credit
from repro.core.base import FlowControlScheme
from repro.ib.hca import HCA
from repro.ib.mr import MemoryRegion
from repro.ib.qp import QueuePair
from repro.ib.types import Opcode, QPState, WCStatus
from repro.ib.wr import SendWR, WC, shared_recv_wr
from repro.mpi import collectives, protocol, rendezvous
from repro.mpi.buffer_pool import SendBufferPool
from repro.mpi.config import MPIConfig
from repro.mpi.connection import Connection, PendingSend
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, WORLD_CONTEXT
from repro.mpi.matching import MatchingEngine, PostedRecv
from repro.mpi.pindown_cache import PinDownCache
from repro.mpi.protocol import Header, MPIError, MsgKind
from repro.mpi.rendezvous import BounceRegion, RndvRecvOp, RndvSendOp
from repro.mpi.request import Request, Status
from repro.ft.failures import RankFailedError
from repro.recovery.failures import (
    DECLARE, FAIL, JOIN, RECOVER, ConnectionFailedError, ConnectionFailure, classify,
)
from repro.sim import TIMEOUTS, Simulator
from repro.sim.trace import Tracer


#: the ring channel class, bound by the first endpoint whose scheme uses a
#: ring (``Endpoint.__init__``): a job without one never loads it
RDMAChannel = None

#: vbufs held back for control traffic (CTS/FIN/ECM) so progress-side
#: emissions can never block on the pool (which would deadlock progress).
CONTROL_RESERVE = 32


class Endpoint:
    """One MPI process endpoint."""

    # declared: past 30 attributes an instance dict stops being inline
    __slots__ = (
        "sim", "hca", "rank", "world_size", "config", "scheme",
        "requested_prepost", "tracer", "_ring_mode", "mesh",
        "cq", "pool", "matching", "pindown", "bounce",
        "connections", "_backlogged", "_standin",
        "_ring_dirty",
        "_sends_open", "_rndv_send", "_rndv_recv", "_coll_seq", "_connector",
        "finalized", "_stall_until", "_stall_held",
        "_t_call", "_t_poll", "_eager_max",
        "observer", "_recovery", "_ft",
        "bytes_sent", "bytes_received", "wait_ns",
    )

    def __init__(self, sim: Simulator, hca: HCA, rank: int, world_size: int,
                 config: MPIConfig, scheme: FlowControlScheme, requested_prepost: int,
                 tracer: Optional[Tracer] = None, connector: Optional[Callable] = None,
                 mesh: bool = False):
        if requested_prepost < 1:
            raise MPIError("requested_prepost must be >= 1")
        if scheme.uses_ring and not scheme.uses_credits:
            # only a slot token per write keeps a sender off a full ring
            raise MPIError(f"{type(scheme).__name__}: uses_ring needs uses_credits")
        self.sim = sim
        self.hca = hca
        self.rank = rank
        self.world_size = world_size
        self.config = config
        self.scheme = scheme
        self.requested_prepost = requested_prepost
        self.tracer = tracer or Tracer(enabled=False)
        #: eager traffic travels by RDMA-write ring (the scheme owns one)
        self._ring_mode = scheme.uses_ring
        if self._ring_mode:
            global RDMAChannel
            from repro.mpi.rdma_channel import RDMAChannel

        self.cq = hca.create_cq(f"mpi.cq.{rank}")
        self.pool = SendBufferPool(config.send_pool_buffers, config.vbuf_bytes)
        self.matching = MatchingEngine()
        self.pindown = PinDownCache(hca)
        bounce_mr = hca.reg_mr(config.vbuf_bytes * 64)
        self.bounce = BounceRegion(bounce_mr, config.vbuf_bytes, 64, config.eager_max())

        self.connections: Dict[int, Connection] = {}
        self._backlogged: Set[int] = set()  # peers with non-empty backlog
        #: a static mesh: every other rank is a peer, its pair wired at first
        #: touch (``connections`` holds those wired so far)
        self.mesh = mesh
        self._standin: Optional[Connection] = None  # see idle_connection()
        #: peers whose ring holds unprocessed arrivals: all a poll looks at
        self._ring_dirty: Set[int] = set()
        #: sends posted, completion not polled yet (each holds a vbuf or a pin)
        self._sends_open = 0
        self._rndv_send: Dict[int, RndvSendOp] = {}  # sreq_id -> op
        self._rndv_recv: Dict[int, RndvRecvOp] = {}  # rreq_id -> op
        self._coll_seq: Dict[int, int] = {}  # context -> collective sequence
        #: wires the pair of a first send: ``Cluster.wire`` on a static mesh
        #: (wired on the spot, returns None), ``ConnectionManager.request`` on
        #: demand (returns the signal to wait for); None: the table is all
        self._connector = connector
        self.finalized = False
        #: fault injection: until then this rank neither re-posts vbufs nor
        #: returns paid credits — the starved-receiver model
        self._stall_until = 0
        #: peer -> paid credits withheld during the stall window
        self._stall_held: Dict[int, int] = {}
        # the fixed per-call costs, yielded thousands of times per run
        self._t_call = TIMEOUTS[config.call_overhead_ns]
        self._t_poll = TIMEOUTS[config.poll_overhead_ns]
        #: largest eager payload; anything bigger goes through rendezvous
        self._eager_max = config.eager_max()
        #: the observer slot (``Cluster.observe``), and the recovery and ft
        #: managers' decision sites; None = disarmed, so a site costs one test
        self.observer = None
        self._recovery = None
        self._ft = None

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
        """The stand-in a per-job report counts every static-mesh pair not
        wired yet as: built once as ``Cluster.wire`` builds a half, but off
        the table and the adapter (its ring region points at itself)."""
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
        """Point each half of a pair being brought up at the other's ring."""
        for tx, rx in ((conn_ab, conn_ba), (conn_ba, conn_ab)):
            ring = rx.ring.ring
            tx.ring.point_tx_ring(ring.mr.addr, ring.mr.rkey, ring.slots)

    def _post_recv_vbuf(self, conn: Connection, n: int = 1) -> int:
        """Post ``n`` receive vbufs on ``conn``; returns how many were
        posted (``n``, or 0 while the QP cannot take them: a recovery
        window, whose resync refill restores the population)."""
        qp = conn.qp
        if qp.state is not QPState.READY:
            return 0
        qp.post_recv(conn.recv_wr, n)
        conn.recv_posted += n
        if self.observer is not None:
            self.observer.on_post_recv(conn, n)
        return n

    @property
    def now(self) -> int:
        return self.sim.now

    # ------------------------------------------------------------------
    # public API: point-to-point
    # ------------------------------------------------------------------
    def isend(self, dest: int, size: int, tag: int = 0, payload: Any = None,
              buffer_id: Optional[object] = None, context: int = WORLD_CONTEXT,
              mode: str = "standard") -> Generator:
        """Non-blocking send; returns a :class:`Request`.  ``mode`` is the
        MPI communication mode (paper §3.1): ``"standard"`` and
        ``"buffered"`` (one behaviour: this device buffers through the vbuf
        pool), ``"sync"`` (MPI_Ssend: always the rendezvous handshake, which
        proves the receive matched) and ``"ready"`` (MPI_Rsend: arriving
        unexpected is an error).  :func:`rendezvous.choose` picks eager or
        rendezvous."""
        if mode not in ("standard", "buffered", "sync", "ready"):
            raise MPIError(f"unknown send mode {mode!r}")
        # A connected peer is a valid one (and almost always is connected).
        conn = self.connections.get(dest)
        if conn is None:
            self._check_peer(dest)
        if size < 0:
            raise MPIError(f"negative message size {size}")
        if tag < 0:
            raise MPIError(f"MPI_ERR_TAG: a send's tag is >= 0, not {tag}")
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
        if self.observer is not None:
            self.observer.on_app_send(self.rank, dest, tag, context, size)
        yield self._t_call
        if req.done:  # dest declared dead while this call was parked
            return req

        # Per message, so positional, in Header's field order: kind, src,
        # dst, tag, context, size, seq, credits, went_backlog, paid, ready,
        # via_ring, sreq_id, rreq_id, remote_addr, rkey, payload.
        header = Header(
            MsgKind.EAGER, self.rank, dest, tag, context, size, -1,
            0, False, True, mode == "ready", False,
            -1, -1, 0, 0, payload,
        )
        how = rendezvous.choose(mode, size, self._eager_max)
        if how:
            mr, pin_cost = (self.pindown.acquire(buffer_id, size)
                            if how == rendezvous.PIN else (None, 0))
            yield TIMEOUTS[pin_cost]
            if req.done:  # dest declared dead while pinning
                if mr is not None:
                    self.pindown.release(buffer_id, mr)
                return req
            header = rendezvous.rts(self._rndv_send, header, req, mr, buffer_id)
        # no credit, a backlog ahead or a recovering connection: the send
        # joins the backlog (credit.take)
        if self._take_credit(conn):
            # everything but an eager ring write is staged in a pool vbuf
            ring = conn.ring is not None and header.kind is MsgKind.EAGER
            if not ring and self.pool.free <= CONTROL_RESERVE:
                yield from self._progress_until(lambda: self.pool.free > CONTROL_RESERVE)
                if req.done:  # dest declared dead during the pool wait
                    return req
            yield TIMEOUTS[self._emit(conn, header, req)]
        else:
            self._enqueue_backlog(conn, PendingSend(header, req, self.sim.now))
            yield TIMEOUTS[self._drain(conn)]
        # Every MPI call pokes the progress engine (as MPICH's ADI does), or
        # a rank that only isends would never see a CTS or a credit (paper
        # §4.2).  _poll_once, open-coded: the same yields, one frame less.
        yield self._t_poll
        if self.cq._entries or self._ring_dirty:
            yield from self._poll_busy()
        elif self._backlogged:
            cost = self._drain_backlogged()
            if cost:
                yield TIMEOUTS[cost]
        return req

    def irecv(self, source: int = ANY_SOURCE, capacity: int = 0, tag: int = ANY_TAG,
              buffer_id: Optional[object] = None, context: int = WORLD_CONTEXT) -> Generator:
        """Non-blocking receive; returns a :class:`Request`."""
        if source != ANY_SOURCE and source not in self.connections:
            self._check_peer(source)
        if capacity < 0:
            raise MPIError(f"negative receive capacity {capacity}")
        if tag < 0 and tag != ANY_TAG:
            raise MPIError(f"MPI_ERR_TAG: a receive's tag is >= 0 or ANY_TAG, not {tag}")
        req = Request("recv")
        if (self._ft is not None and source != ANY_SOURCE
                and self._ft.fail_if_dead(self, req, source)):
            yield self._t_call
            return req
        yield self._t_call
        posted = PostedRecv(source, tag, context, capacity, req, buffer_id)
        unexpected = self.matching.post_recv(posted)
        if unexpected is not None:
            # the late match: protocol.match as at arrival, one yield a step
            h = unexpected.header
            act = protocol.match(h, posted, late=True)
            if self.observer is not None:
                self.observer.on_match(h)
            conn = self.connections[h.src]
            if act & protocol.LAND:
                yield TIMEOUTS[self._land(conn, h, posted)]
            else:  # eager: COPY | COMPLETE, and FREE for a parked vbuf
                yield TIMEOUTS[self.config.copy_ns(h.size)]
                self._complete_recv(req, h.src, h.tag, h.size, h.payload)
                if act & protocol.FREE:
                    yield TIMEOUTS[self._release(conn, h)]
        elif self._ft is not None and source != ANY_SOURCE:
            # nothing arrived yet: the peer's liveness now gates this
            # request, so the failure detector watches it
            self._ft.watch(self, req, source)
        yield self._t_poll  # _poll_once, open-coded as in isend
        if self.cq._entries or self._ring_dirty:
            yield from self._poll_busy()
        elif self._backlogged:
            cost = self._drain_backlogged()
            if cost:
                yield TIMEOUTS[cost]
        return req

    def send(self, dest: int, size: int, **kwargs) -> Generator:
        """Blocking send (MPI_Send): eager returns once staged, rendezvous
        at the end of the handshake."""
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

    def recv(self, source: int = ANY_SOURCE, capacity: int = 0, tag: int = ANY_TAG,
             **kwargs) -> Generator:
        """Blocking receive; returns the :class:`Status`."""
        req = yield from self.irecv(source, capacity, tag, **kwargs)
        status = yield from self.wait(req)
        return status

    def wait(self, request: Request) -> Generator:
        """Block until ``request`` completes; returns its status."""
        sim = self.sim
        t0 = sim.now
        # _progress_until(lambda: request.done) and _poll_once, open-coded
        # in the hottest loop: the same yields, without the frames
        cq = self.cq
        while not request.done:
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
                yield cq
        self.wait_ns += sim.now - t0
        return request.status

    def waitall(self, requests: List[Request]) -> Generator:
        """Block until every request completes; returns their statuses."""
        t0 = self.now
        # requests only ever complete, so the predicate keeps the done
        # prefix: O(n) over the window, not an O(n²) rescan per step
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
    # public API: collectives (repro.mpi.collectives, bound as methods)
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
        """Quiesce locally (sends completed, backlogs drained), then
        synchronise with every rank; stray control traffic afterwards parks
        in posted vbufs."""
        yield from self._progress_until(self._locally_quiescent)
        if self._ft is not None:
            # ULFM: quiesce locally, never wait on membership (a barrier
            # could hang on a death one rank saw declared and another not)
            self.finalized = True
            return
        yield from self.barrier()
        yield from self._progress_until(self._locally_quiescent)
        self.finalized = True

    def _locally_quiescent(self) -> bool:
        dead = self._ft.dead if self._ft is not None else ()
        # severed state toward dead peers is frozen; a torn-down on-demand
        # pair has left the table
        return all(
            not c.backlog and not c.recovering and not c.deferred
            and c.qp.outstanding_sends == 0
            for p, c in self.connections.items() if p not in dead
        ) and not self._rndv_send and not self._sends_open and len(self.cq) == 0

    # ------------------------------------------------------------------
    # progress engine
    # ------------------------------------------------------------------
    def _ring_ready(self) -> bool:
        """Any RDMA-ring arrival that is next in its connection's sequence?"""
        for peer in self._ring_dirty:
            conn = self.connections[peer]
            if conn.ring.poll_peek(conn.seq_in_expected):
                return True
        return False

    def _progress_until(self, pred: Callable[[], bool]) -> Generator:
        while not pred():
            yield from self._poll_once()
            if pred():
                return
            if not self.cq._entries and not (self._ring_dirty and self._ring_ready()):
                yield self.cq

    def _poll_once(self) -> Generator:
        """Drain the CQ and the dirty rings, charging each completion's CPU
        cost, then the backlogs."""
        yield self._t_poll
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
        if self._stall_until > self.sim.now:
            # A stalled consumer handles nothing: arrivals pile up, vbufs
            # are not replenished, no credit or CTS leaves — the paper's
            # slow receiver (RNR storms under hardware, backlogs above it).
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
                        h = protocol.ring_next(conn)
                        if h is None:
                            if not ch.has_arrivals:
                                # fully drained; a blocked head (waiting on
                                # a control message in the CQ path to
                                # advance seq_in_expected) stays dirty
                                dirty.discard(peer)
                            break
                        progressed = True
                        cost = self.config.rdma_poll_ns + self._deliver(conn, h)
                        # ring progress may unpark overtaking CQ headers
                        while ch.cq_stash and (h := protocol.unpark(conn)):
                            cost += self._deliver(conn, h)
                        if cost:
                            yield TIMEOUTS[cost]
            if not progressed:
                break
        if self._backlogged:
            cost = self._drain_backlogged()
            if cost:
                yield TIMEOUTS[cost]

    def _handle_wc(self, wc: WC) -> int:
        if wc.status is not WCStatus.SUCCESS:
            return self._handle_error_wc(wc)
        if not wc.is_recv:
            return self._handle_send_done(wc)
        h: Header = wc.data
        conn = self.connections[h.src]
        conn.recv_posted -= 1
        if not protocol.in_order(conn, h):
            return self.config.header_proc_ns  # parked behind a ring write
        cost = self._deliver(conn, h)
        ch = conn.ring
        while ch is not None and ch.cq_stash and (h := protocol.unpark(conn)):
            cost += self._deliver(conn, h)
        return cost

    # --- errored completions ---------------------------------------------
    def _conn_of(self, wc: WC) -> Optional[Connection]:
        """The connection an errored or flushed completion belongs to, by
        its ``wr_id`` (a receive's peer, or the send record's ``dst``), if
        that peer's QP is the one that completed."""
        conn = self.connections.get(wc.wr_id if wc.is_recv else wc.wr_id.dst)
        if conn is not None and conn.qp.qp_num == wc.qp_num:
            return conn
        return None

    def _reclaim_error_wc(self, wc: WC) -> Any:
        """Undo what an errored or flushed completion invalidates (a send's
        vbuf, a receive's ``recv_posted``); returns the send's record for
        the recovery manager to replay (None for a receive)."""
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

    def unpolled(self, peer: Optional[int] = None) -> List[Header]:
        """The headers delivered (from ``peer``, by any of the pair's QPs,
        or from anyone) that wait unpolled in the CQ: what recovery and the
        end-of-job checks count as parked."""
        return [wc.data for wc in self.cq._entries if wc.is_recv and wc.ok
                and (peer is None or wc.wr_id == peer)]

    def reclaim_flushed(self, qp: QueuePair) -> List[Any]:
        """Take ``qp``'s unpolled errored completions off the CQ, each
        reclaimed; returns the sends' records, in flush order."""
        records = [self._reclaim_error_wc(wc) for wc in self.cq.remove_errors(qp.qp_num)]
        return [r for r in records if r is not None]

    def _handle_error_wc(self, wc: WC) -> int:
        """A completion with non-success status: reclaimed, then the verdict
        of :func:`~repro.recovery.failures.classify` executed."""
        record = self._reclaim_error_wc(wc)
        conn = self._conn_of(wc)
        ft, rec = self._ft, self._recovery
        peer = wc.peer if conn is None else conn.peer
        cause = wc.status.value
        kind, *args = classify(
            cause, conn is not None, peer,
            dead=None if ft is None else ft.dead,
            adapter_dead=conn is not None and self.hca.fabric.hca_at(conn.qp.remote_lid).dead,
            recovery=rec is not None, recovering=conn is not None and conn.recovering,
            attempts=0 if rec is None else rec.attempts(self.rank, peer),
            max_attempts=0 if rec is None else rec.policy.max_attempts)
        if kind == DECLARE:
            ft.declare(peer, detected_by=self.rank, cause="transport-retry-exceeded")
        elif kind == RECOVER:
            rec.begin(self.rank, peer, args[0], cause)
        elif kind == FAIL:
            _, attempts, teardown = args
            failure = ConnectionFailure(
                rank=self.rank, peer=peer, scheme=self.scheme.name.value,
                epoch=0 if conn is None else conn.qp.epoch, cause=cause,
                elapsed_ns=self.sim.now, attempts=attempts)
            if teardown:
                rec.give_up(failure)
            raise ConnectionFailedError(failure)
        if kind == RECOVER or kind == JOIN:
            rec.keep(self.rank, peer, record)
        return 0

    def sever(self, peer: int) -> List[Request]:
        """Cut this rank loose from ``peer``: error the QP, drop every
        pending operation toward it and wake a parked progress loop;
        returns the dropped requests.  ft fails them PROC_FAILED (a dead
        peer); the connection manager's teardown of a lost on-demand pair
        discards them, as the failure that lost the pair ends the job."""
        dropped = []
        conn = self.connections.get(peer)
        if conn is not None:
            conn.qp.force_error()  # idempotent
            self.reclaim_flushed(conn.qp)
            dropped += [pending.request for pending in conn.backlog]
            conn.backlog = ()
            conn.deferred = ()
            if conn.ring is not None:
                conn.ring.cq_stash = ()
            self._backlogged.discard(peer)
        for sreq_id in [k for k, op in self._rndv_send.items() if op.dst == peer]:
            op = self._rndv_send.pop(sreq_id)
            if op.mr is not None and not op.bounce:
                self.pindown.release(op.buffer_id, op.mr)
            dropped.append(op.request)
        for rreq_id in [k for k, op in self._rndv_recv.items() if op.src == peer]:
            op = rendezvous.finish(self._rndv_recv, self.bounce, rreq_id)  # frees its slot
            if not op.bounce:
                self.pindown.release(op.buffer_id, op.mr)
            dropped.append(op.request)
        self.cq.wake()
        return dropped

    # --- inbound ---------------------------------------------------------
    def _deliver(self, conn: Connection, h: Header) -> int:
        """Process one in-sequence arrival, a SEND from the CQ or an eager
        write from the ring: the protocol decides (:func:`protocol.match`,
        :mod:`rendezvous`), this executes — pins, copies, emits, completes
        and releases."""
        cost = self.config.header_proc_ns
        if h.credits:
            credit.receive(self.scheme, conn, h.credits)
        if self.observer is not None:
            self.observer.on_deliver(conn, h)

        kind = h.kind
        if kind is MsgKind.EAGER or kind is MsgKind.RNDV_RTS:
            posted = self.matching.arrived(h, self.sim.now)
            act = protocol.match(h, posted)
            if posted is not None:
                if self.observer is not None:
                    self.observer.on_match(h)
                if act & protocol.LAND:
                    cost += self._land(conn, h, posted)
                elif act & protocol.COMPLETE:
                    self._complete_recv(posted.request, h.src, h.tag, h.size, h.payload)
            if act & protocol.COPY:
                cost += self.config.copy_ns(h.size)  # vbuf / slot -> user buffer
            if act:  # 0: parked in its vbuf until matched
                cost += self._release(conn, h)
        else:
            if kind is MsgKind.RNDV_CTS:
                op = rendezvous.cts(self._rndv_send, conn, h)
                cost += self._emit_data(conn, op)
                if op.bounce:
                    cost += self.config.copy_ns(op.size)  # stage into pinned scratch
            elif kind is MsgKind.RNDV_FIN:
                op = rendezvous.finish(self._rndv_recv, self.bounce, h.rreq_id)
                payload = op.mr.load(op.landing_addr)
                if op.bounce:
                    cost += self.config.copy_ns(op.size)  # bounce slot -> user buffer
                else:
                    cost += self.pindown.release(op.buffer_id, op.mr)
                self._complete_recv(op.request, op.src, op.tag, op.size, payload)
            # MsgKind.CREDIT, an explicit credit message, is all prologue:
            # its credits were folded in above
            cost += self._release(conn, h)

        # dynamic growth: its credits are pending already, its buffers go here
        grown = credit.grow(self.scheme, conn, h)
        if self.observer is not None:
            self.observer.on_grow(conn)
        if grown:
            posted = conn.refill_recv_buffers()
            if posted:
                # growing a WQE population charges posting of the new buffers
                cost += posted * self.config.post_overhead_ns
                if credit.grant(self.scheme, conn, 0):  # the ECM decision
                    cost += self._emit_ecm(conn)

        if conn.backlog:
            cost += self._drain(conn)
        return cost

    def _release(self, conn: Connection, h: Header) -> int:
        """Free a processed message's ring slot or vbuf and settle its
        credit as :func:`credit.release` says (a stall's holds settle in
        :meth:`fault_release_stall`)."""
        stalled = self._stall_until > self.sim.now
        if stalled:
            self.tracer.count("faults.stall_deferred", conn.peer)
        if h.via_ring and self.observer is not None:
            # the slot is free the moment the copy-out lands
            self.observer.on_ring_free(conn.ring, h)
        act = credit.release(conn, h.paid, h.via_ring, stalled)
        cost = 0
        if act & credit.REPOST:
            self._post_recv_vbuf(conn)
            cost = self.config.post_overhead_ns
        if act & credit.GRANT:
            cost += self._grant(conn, 1)
        elif act & credit.SWALLOW:
            if self.observer is not None:
                self.observer.on_swallow(conn)
        elif act & credit.HOLD:
            self._stall_held[conn.peer] = self._stall_held.get(conn.peer, 0) + 1
        # drains here, ahead of _deliver's growth (a late match has no other)
        if conn.backlog:
            cost += self._drain(conn)
        return cost

    def _grant(self, conn: Connection, n: int) -> int:
        """Return ``n`` paid credits to the peer (:func:`credit.grant`),
        with an explicit credit message when one is due.  Returns the CPU
        cost."""
        ecm = credit.grant(self.scheme, conn, n)
        if self.observer is not None:
            self.observer.on_grant(conn, n)
        return self._emit_ecm(conn) if ecm else 0

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
        cost = self._emit(self.connections[op.dst],
                          rendezvous.fin(self._rndv_send, op, self.rank))
        if op.mr is not None:
            cost += self.pindown.release(op.buffer_id, op.mr)
        op.request.complete(Status())
        return cost

    def _release_send_vbuf(self) -> None:
        """An eager/control SEND is over — completed, flushed or errored:
        its vbuf returns to the pool."""
        self.pool.release()
        if self.observer is not None:
            self.observer.on_send_done(self)

    # ------------------------------------------------------------------
    # emission paths
    # ------------------------------------------------------------------
    def _take_credit(self, conn: Connection, head: bool = False) -> int:
        """:func:`credit.take` for a new send (or the backlog's ``head``)."""
        taken = credit.take(self.scheme, conn, head)
        if taken and self.observer is not None:
            self.observer.on_consume(conn)
        return taken

    def _post(self, conn: Connection, record: Any, opcode: Opcode, length: int,
              payload: Any, remote_addr: int = 0, rkey: int = 0) -> None:
        """Post one send work request whose ``wr_id`` is ``record`` (the
        :class:`Header` of a SEND or ring write, the :class:`RndvSendOp` of a
        payload write), handed back to :meth:`_handle_send_done`."""
        self._sends_open += 1
        conn.qp.post_send(SendWR(record, opcode, length, payload, remote_addr, rkey))

    def _emit(self, conn: Connection, header: Header, req: Optional[Request] = None,
              replay: bool = False) -> int:
        """Emit one protocol message: staged into a pool vbuf and SENT (the
        caller checked the pool against ``CONTROL_RESERVE``) or, for eager
        data on a ring connection, RDMA-written into the peer's ring.
        ``req`` is the send's :class:`Request`, completed here for eager
        data.  Returns CPU cost.  ``replay=True`` (recovery only) re-posts
        an un-acked message on a re-established QP: original sequence
        number, no credits (the resync mints them again), stats and
        request untouched; a ring replay lands in the fresh ring, in order."""
        if not replay:
            if self.hca.dead or (self._ft is not None and conn.peer in self._ft.dead):
                # nothing to emit from or to.  Under ft the request fails
                # PROC_FAILED; without it a rank left running on a dead
                # adapter has its sends dropped until its next poll meets
                # the flushed completions, which stop the job
                return 0
            if conn.recovering:
                # parked, unnumbered: re-emitted FIFO after the replays
                if type(conn.deferred) is tuple:  # first use
                    conn.deferred = deque()
                conn.deferred.append((header, req))
                return 0
            header.seq = conn.seq_out
            conn.seq_out += 1
        # all pending return-credits ride this message
        piggy = (credit.piggyback(conn, header, replay)
                 if conn.pending_credit_return or replay else 0)
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
                if req is not None:
                    # buffered semantics: staged is done, so a backlogged
                    # MPI_Send waits for its credit (paper §6.2.2)
                    req.complete(Status())
            if header.kind is MsgKind.CREDIT:
                stats.ecm_sent += 1
                stats.ecm_credits += header.credits
            else:
                stats.piggybacked_credits += piggy
                if not eager:  # RTS/CTS/FIN: Figure 8's control share
                    stats.ctl_msgs_sent += 1
        if self.observer is not None:
            self.observer.on_emit(conn, header, replay)
        return cost

    def _emit_data(self, conn: Connection, op: RndvSendOp, replay: bool = False) -> int:
        """RDMA-write a rendezvous payload where its CTS said; idempotent,
        so recovery re-runs a flushed write (``replay``: stats untouched)."""
        self._post(conn, op, Opcode.RDMA_WRITE, op.size,
                   op.payload, op.cts_remote_addr, op.cts_rkey)
        if not replay:
            conn.stats.msgs_sent += 1
            conn.stats.data_msgs_sent += 1
        return self.config.post_overhead_ns

    def _emit_ecm(self, conn: Connection) -> int:
        """Explicit credit message — optimistic, never flow-controlled
        (the paper's deadlock-avoidance scheme)."""
        return self._emit(conn, Header(MsgKind.CREDIT, self.rank, conn.peer, paid=False))

    # ------------------------------------------------------------------
    # backlog / flow-control plumbing
    # ------------------------------------------------------------------
    def _enqueue_backlog(self, conn: Connection, pending: PendingSend) -> None:
        backlog = conn.backlog
        if type(backlog) is tuple:  # first use
            backlog = conn.backlog = deque()
        backlog.append(pending)
        if self.observer is not None:
            self.observer.on_backlog_enqueue(conn, pending.header)
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
        """Process the backlog FIFO one :func:`credit.drain_step` at a
        time: send while credits allow; with none, push the head through
        the rendezvous fallback."""
        if self.hca.dead or (self._ft is not None and conn.peer in self._ft.dead):
            return 0  # dead adapter / dead peer: nothing drains (see _emit)
        cost = 0
        while conn.backlog:
            free = self.pool.free
            act = credit.drain_step(self.scheme, conn, (
                2 if free > CONTROL_RESERVE else 1 if free else 0))
            if not act:
                break
            p = conn.backlog.popleft()
            conn.stats.credit_stalled_ns += self.sim.now - p.enqueue_ns
            if act == credit.SEND:
                self._take_credit(conn, head=True)
                if self.observer is not None:
                    self.observer.on_backlog_dequeue(conn, p.header)
                p.header.went_backlog = True
                cost += self._emit(conn, p.header, p.request)
            else:
                if self.observer is not None:  # an unpaid RTS goes in its place
                    self.observer.on_backlog_dequeue(conn, p.header, False)
                # paper §4.2: without credits only the rendezvous goes, and
                # its handshake piggybacks fresh ones
                conn.stats.rndv_fallbacks += 1
                cost += self._emit(conn, rendezvous.rts(
                    self._rndv_send, p.header, p.request, fallback=True))
        if not conn.backlog:
            self._backlogged.discard(conn.peer)
        return cost

    def _land(self, conn: Connection, h: Header, posted: PostedRecv) -> int:
        """Answer a matched RTS with the CTS :func:`rendezvous.land` builds,
        pinning the user buffer first when no bounce slot takes it."""
        cts = rendezvous.land(self._rndv_recv, self.bounce, h, posted)
        cost = 0
        if cts is None:
            mr, cost = self.pindown.acquire(posted.buffer_id, h.size)
            cts = rendezvous.land(self._rndv_recv, self.bounce, h, posted, mr)
        return cost + self._emit(conn, cts)

    # ------------------------------------------------------------------
    # fault-injection hooks (driven by repro.faults.FaultInjector)
    # ------------------------------------------------------------------
    def fault_stall(self, duration_ns: int) -> None:
        """Start (or extend) a receiver stall: no reposts, no paid credit
        returns — a slow consumer starving its sender (paper §3.2)."""
        until = self.sim.now + int(duration_ns)
        if until > self._stall_until:
            self._stall_until = until

    def fault_release_stall(self) -> int:
        """End of a stall: refill every wired connection and return the
        withheld credits, with an ECM so blocked senders wake.  Returns
        how many (0 while a longer overlapping stall is open)."""
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
            if conn.pending_credit_return and self.scheme.uses_credits and self.pool.free:
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

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Endpoint rank={self.rank}/{self.world_size}>"
