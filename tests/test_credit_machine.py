"""The message protocol as a state machine, with no simulator.

A ``hypothesis.stateful`` machine drives the shipped protocol — the credit
transitions of :mod:`repro.core.credit`, arrival order and matching in
:mod:`repro.mpi.protocol`, the rendezvous states of
:mod:`repro.mpi.rendezvous` — over the two connections of one rank pair,
under random interleavings of the application's sends (eager, synchronous
or large) and receives, message deliveries (FIFO each way), payload-write
completions, backlog drains and receiver stalls.  What the endpoint does
with each decision (emit, post, pin, write, grant, complete) is executed
here in a line or two, and every ledger movement goes through the runtime
auditor's hooks, so its conservation ledger (swallow debt included), its
backlog-FIFO shadow and its matching order are checked at every step.
``quiesce`` runs the pair until nothing moves: every backlog must then be
empty, every handshake over and every bounce slot free, and the receives
must hold, in order, the payloads the peer sent.

Three mutants must fail the machine: a paid RTS that swallows its credit
(the ring scheme's release weighing a control message against the ring's
slots), ECMs gated by user-level credits (the flow-controlled credit
messages the paper's optimistic ECMs replace), and a fallback's CTS that
keeps its window slot.
"""

from collections import deque
from types import SimpleNamespace

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import Phase, settings, strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.check.auditor import Auditor, InvariantViolation  # noqa: E402
from repro.core import EXTENDED_SCHEME_NAMES, credit, make_scheme  # noqa: E402
from repro.ib.mr import MemoryRegion  # noqa: E402
from repro.mpi import protocol, rendezvous  # noqa: E402
from repro.mpi.config import MPIConfig  # noqa: E402
from repro.mpi.connection import Connection, PendingSend  # noqa: E402
from repro.mpi.constants import ANY_TAG  # noqa: E402
from repro.mpi.matching import MatchingEngine, PostedRecv  # noqa: E402
from repro.mpi.protocol import Header, MsgKind  # noqa: E402
from repro.mpi.request import Request, Status  # noqa: E402

PREPOSTS = (1, 2, 3, 4)
#: every scheme, and the dynamic one with its decay on (the only source of
#: swallowed credits) at a streak short enough for a run to reach
SCHEMES = {**{name: {} for name in EXTENDED_SCHEME_NAMES},
           "dynamic-decay": {"decay_enabled": True, "decay_idle_messages": 3}}
RUNS = settings(max_examples=15, stateful_step_count=50)
CONFIG = MPIConfig()
#: a send's mode and size: eager, synchronous (through bounce slots), and
#: too big for a vbuf (pinned at both ends)
SENDS = {"eager": ("standard", 4), "sync": ("sync", 4),
         "large": ("standard", CONFIG.eager_max() + 1)}
SLOTS = 2  # bounce slots a rank: few, so small landings pin too


class _Pool:
    """The send-vbuf pool as the auditor's lease check reads it: plenty,
    and every emitted message still holds its vbuf."""

    capacity = 1 << 30

    def __init__(self, auditor, rank):
        self._auditor, self._rank = auditor, rank

    @property
    def free(self):
        return self.capacity - self._auditor._lease[self._rank]

    in_use = property(lambda self: self.capacity - self.free)


def machine(scheme_name, prepost):
    """A state machine over one rank pair under ``scheme_name`` (a key of
    ``SCHEMES``) at pre-post ``prepost``."""

    class ProtocolMachine(RuleBasedStateMachine):
        def __init__(self):
            super().__init__()
            self.scheme = scheme = make_scheme(
                scheme_name.split("-decay")[0], **SCHEMES[scheme_name])
            self.audit = aud = Auditor()
            aud._sim = SimpleNamespace(now=0)
            aud._wd_armed = True  # no simulator to run a watchdog on
            aud._uses_credits = scheme.uses_credits
            aud._lease = [0, 0]
            self.rkeys = 0
            self.mrs = [{}, {}]  # rank -> rkey -> its landing regions
            self.conn, self.bounce = [], []
            for rank in (0, 1):
                ep = SimpleNamespace(rank=rank, requested_prepost=prepost,
                                     config=CONFIG, pool=_Pool(aud, rank))
                conn = Connection(ep, 1 - rank, None)
                scheme.setup_connection(conn, prepost)
                conn.recv_posted = conn.prepost_target + conn.headroom
                self.conn.append(conn)
                self.bounce.append(rendezvous.BounceRegion(
                    self.register(rank, SLOTS * CONFIG.vbuf_bytes),
                    CONFIG.vbuf_bytes, SLOTS, CONFIG.eager_max()))
            aud.on_wired(*self.conn)
            self.matching = [MatchingEngine(), MatchingEngine()]
            self.sends = [{}, {}]  # the endpoints' _rndv_send ...
            self.recvs = [{}, {}]  # ... and _rndv_recv
            self.wire = [deque(), deque()]  # rank -> in flight from it
            self.written = [deque(), deque()]  # rank -> payload writes landed
            self.stalled = [False, False]
            self.held = [0, 0]  # paid credits a stall holds back
            self.sent = [[], []]  # rank -> payloads it sent, in order
            self.received = [[], []]  # rank -> its receives, in post order

        # --- what the endpoint does with a decision --------------------
        def register(self, rank, nbytes):
            self.rkeys += 1
            mr = MemoryRegion(self.rkeys << 20, nbytes, 0, self.rkeys)
            self.mrs[rank][mr.rkey] = mr
            return mr

        def emit(self, rank, h, req=None):
            conn = self.conn[rank]
            h.seq = conn.seq_out
            conn.seq_out += 1
            credit.piggyback(conn, h)
            h.via_ring = h.kind is MsgKind.EAGER and self.scheme.uses_ring
            self.audit.on_emit(conn, h)
            self.wire[rank].append(h)
            if req is not None and h.kind is MsgKind.EAGER:
                req.complete(Status())  # staged: buffered-send semantics

        def emit_ecm(self, rank):
            self.emit(rank, Header(MsgKind.CREDIT, rank, 1 - rank, paid=False))

        def take(self, rank, head=False):
            taken = credit.take(self.scheme, self.conn[rank], head)
            if taken:
                self.audit.on_consume(self.conn[rank])
            return taken

        def post(self, conn, n):
            conn.recv_posted += n
            self.audit.on_post_recv(conn, n)

        def release(self, rank, h):
            conn = self.conn[rank]
            act = credit.release(conn, h.paid, h.via_ring, self.stalled[rank])
            if act & credit.REPOST:
                self.post(conn, 1)
            if act & credit.GRANT:
                self.grant(rank, 1)
            elif act & credit.SWALLOW:
                self.audit.on_swallow(conn)
            elif act & credit.HOLD:
                self.held[rank] += 1
            if conn.backlog:
                self.drain(rank, 2)

        def grant(self, rank, n):
            ecm = credit.grant(self.scheme, self.conn[rank], n)
            self.audit.on_grant(self.conn[rank], n)
            if ecm:
                self.emit_ecm(rank)

        def drain(self, rank, room):
            conn = self.conn[rank]
            while conn.backlog:
                act = credit.drain_step(self.scheme, conn, room)
                if not act:
                    break
                p = conn.backlog.popleft()
                if act == credit.SEND:
                    self.take(rank, head=True)
                    self.audit.on_backlog_dequeue(conn, p.header)
                    p.header.went_backlog = True
                    self.emit(rank, p.header, p.request)
                else:
                    self.audit.on_backlog_dequeue(conn, p.header, reemitted=False)
                    self.emit(rank, rendezvous.rts(
                        self.sends[rank], p.header, p.request, fallback=True))

        def land(self, rank, h, posted):
            cts = rendezvous.land(self.recvs[rank], self.bounce[rank], h, posted)
            if cts is None:  # pin the user buffer
                mr = self.register(rank, h.size)
                cts = rendezvous.land(self.recvs[rank], self.bounce[rank], h, posted, mr)
            self.emit(rank, cts)

        def matched(self, rank, h, posted, act):
            """Execute :func:`protocol.match` for a message and its receive
            (the release, at arrival, is the caller's)."""
            self.audit.on_match(h)
            if act & protocol.LAND:
                self.land(rank, h, posted)
            else:
                posted.request.complete(Status(h.src, h.tag, h.size, h.payload))

        def deliverable(self, rank):
            """The head of the wire toward ``rank`` can land: the receiver
            is not stalled and, off the ring, has a receive vbuf posted (a
            payload write needs neither a vbuf nor software)."""
            wire = self.wire[1 - rank]
            if not wire:
                return False
            h = wire[0]
            return type(h) is tuple or not self.stalled[rank] and (
                h.via_ring or self.conn[rank].recv_posted > 0)

        def deliver(self, rank):
            conn = self.conn[rank]
            h = self.wire[1 - rank].popleft()
            if type(h) is tuple:  # a payload write lands; its ACK returns
                _, op = h
                self.mrs[rank][op.cts_rkey].store(op.cts_remote_addr, op.payload)
                self.written[1 - rank].append(op)
                return
            if not h.via_ring:
                conn.recv_posted -= 1
            assert protocol.in_order(conn, h)  # one FIFO wire each way
            if h.credits:
                credit.receive(self.scheme, conn, h.credits)
            self.audit.on_deliver(conn, h)
            if h.kind in protocol.UNEXPECTED_KINDS:
                posted = self.matching[rank].arrived(h, 0)
                act = protocol.match(h, posted)
                if posted is not None:
                    self.matched(rank, h, posted, act)
                if act:
                    self.release(rank, h)
            else:
                if h.kind is MsgKind.RNDV_CTS:
                    op = rendezvous.cts(self.sends[rank], conn, h)
                    self.wire[rank].append(("write", op))
                elif h.kind is MsgKind.RNDV_FIN:
                    op = rendezvous.finish(self.recvs[rank], self.bounce[rank], h.rreq_id)
                    if not op.bounce:
                        del self.mrs[rank][op.mr.rkey]  # unpinned
                    op.request.complete(Status(op.src, op.tag, op.size,
                                               op.mr.load(op.landing_addr)))
                self.release(rank, h)
            grown = credit.grow(self.scheme, conn, h)
            self.audit.on_grow(conn)
            if grown:
                missing = conn.prepost_target + conn.headroom - conn.recv_posted
                if missing > 0:
                    self.post(conn, missing)
                    if credit.grant(self.scheme, conn, 0):
                        self.emit_ecm(rank)
            if conn.backlog:
                self.drain(rank, 2)

        def write_done(self, rank):
            op = self.written[rank].popleft()
            self.emit(rank, rendezvous.fin(self.sends[rank], op, rank))
            op.request.complete(Status())

        def post_receive(self, rank):
            posted = PostedRecv(1 - rank, ANY_TAG, 0, 0, Request("recv"))
            self.received[rank].append(posted.request)
            u = self.matching[rank].post_recv(posted)
            if u is not None:
                act = protocol.match(u.header, posted, late=True)
                self.matched(rank, u.header, posted, act)
                if act & protocol.FREE:
                    self.release(rank, u.header)

        def end_stall(self, rank):
            conn = self.conn[rank]
            self.stalled[rank] = False
            missing = conn.prepost_target + conn.headroom - conn.recv_posted
            if missing > 0:
                self.post(conn, missing)
            held, self.held[rank] = self.held[rank], 0
            if held:
                self.grant(rank, held)
            if conn.pending_credit_return and self.scheme.uses_credits:
                self.emit_ecm(rank)

        # --- rules ------------------------------------------------------
        @rule(rank=st.sampled_from((0, 1)), kind=st.sampled_from(sorted(SENDS)))
        def send(self, rank, kind):
            mode, size = SENDS[kind]
            payload = (rank, len(self.sent[rank]))
            self.sent[rank].append(payload)
            self.audit.on_app_send(rank, 1 - rank, 0, 0, size)
            req = Request("send")
            h = Header(MsgKind.EAGER, rank, 1 - rank, size=size, payload=payload)
            how = rendezvous.choose(mode, size, CONFIG.eager_max())
            if how:
                mr = MemoryRegion(0, size, 0, 0) if how == rendezvous.PIN else None
                h = rendezvous.rts(self.sends[rank], h, req, mr)
            conn = self.conn[rank]
            if self.take(rank):
                self.emit(rank, h, req)
                return
            if type(conn.backlog) is tuple:
                conn.backlog = deque()
            conn.backlog.append(PendingSend(h, req))
            self.audit.on_backlog_enqueue(conn, h)
            self.drain(rank, 2)

        @precondition(lambda self: self.deliverable(0) or self.deliverable(1))
        @rule(rank=st.sampled_from((0, 1)))
        def deliver_next(self, rank):
            if not self.deliverable(rank):
                rank = 1 - rank
            self.deliver(rank)

        @precondition(lambda self: any(self.written[r] and not self.stalled[r]
                                       for r in (0, 1)))
        @rule(rank=st.sampled_from((0, 1)))
        def complete_write(self, rank):
            if not self.written[rank] or self.stalled[rank]:
                rank = 1 - rank
            self.write_done(rank)

        @rule(rank=st.sampled_from((0, 1)))
        def receive(self, rank):
            self.post_receive(rank)

        @rule(rank=st.sampled_from((0, 1)), room=st.sampled_from((0, 1, 2)))
        def drain_backlog(self, rank, room):
            self.drain(rank, room)

        @rule(rank=st.sampled_from((0, 1)))
        def stall(self, rank):
            if self.stalled[rank]:
                self.end_stall(rank)
            else:
                self.stalled[rank] = True

        @rule()
        def quiesce(self):
            for rank in (0, 1):
                if self.stalled[rank]:
                    self.end_stall(rank)
            moved = True
            while moved:
                moved = False
                for rank in (0, 1):
                    while self.deliverable(rank):
                        self.deliver(rank)
                        moved = True
                    while self.written[rank]:
                        self.write_done(rank)
                        moved = True
                    while self.matching[rank].unexpected_count:
                        self.post_receive(rank)
                        moved = True
                    before = len(self.conn[rank].backlog)
                    self.drain(rank, 2)
                    moved |= len(self.conn[rank].backlog) != before
            for conn in self.conn:
                assert not conn.backlog, f"{conn!r} wedged with a backlog"
                assert conn.fallback_inflight == 0, f"{conn!r}: a fallback never ended"
            assert not self.wire[0] and not self.wire[1]
            for rank in (0, 1):
                assert not self.recvs[rank] and self.bounce[rank]._busy == 0
                done = [r for r in self.received[rank] if r.done]
                assert done == self.received[rank][:len(done)]
                assert [r.status.payload for r in done] == self.sent[1 - rank][:len(done)]

        @invariant()
        def ledger_balances(self):
            if self.scheme.uses_credits:
                for conn in self.conn:
                    self.audit._check(self.audit._rows[conn])

    return ProtocolMachine


@pytest.mark.parametrize("prepost", PREPOSTS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_the_credit_protocol_conserves_and_never_wedges(scheme, prepost):
    run_state_machine_as_test(machine(scheme, prepost), settings=RUNS)


def _release_weighing_the_ring(conn, paid, ring, stalled, real=credit.release):
    """Mutant ``credit.release``: the WQE population is weighed against the
    credit population alone, forgetting the headroom — on a ring connection
    the whole control reserve — so a paid RTS finds it over-full and its
    credit is swallowed."""
    if paid and not ring and not stalled and conn.recv_posted > conn.prepost_target:
        return credit.SWALLOW
    return real(conn, paid, ring, stalled)


def _ecm_gated_by_credits(scheme, conn, n, real=credit.grant):
    """Mutant ``credit.grant``: an ECM is flow-controlled like data — it
    waits for a user-level credit and spends it."""
    if not real(scheme, conn, n) or conn.credits <= 0:
        return False
    conn.credits -= 1
    return True


def _cts_keeping_its_window_slot(sends, conn, h, real=rendezvous.cts):
    """Mutant ``rendezvous.cts``: a fallback's CTS leaves its slot of the
    fallback window taken."""
    op = real(sends, conn, h)
    if op.fallback:
        conn.fallback_inflight += 1
    return op


@pytest.mark.parametrize("module, transition, mutant, scheme, prepost, caught, match", [
    (credit, "release", _release_weighing_the_ring, "rdma-eager", 4,
     InvariantViolation, "credit-conservation"),
    (credit, "grant", _ecm_gated_by_credits, "rdma-eager", 4,
     InvariantViolation, "credit-conservation"),
    (rendezvous, "cts", _cts_keeping_its_window_slot, "static", 1,
     AssertionError, "wedged|a fallback never ended"),
], ids=["release-_release_weighing_the_ring", "grant-_ecm_gated_by_credits",
        "cts-_cts_keeping_its_window_slot"])
def test_the_machine_catches_each_mutant(monkeypatch, module, transition, mutant,
                                         scheme, prepost, caught, match):
    monkeypatch.setattr(module, transition, mutant)
    first_failure = settings(RUNS, phases=[Phase.generate])  # no shrinking
    with pytest.raises(caught, match=match):
        run_state_machine_as_test(machine(scheme, prepost), settings=first_failure)
