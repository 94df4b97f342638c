"""The credit protocol as a state machine, with no simulator.

A ``hypothesis.stateful`` machine drives :mod:`repro.core.credit` — the
transitions the simulator runs — over the two connections of one rank pair,
under random interleavings of the application's sends and receives, message
deliveries (FIFO each way), backlog drains and receiver stalls.  What the
endpoint does with each transition's result (emit, post, grant, back up,
fall back, hold) is mirrored here in a few lines per action, and every
ledger movement goes through the runtime auditor's hooks, so its
conservation ledger (swallow debt included) and backlog-FIFO shadow are
checked at every step.  ``quiesce`` runs the pair until nothing moves: every
backlog must then be empty, every fallback handshake over.

Two mutants of the transitions must fail the machine: a paid RTS that
swallows its credit (the ring scheme's release weighing a control message
against the ring's slots), and ECMs gated by user-level credits (the
flow-controlled credit messages the paper's optimistic ECMs replace).
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
from repro.mpi.config import MPIConfig  # noqa: E402
from repro.mpi.connection import Connection, PendingSend  # noqa: E402
from repro.mpi.protocol import Header, MsgKind  # noqa: E402

PREPOSTS = (1, 2, 3, 4)
#: every scheme, and the dynamic one with its decay on (the only source of
#: swallowed credits) at a streak short enough for a run to reach
SCHEMES = {**{name: {} for name in EXTENDED_SCHEME_NAMES},
           "dynamic-decay": {"decay_enabled": True, "decay_idle_messages": 3}}
RUNS = settings(max_examples=15, stateful_step_count=50)


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

    class CreditMachine(RuleBasedStateMachine):
        def __init__(self):
            super().__init__()
            self.scheme = scheme = make_scheme(
                scheme_name.split("-decay")[0], **SCHEMES[scheme_name])
            self.audit = aud = Auditor()
            aud._sim = SimpleNamespace(now=0)
            aud._uses_credits = scheme.uses_credits
            aud._lease = [0, 0]
            self.conn = []
            for rank in (0, 1):
                ep = SimpleNamespace(rank=rank, requested_prepost=prepost,
                                     config=MPIConfig(), pool=_Pool(aud, rank))
                conn = Connection(ep, 1 - rank, None)
                scheme.setup_connection(conn, prepost)
                conn.recv_posted = conn.prepost_target + conn.headroom
                self.conn.append(conn)
            aud.on_wired(*self.conn)
            self.wire = [deque(), deque()]  # rank -> headers in flight from it
            self.unexpected = [[], []]  # arrived, unmatched EAGER / RTS
            self.posted = [0, 0]  # receives posted, nothing matched yet
            self.stalled = [False, False]
            self.held = [0, 0]  # paid credits a stall holds back
            self.ops = {}  # sreq_id -> rendezvous send op
            self.sreq = 0

        # --- what the endpoint does with a transition's result ---------
        def emit(self, rank, h):
            conn = self.conn[rank]
            h.seq = conn.seq_out
            conn.seq_out += 1
            credit.piggyback(conn, h)
            h.via_ring = h.kind is MsgKind.EAGER and self.scheme.uses_ring
            self.audit.on_emit(conn, h)
            self.wire[rank].append(h)

        def emit_ecm(self, rank):
            self.emit(rank, Header(MsgKind.CREDIT, rank, 1 - rank, paid=False))

        def take(self, rank, head=False):
            taken = credit.take(self.scheme, self.conn[rank], head)
            if taken:
                self.audit.on_consume(self.conn[rank])
            return taken

        def post(self, conn, n):
            for _ in range(n):
                conn.recv_posted += 1
                self.audit.on_post_recv(conn)

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
                    self.emit(rank, p.header)
                else:
                    self.audit.on_backlog_dequeue(conn, p.header, reemitted=False)
                    op = p.request or self.new_op()
                    op.fallback = True
                    self.emit(rank, Header(MsgKind.RNDV_RTS, rank, 1 - rank,
                                           sreq_id=op.sreq_id, paid=False,
                                           went_backlog=True))

        def new_op(self):
            self.sreq += 1
            self.ops[self.sreq] = op = SimpleNamespace(sreq_id=self.sreq, fallback=False)
            return op

        def matched(self, rank, h):
            """``h`` met its receive: an eager payload is copied out (its
            vbuf released), an RTS is answered with a CTS."""
            if h.kind is MsgKind.RNDV_RTS:
                self.emit(rank, Header(MsgKind.RNDV_CTS, rank, 1 - rank,
                                       sreq_id=h.sreq_id, paid=False))
            elif not h.via_ring:
                self.release(rank, h)

        def deliverable(self, rank):
            """The head of the wire toward ``rank`` can land: the receiver
            is not stalled and, off the ring, has a receive vbuf posted."""
            wire = self.wire[1 - rank]
            return bool(wire) and not self.stalled[rank] and (
                wire[0].via_ring or self.conn[rank].recv_posted > 0)

        def deliver(self, rank):
            conn = self.conn[rank]
            h = self.wire[1 - rank].popleft()
            if not h.via_ring:
                conn.recv_posted -= 1
            if h.credits:
                credit.receive(self.scheme, conn, h.credits)
            self.audit.on_deliver(conn, h)
            if h.kind in (MsgKind.EAGER, MsgKind.RNDV_RTS):
                if self.posted[rank]:
                    self.posted[rank] -= 1
                    self.matched(rank, h)
                else:
                    self.unexpected[rank].append(h)
                if h.kind is MsgKind.RNDV_RTS or h.via_ring:
                    # parsed, or copied out of the ring slot, at once
                    self.release(rank, h)
            else:
                if h.kind is MsgKind.RNDV_CTS:
                    op = self.ops.pop(h.sreq_id)
                    if op.fallback:
                        credit.end_fallback(conn)
                    self.emit(rank, Header(MsgKind.RNDV_FIN, rank, 1 - rank, paid=False))
                self.release(rank, h)
            grown = self.audit.observe_recv_header(self.scheme, conn, h)
            if grown:
                missing = conn.prepost_target + conn.headroom - conn.recv_posted
                if missing > 0:
                    self.post(conn, missing)
                    if credit.grant(self.scheme, conn, 0):
                        self.emit_ecm(rank)
            if conn.backlog:
                self.drain(rank, 2)

        def end_stall(self, rank):
            conn = self.conn[rank]
            self.stalled[rank] = False
            missing = conn.prepost_target + conn.headroom - conn.recv_posted
            self.post(conn, max(0, missing))
            held, self.held[rank] = self.held[rank], 0
            if held:
                self.grant(rank, held)
            if conn.pending_credit_return and self.scheme.uses_credits:
                self.emit_ecm(rank)

        # --- rules ------------------------------------------------------
        @rule(rank=st.sampled_from((0, 1)), rendezvous=st.booleans())
        def send(self, rank, rendezvous):
            if rendezvous:
                op = self.new_op()
                h = Header(MsgKind.RNDV_RTS, rank, 1 - rank, sreq_id=op.sreq_id)
            else:
                op, h = None, Header(MsgKind.EAGER, rank, 1 - rank, size=4)
            conn = self.conn[rank]
            if self.take(rank):
                self.emit(rank, h)
                return
            if type(conn.backlog) is tuple:
                conn.backlog = deque()
            conn.backlog.append(PendingSend(h, op))
            self.audit.on_backlog_enqueue(conn, h)
            self.drain(rank, 2)

        @precondition(lambda self: self.deliverable(0) or self.deliverable(1))
        @rule(rank=st.sampled_from((0, 1)))
        def deliver_next(self, rank):
            if not self.deliverable(rank):
                rank = 1 - rank
            self.deliver(rank)

        @rule(rank=st.sampled_from((0, 1)))
        def receive(self, rank):
            if self.unexpected[rank]:
                self.matched(rank, self.unexpected[rank].pop(0))
            else:
                self.posted[rank] += 1

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
                    while self.unexpected[rank]:
                        self.matched(rank, self.unexpected[rank].pop(0))
                        moved = True
                    before = len(self.conn[rank].backlog)
                    self.drain(rank, 2)
                    moved |= len(self.conn[rank].backlog) != before
            for conn in self.conn:
                assert not conn.backlog, f"{conn!r} wedged with a backlog"
                assert conn.fallback_inflight == 0
            assert not self.wire[0] and not self.wire[1]

        @invariant()
        def ledger_balances(self):
            if self.scheme.uses_credits:
                for conn in self.conn:
                    self.audit._check(self.audit._rows[conn])

    return CreditMachine


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


@pytest.mark.parametrize("transition, mutant", [
    ("release", _release_weighing_the_ring),
    ("grant", _ecm_gated_by_credits),
])
def test_the_machine_catches_each_mutant(monkeypatch, transition, mutant):
    monkeypatch.setattr(credit, transition, mutant)
    first_failure = settings(RUNS, phases=[Phase.generate])  # no shrinking
    with pytest.raises(InvariantViolation, match="credit-conservation"):
        run_state_machine_as_test(machine("rdma-eager", 4), settings=first_failure)
