"""The RC transport as a state machine, with no simulator.

A ``hypothesis.stateful`` machine drives the shipped transitions of
:mod:`repro.ib.transport` over the two queue pairs of one connection, each
both a requester and a responder, with one FIFO wire each way carrying
requests one way and ACKs / RNR NAKs the other.  Under random
interleavings it posts sends and receives, injects, delivers the head of a
wire, loses it (when the ACK timeout is armed, the only way a loss is ever
recovered), and fires the RNR and ACK timers — early too: a timer that
fires before its period is a slow ACK, and the transport must tolerate it.
What ``QueuePair`` and the adapter do with each decision (put a message on
the wire, complete a WQE, start or stop a timer) is executed here in a line
or two.  After every step both ends' ``check_invariants`` must be clean
and the deliveries so far a prefix of what was posted; ``quiesce`` runs the
pair until nothing moves, and every SEND must then have completed exactly
once at both CQs — in MSN order at the receiver always, and at the sender
unless an ACK was lost: the model's ACKs are per message, not cumulative
as the IBA's are, so a lost ACK completes the next message first.

Four mutants must fail the machine: an ACK retire that forgets the SEND
count, an RNR timer that thaws without going back N, an injection that
never starts the ACK timer, and a responder that drops a stale duplicate
instead of re-ACKing it (its ACK was lost).
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

from repro.ib import transport  # noqa: E402
from repro.ib.qp import QueuePair  # noqa: E402
from repro.ib.types import INFINITE_RETRY, IBConfig, Opcode  # noqa: E402
from repro.ib.wr import RecvWR, SendWR  # noqa: E402

CFG = IBConfig()
WINDOW = 3  # a small pipelining window, so the window gate is reached
DEPTH = 16  # queue depths: posts stop short of them
RUNS = settings(max_examples=6, stateful_step_count=40)
#: (ACK timeout armed — losses allowed, initial credit estimate)
ARMS = {"plain": (False, None), "hardware": (False, 1), "armed": (True, None),
        "armed-starved": (True, 0)}


def machine(armed, credits):
    class TransportMachine(RuleBasedStateMachine):
        def __init__(self):
            super().__init__()
            self.qp = []
            for end in (0, 1):
                hca = SimpleNamespace(lid=end, sq_depth=DEPTH, rq_depth=DEPTH,
                                      fault_transport=(1, INFINITE_RETRY) if armed else None)
                self.qp.append(QueuePair(hca, end + 1, None, None))
            for end in (0, 1):
                self.qp[end].connect(1 - end, 2 - end)
                self.qp[end]._req._credit_est = credits
            self.wire = [deque(), deque()]  # end -> in flight from it
            self.sent = [[], []]  # end -> payloads posted, in order
            self.completed = [[], []]  # end -> its SENDs' completions
            self.received = [[], []]  # end -> payloads its receives took

        # --- what the queue pair and the adapter do ---------------------
        def inject(self, end):
            req = self.qp[end]._req
            wr = transport.injectable(req, WINDOW)
            if wr is None:
                return False
            if transport.take(req, wr) & transport.WATCH:
                req._xport_timer = "ack timer"
            self.wire[end].append(("data", SimpleNamespace(
                msn=wr.msn, opcode=wr.opcode, length=wr.length,
                payload=wr.payload)))
            return True

        def deliver(self, src):
            dst = 1 - src
            kind, *what = self.wire[src].popleft()
            if kind == "data":
                (msg,) = what
                qp = self.qp[dst]
                act = transport.respond(qp, msg, None)
                if act == transport.DELIVER:
                    del qp._rq[0]
                    self.received[dst].append(msg.payload)
                if act in (transport.DELIVER, transport.ACK):
                    self.wire[dst].append(("ack", msg.msn, len(qp._rq)))
                elif act == transport.RNR_NAK:
                    self.wire[dst].append(("nak", msg.msn))
                else:
                    assert act == transport.DROP, act
                return
            req = self.qp[dst]._req
            if kind == "ack":
                wr = transport.retire(req, *what)
                if wr is not None:
                    self.completed[dst].append(wr.payload)
            else:
                wait = transport.rnr_nak(req, what[0], CFG)
                assert wait != transport.FATAL  # the retry count is infinite
                if wait != transport.DROP:
                    req._rnr_timer_ev = what[0]

        def rnr_fire(self, end):
            req = self.qp[end]._req
            nak_msn, req._rnr_timer_ev = req._rnr_timer_ev, None
            transport.rnr_expire(req, nak_msn)

        def ack_timeout(self, end):
            req = self.qp[end]._req
            req._xport_timer = None
            act = transport.expire(req)
            assert act != transport.FATAL  # the retry limit is infinite
            if act in (transport.WATCH, transport.REPLAY):
                req._xport_timer = "ack timer"

        # --- rules ------------------------------------------------------
        @precondition(lambda self: any(self.qp[e].outstanding_sends < DEPTH for e in (0, 1)))
        @rule(end=st.sampled_from((0, 1)))
        def post_send(self, end):
            if self.qp[end].outstanding_sends >= DEPTH:
                end = 1 - end
            payload = (end, len(self.sent[end]))
            self.sent[end].append(payload)
            self.qp[end]._req._sq.append(SendWR(payload, Opcode.SEND, 8, payload))

        @rule(end=st.sampled_from((0, 1)), n=st.integers(1, 3))
        def post_recv(self, end, n):
            self.qp[end].post_recv(RecvWR("r", 64), min(n, DEPTH - self.qp[end].posted_recvs))

        @rule(end=st.sampled_from((0, 1)))
        def inject_next(self, end):
            self.inject(end) or self.inject(1 - end)

        @precondition(lambda self: self.wire[0] or self.wire[1])
        @rule(src=st.sampled_from((0, 1)))
        def deliver_next(self, src):
            self.deliver(src if self.wire[src] else 1 - src)

        @precondition(lambda self: armed and (self.wire[0] or self.wire[1]))
        @rule(src=st.sampled_from((0, 1)))
        def lose_next(self, src):
            self.wire[src if self.wire[src] else 1 - src].popleft()

        @precondition(lambda self: any(q._req._rnr_timer_ev is not None for q in self.qp))
        @rule(end=st.sampled_from((0, 1)))
        def rnr_timer_fires(self, end):
            self.rnr_fire(end if self.qp[end]._req._rnr_timer_ev is not None else 1 - end)

        @precondition(lambda self: any(q._req._xport_timer is not None for q in self.qp))
        @rule(end=st.sampled_from((0, 1)))
        def ack_timer_fires(self, end):
            self.ack_timeout(end if self.qp[end]._req._xport_timer is not None else 1 - end)

        @rule()
        def quiesce(self):
            for _ in range(500):  # far more rounds than a live pair needs
                moved = False
                for end in (0, 1):
                    qp = self.qp[end]
                    if qp.posted_recvs < DEPTH // 2:
                        qp.post_recv(RecvWR("r", 64), DEPTH - qp.posted_recvs)
                    while self.inject(end):
                        moved = True
                    while self.wire[end]:
                        self.deliver(end)
                        moved = True
                if moved:
                    continue
                for end in (0, 1):  # nothing on the wires: the timers run out
                    if self.qp[end]._req._rnr_timer_ev is not None:
                        self.rnr_fire(end)
                        moved = True
                    elif self.qp[end]._req._xport_timer is not None:
                        self.ack_timeout(end)
                        moved = True
                if not moved:
                    break
            for end in (0, 1):
                assert self.qp[end].outstanding_sends == 0, f"end {end} wedged"
                assert self.received[1 - end] == self.sent[end]
                assert sorted(self.completed[end]) == self.sent[end]
                if not armed:
                    assert self.completed[end] == self.sent[end]

        @invariant()
        def both_ends_are_sound(self):
            for end in (0, 1):
                assert self.qp[end].check_invariants() == []
                done, got = self.completed[end], self.received[1 - end]
                assert got == self.sent[end][:len(got)]  # exactly once, in order
                assert len(set(done)) == len(done) and set(done) <= set(got)
                if not armed:
                    assert done == got[:len(done)]

    return TransportMachine


@pytest.mark.parametrize("arming", ARMS)
def test_the_rc_transport_delivers_exactly_once_in_order(arming):
    run_state_machine_as_test(machine(*ARMS[arming]), settings=RUNS)


def _retire_forgetting_sends(req, msn, advertised=-1, real=transport.retire):
    """Mutant ``transport.retire``: an ACK leaves its SEND counted in flight."""
    wr = real(req, msn, advertised)
    if wr is not None and advertised >= 0:
        req._sends_inflight += 1
    return wr


def _rnr_thaw_without_replay(req, nak_msn):
    """Mutant ``transport.rnr_expire``: the requester thaws, but nothing
    goes back N — the NAKed message waits for an ACK that never comes."""
    req._rnr_waiting = False


def _take_unwatched(req, wr, real=transport.take):
    """Mutant ``transport.take``: injection never starts the ACK timer, so
    a lost message is never replayed."""
    return real(req, wr) & ~transport.WATCH


def _respond_dropping_duplicates(qp, msg, mrs, real=transport.respond):
    """Mutant ``transport.respond``: a stale duplicate is dropped, never
    re-ACKed, so a lost ACK is never replaced."""
    if msg.msn < qp._expected_msn:
        return transport.DROP
    return real(qp, msg, mrs)


@pytest.mark.parametrize("transition, mutant, arming, match", [
    ("retire", _retire_forgetting_sends, "plain", "_sends_inflight"),
    ("rnr_expire", _rnr_thaw_without_replay, "plain", "wedged"),
    ("take", _take_unwatched, "armed", "wedged"),
    ("respond", _respond_dropping_duplicates, "armed", "wedged"),
], ids=["retire", "rnr_expire", "take", "respond"])
def test_the_machine_catches_each_mutant(monkeypatch, transition, mutant, arming, match):
    monkeypatch.setattr(transport, transition, mutant)
    # no shrinking, and the same search every run: a mutant is caught by
    # a fixed example, not by luck
    first_failure = settings(RUNS, max_examples=100, phases=[Phase.generate],
                             derandomize=True, database=None)
    with pytest.raises(AssertionError, match=match):
        run_state_machine_as_test(machine(*ARMS[arming]), settings=first_failure)


def test_replays_out_of_msn_order_are_named():
    """Go-back-N puts the replays at the send queue's head in MSN order;
    the audit names a queue that breaks it."""
    qp = machine(False, None)().qp[0]
    req = qp._req
    for msn in (1, 0, -1):
        wr = SendWR(msn, Opcode.SEND, 8)
        wr.msn = msn
        req._sq.append(wr)
    req._next_msn = 2
    assert qp.check_invariants() == [
        "QP 1: replays [1, 0] are not the send queue's head in MSN order"]
    req._sq.reverse()  # a new message ahead of the replays
    assert len(qp.check_invariants()) == 1
    req._sq[:] = sorted(req._sq, key=lambda wr: wr.msn % 3)
    assert qp.check_invariants() == []


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "open: the model's ACKs are per message, not cumulative as the IBA's, "
    "so the ACK after a lost one completes its message first"))
def test_a_lost_ack_keeps_send_completions_in_msn_order():
    """Two SENDs from end 1, the first one's ACK lost: the second ACK
    retires its message, the ACK timer replays the first and its stale
    duplicate is re-ACKed.  The sender's completions must still come in
    MSN order."""
    m = machine(*ARMS["armed"])()
    m.qp[0].post_recv(RecvWR("r", 64), 2)
    m.post_send(1)
    m.post_send(1)
    assert m.inject(1) and m.inject(1)
    m.deliver(1)
    m.deliver(1)  # both land: two ACKs on the wire back to end 1
    m.wire[0].popleft()  # the first ACK is lost
    m.deliver(0)  # the second retires its message
    for _ in range(4):  # the timer sees that progress, then replays
        m.ack_timeout(1)
        while m.inject(1):
            m.deliver(1)
        while m.wire[0]:
            m.deliver(0)
    assert m.qp[1].outstanding_sends == 0
    assert m.completed[1] == [(1, 0), (1, 1)]
