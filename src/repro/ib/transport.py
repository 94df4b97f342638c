"""The RC transport (IBA reliable connection, at message granularity): every
requester and responder transition, in one module that reads no simulator,
adapter or fabric.

**Requester** — WQEs posted to the send queue are injected in order, up to
a pipelining window; each carries a message sequence number (MSN) and
completes when its ACK returns.  An RNR NAK (the responder had no receive
WQE) freezes the requester for the RNR timer, then every unacknowledged
message from the NAK point is replayed — the timeout-and-retransmit the
paper's hardware-based flow control leans on.  Armed with an ACK timeout
(a fault plan, a congestion drop), a full period without an ACK replays
from the oldest unacknowledged message.  With a credit estimate seeded
(the hardware scheme), a starved requester keeps one SEND probe in flight
rather than blasting the window into a NAK storm.

**Responder** — accepts only the expected MSN, consumes a receive WQE per
SEND (none for an RDMA write), and ACKs with the receive WQEs it has left
(the IBA end-to-end credit field).

Each function mutates the :class:`Requester` or responder fields it names
and returns an action code below — or, for the injection gate and the
retire, the work request itself.  ``QueuePair`` and ``HCA`` execute the
codes: start or cancel a timer, push a WC, send a control packet, kick the
engine.  ``tests/test_transport_machine.py`` drives these functions over
two ends with no simulator (DESIGN §5.5 lists each transition: the fields
it reads, its result, who executes it).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.ib.mr import RemoteAccessError
from repro.ib.types import INFINITE_RETRY, Opcode, QPState

if TYPE_CHECKING:  # pragma: no cover
    from repro.ib.mr import RegistrationTable
    from repro.ib.qp import QueuePair, _Message
    from repro.ib.types import IBConfig
    from repro.ib.wr import SendWR

#: nothing to do (a stale or duplicate packet, an idle timer); the message
#: errors out and the queue pair enters ERROR, flushing
DROP, FATAL = -1, -2
#: :func:`take`, :func:`arm`, :func:`expire`: (re)start the ACK timer; the
#: injected message is a replay; go back N from the oldest unacknowledged
#: message and kick the engine; cancel the ACK timer
WATCH, RESEND, REPLAY, CANCEL = 1, 2, 4, 8
#: :func:`respond`: complete the head receive WQE and ACK; ACK (an RDMA
#: write placed, or a stale duplicate whose ACK was lost); RNR NAK; the
#: head receive WQE completes with a length error, the requester hears of
#: it and the queue pair enters ERROR; the requester hears of an RDMA
#: access error
DELIVER, ACK, RNR_NAK, LENGTH_ERROR, ACCESS_ERROR = 1, 2, 3, 4, 5


class Requester:
    """The send half of a queue pair: what is queued and in flight, the
    transport state around it, and what it counted.  Each QP builds its
    own when it is created.  The two timer slots hold the queue pair's
    scheduled events; a transition only asks whether one is running."""

    __slots__ = (
        "_sq", "_inflight", "_next_msn", "_rnr_waiting", "_rnr_timer_ev",
        "_credit_est", "_credit_seed", "_credit_est_msn", "_sends_inflight",
        "_xport_enabled", "_xport_timeout_ns", "_xport_limit", "_xport_timer",
        "_xport_acks", "_xport_seen",
        "rnr_naks_received", "retransmissions", "messages_sent",
    )

    def __init__(self, xport: Optional[Tuple[int, int]]):
        self._rnr_timer_ev = self._xport_timer = None
        self.rnr_naks_received = self.retransmissions = self.messages_sent = 0
        #: waiting to inject (incl. replays), and msn -> WR awaiting its
        #: ACK.  ``sq_depth`` bounds the queue: a list, not a deque
        self._sq: List[SendWR] = []
        self._inflight: Dict[int, SendWR] = {}
        self._next_msn = 0
        self._rnr_waiting = False
        self._credit_est: Optional[int] = None  # None = unknown/unlimited
        self._credit_seed: Optional[int] = None  # what the consumer seeded
        self._credit_est_msn = -1  # freshness of the estimate
        self._sends_inflight = 0
        self._xport_acks = 0  # requester progress marker (ACKs absorbed)
        self._xport_seen = 0  # progress at the last timer expiry
        arm(self, xport)


# ----------------------------------------------------------------------
# requester
# ----------------------------------------------------------------------
def arm(req: Requester, xport: Optional[Tuple[int, int]]) -> int:
    """Arm the RC local-ACK-timeout retry with ``(timeout_ns, retry_limit)``
    — no ACK for a full period replays from the oldest unacknowledged
    message, and ``retry_limit`` fruitless periods (``INFINITE_RETRY``:
    never) fail it — or disarm it (``None``: the ideal fabric loses
    nothing).  Armed, the responder also re-ACKs stale duplicates.
    ``WATCH`` when messages are already in flight, ``CANCEL`` when a
    disarm finds the timer running."""
    req._xport_enabled = xport is not None
    req._xport_timeout_ns, req._xport_limit = xport or (0, INFINITE_RETRY)
    if xport is None:
        return CANCEL if req._xport_timer is not None else DROP
    if req._xport_timer is None and req._inflight:
        req._xport_seen = req._xport_acks
        return WATCH
    return DROP


def injectable(req: Requester, window: int) -> Optional[SendWR]:
    """The send queue's head, if it may go now: no RNR freeze, fewer than
    ``window`` messages in flight, and — for a SEND under a credit estimate
    — credits left, or no SEND in flight (one probe at a time when
    starved).  A queue pair in ERROR or RESET has flushed its send queue."""
    sq = req._sq
    if req._rnr_waiting or not sq or len(req._inflight) >= window:
        return None
    wr = sq[0]
    if wr.opcode is Opcode.SEND and req._credit_est is not None:
        if req._credit_est <= 0 and req._sends_inflight >= 1:
            return None
    return wr


def take(req: Requester, wr: SendWR) -> int:
    """Put the head ``wr`` (:func:`injectable`'s) in flight: a new message
    gets the next MSN, a replay keeps its own (``RESEND``).  ``WATCH`` when
    the ACK timer is armed and not running."""
    del req._sq[0]
    req.messages_sent += 1
    act = 0
    if wr.msn < 0:
        wr.msn = req._next_msn
        req._next_msn += 1
    else:
        req.retransmissions += 1
        act = RESEND
    req._inflight[wr.msn] = wr
    if wr.opcode is Opcode.SEND:
        req._sends_inflight += 1
        if req._credit_est is not None:
            req._credit_est -= 1
    if req._xport_enabled and req._xport_timer is None:
        req._xport_seen = req._xport_acks
        act |= WATCH
    return act


def retire(req: Requester, msn: int, advertised: int = -1) -> Optional[SendWR]:
    """Take ``msn`` out of flight — every completion, success or error,
    goes through here; returns its WR, or None (a stale or duplicate ACK).
    An ACK (``advertised``, the responder's receive WQEs left) is progress
    for the ACK timer, and the freshest one resets the credit estimate to
    what was advertised net of the SENDs still in flight."""
    wr = req._inflight.pop(msn, None)
    if wr is None:
        return None
    if wr.opcode is Opcode.SEND:
        req._sends_inflight -= 1
    if advertised >= 0:
        req._xport_acks += 1
        if msn > req._credit_est_msn:
            req._credit_est_msn = msn
            if req._credit_est is not None:
                req._credit_est = advertised - req._sends_inflight
    return wr


def rnr_nak(req: Requester, msn: int, cfg: "IBConfig") -> int:
    """An RNR NAK for ``msn``: the RNR wait in ns (the requester freezes),
    ``FATAL`` once ``msn`` has spent ``rnr_retry_count`` retries, or
    ``DROP`` (a message no longer in flight, or a NAK during the freeze)."""
    if msn not in req._inflight or req._rnr_waiting:
        return DROP
    req.rnr_naks_received += 1
    if req._credit_est is not None:
        req._credit_est = 0
        req._credit_est_msn = max(req._credit_est_msn, msn - 1)
    wr = req._inflight[msn]
    tries = wr.rnr_tries = wr.rnr_tries + 1
    if cfg.rnr_retry_count != INFINITE_RETRY and tries > cfg.rnr_retry_count:
        return FATAL
    req._rnr_waiting = True
    delay = cfg.rnr_timer_ns
    if cfg.rnr_backoff_factor != 1.0 and tries > 1:
        # The backoff ladder is per WR: ``rnr_tries`` counts this message's
        # NAKs, and an ACKed message is never injected again, so the next
        # message starts from the base timer.
        delay = min(int(delay * cfg.rnr_backoff_factor ** (tries - 1)),
                    cfg.rnr_backoff_max_ns)
    return delay


def rnr_expire(req: Requester, nak_msn: int) -> None:
    """The RNR timer ran out: thaw and replay from the NAKed message (the
    injection gate lets one probe go even with no estimated credit)."""
    req._rnr_waiting = False
    _requeue(req, nak_msn)


def expire(req: Requester) -> int:
    """The ACK timer ran out.  ``DROP`` with nothing in flight (it restarts
    at the next injection); ``WATCH`` again after progress, or while an RNR
    freeze drives the replay; else the oldest message or its ACK was lost:
    ``REPLAY`` from it (and watch), or ``FATAL`` — the oldest in-flight
    message fails — once it has spent the retry limit."""
    if not req._inflight:
        return DROP
    if req._rnr_waiting or req._xport_acks != req._xport_seen:
        req._xport_seen = req._xport_acks
        return WATCH
    oldest = min(req._inflight)
    wr = req._inflight[oldest]
    tries = wr.xport_tries = wr.xport_tries + 1
    if req._xport_limit != INFINITE_RETRY and tries > req._xport_limit:
        return FATAL
    _requeue(req, oldest)
    req._xport_seen = req._xport_acks
    return REPLAY


def remote_error(req: Requester, msn: int) -> int:
    """The responder refused ``msn`` (a length or RDMA access error):
    ``FATAL``, or ``DROP`` when it is no longer in flight."""
    return FATAL if msn in req._inflight else DROP


def flush(req: Requester) -> List[SendWR]:
    """ERROR: retire everything in flight, then empty the send queue;
    returns the WRs, to complete with ``WR_FLUSH_ERROR``."""
    wrs = [retire(req, msn) for msn in list(req._inflight)]
    wrs += req._sq
    req._sq.clear()
    return wrs


def _requeue(req: Requester, first_msn: int) -> None:
    """Go back N: every unacked message from ``first_msn`` on returns to
    the head of the send queue, in MSN order (the responder's in-order
    filter discarded the later ones)."""
    inflight = req._inflight
    sq = req._sq
    for msn in sorted((m for m in inflight if m >= first_msn), reverse=True):
        wr = inflight.pop(msn)
        if wr.opcode is Opcode.SEND:
            req._sends_inflight -= 1
            if req._credit_est is not None:
                req._credit_est += 1
        sq.insert(0, wr)


# ----------------------------------------------------------------------
# responder
# ----------------------------------------------------------------------
def respond(qp: "QueuePair", msg: "_Message", mrs: "RegistrationTable") -> int:
    """The in-order filter, at receive-engine service time.  Only the
    expected MSN on a READY queue pair goes on: anything else is ``DROP``
    — but armed, a stale duplicate means its ACK was lost, so ``ACK`` it
    again.  A SEND with no receive WQE posted is
    ``RNR_NAK``; one longer than the head WQE is ``LENGTH_ERROR``; else
    ``DELIVER``.  An RDMA write outside a registered region of ``mrs`` is
    ``ACCESS_ERROR``; else its payload is placed and it is ``ACK``."""
    if qp.state is not QPState.READY:
        return DROP
    if msg.msn != qp._expected_msn:
        if qp._req._xport_enabled and msg.msn < qp._expected_msn:
            return ACK
        return DROP
    if msg.opcode is Opcode.SEND:
        rq = qp._rq
        if not rq:
            qp.rnr_naks_sent += 1
            return RNR_NAK
        qp._expected_msn += 1
        if msg.length > rq[0].capacity:
            return LENGTH_ERROR
        qp.messages_delivered += 1
        return DELIVER
    qp._expected_msn += 1
    try:
        mr = mrs.check_remote(msg.rkey, msg.remote_addr, msg.length)
    except RemoteAccessError:
        return ACCESS_ERROR
    mr.store(msg.remote_addr, msg.payload)
    qp.messages_delivered += 1
    return ACK


def check_invariants(qp: "QueuePair") -> List[str]:
    """Structural self-audit of both halves; returns a list of problem
    strings (empty when healthy).  Cheap — called at end of audited runs."""
    req, hca, name = qp._req, qp.hca, f"QP {qp.qp_num}"
    problems = []
    sends = len(req._sq) + len(req._inflight)
    if sends > hca.sq_depth:
        problems.append(f"{name}: {sends} outstanding sends exceed sq_depth {hca.sq_depth}")
    problems += [f"{name}: inflight msn {msn} >= next_msn {req._next_msn}"
                 for msn in req._inflight if msn >= req._next_msn]
    queued = [wr.msn for wr in req._sq]
    replays = queued[:len(queued) - queued.count(-1)]
    if -1 in replays or replays != sorted(replays):
        problems.append(f"{name}: replays {replays} are not the send queue's head in MSN order")
    counted = sum(1 for wr in req._inflight.values() if wr.opcode is Opcode.SEND)
    if req._sends_inflight != counted:
        problems.append(f"{name}: _sends_inflight={req._sends_inflight} "
                        f"but {counted} SEND WRs are inflight")
    if len(qp._rq) > hca.rq_depth:
        problems.append(f"{name}: {len(qp._rq)} posted recvs exceed rq_depth {hca.rq_depth}")
    if qp.state is QPState.ERROR and (sends or qp._rq):
        problems.append(f"{name}: ERROR state with unflushed work queues")
    return problems
