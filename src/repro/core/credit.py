"""The credit protocol (paper §4.2-4.3): every per-connection flow-control
transition, in one module that reads no simulator, queue pair or endpoint.

Each function mutates the :class:`~repro.mpi.connection.Connection` fields
it names and returns an int — a count, or one of the action codes below.
The endpoint acts on it against the verbs layer (posting, the vbuf pool,
emission) and fires the observer events; the recovery
manager calls :func:`resync`.  The schemes in this package are the policies
read here.  ``tests/test_credit_machine.py`` drives these functions over two
connections with no simulator (DESIGN §5.3 lists each transition: the
fields it reads, its result, who executes it).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.base import FlowControlScheme
    from repro.mpi.connection import Connection
    from repro.mpi.protocol import Header

#: :func:`release`: post a receive vbuf in place of the freed one; the paid
#: credit goes back (:func:`grant`); it dies here, repaying decay debt; it
#: is held back while the receiver is stalled
REPOST, GRANT, SWALLOW, HOLD = 1, 2, 4, 8
#: :func:`drain_step`: the backlog's head takes a credit and goes; it goes
#: as an optimistic (unpaid) rendezvous
SEND, FALLBACK = 1, 2


def take(scheme: "FlowControlScheme", conn: "Connection", head: bool = False) -> int:
    """Take a credit for a paid send: 1 (always, for a scheme without
    credits) or 0, the send joins the backlog.  A new send never overtakes
    the backlog (MPI non-overtaking) nor goes while the connection
    recovers (its credits are stale until :func:`resync`); ``head`` is the
    backlog's head, whose turn it is."""
    if conn.recovering or (conn.backlog and not head):
        return 0
    if scheme.uses_credits:
        if conn.credits <= 0:
            return 0
        conn.credits -= 1
    return 1


def piggyback(conn: "Connection", header: "Header", replay: bool = False) -> int:
    """Load every pending return credit onto an outgoing header; returns how
    many.  A recovery replay carries none: what it carried died with the
    queue pair's incarnation, and :func:`resync` mints it again."""
    if replay:
        header.credits = 0
        return 0
    n = conn.pending_credit_return
    conn.pending_credit_return = 0
    header.credits += n
    return n


def receive(scheme: "FlowControlScheme", conn: "Connection", n: int) -> None:
    """``n`` credits arrived from the peer (piggybacked or in an ECM)."""
    if scheme.uses_credits:
        conn.credits += n


def grow(scheme: "FlowControlScheme", conn: "Connection", h: "Header") -> int:
    """Dynamic growth (§4.3) on an arrived header; returns the ``delta``.
    A header that went through the sender's backlog raises the target
    (doubling, or ``growth_step``, up to ``max_prepost``); the new buffers
    are new credits, pending from here on — the caller posts them (and
    asks :func:`grant` for the ECM decision).  Flags
    up to about one credit budget of sequence numbers past a growth are
    stale (``rate_limited``).  The optional decay halves the target after
    ``decay_idle_messages`` unflagged headers (``swallow_debt`` grows); the
    population then shrinks as :func:`release` stops reposting and swallows."""
    target = conn.prepost_target
    if (
        h.went_backlog
        and target < scheme.max_prepost
        and (not scheme.rate_limited or h.seq > conn._grow_barrier_seq)
    ):
        if scheme.exponential:
            new = min(scheme.max_prepost, max(target * 2, 1))
        else:
            new = min(scheme.max_prepost, target + scheme.growth_step)
        conn.prepost_target = new
        if new > conn.stats.max_prepost:
            conn.stats.max_prepost = new
        conn.pending_credit_return += new - target
        conn._decay_quiet_msgs = 0
        conn._grow_barrier_seq = h.seq + new
        return new - target
    if scheme.decay_enabled:
        conn._decay_quiet_msgs += 1
        if conn._decay_quiet_msgs >= scheme.decay_idle_messages:
            conn._decay_quiet_msgs = 0
            conn.prepost_target = max(1, target // 2)
            conn.swallow_debt += target - conn.prepost_target
    return 0


def release(conn: "Connection", paid: bool, ring: bool, stalled: bool) -> int:
    """Release a processed message's receive vbuf — or ring slot (``ring``)
    — and settle its credit: ``REPOST`` and/or ``GRANT``, ``SWALLOW``,
    ``HOLD`` or 0.  The grant is decoupled from the repost (growth may have
    replaced a vbuf pinned in the unexpected queue; its credit still
    returns); only an over-full population, after a decay, swallows it.  A
    ring's WQE population is the control reserve, which never contracts,
    so a paid RTS on a ring connection always gets its credit back."""
    if stalled:
        return HOLD if paid else 0
    act = 0
    if not ring:
        budget = conn.prepost_target + conn.headroom
        if conn.recv_posted < budget:
            act = REPOST
        elif paid and conn.recv_posted > budget:
            conn.swallow_debt -= 1
            return SWALLOW
    return act | GRANT if paid else act


def grant(scheme: "FlowControlScheme", conn: "Connection", n: int) -> bool:
    """Return ``n`` paid credits to the peer, on its next header, and take
    the ECM decision (``n`` = 0 takes it alone): True when an explicit
    credit message is due now.  ECMs are optimistic — never gated by
    credits — so the credit cycle cannot wedge.  Due at ``ecm_threshold``
    pending credits; on a ring, once the sender may see no more than
    ``reclaim_watermark`` free slots; never without credits."""
    conn.pending_credit_return += n
    if not scheme.uses_credits:
        return False
    if scheme.uses_ring:
        floor = max(1, conn.prepost_target - scheme.reclaim_watermark)
    else:
        floor = scheme.ecm_threshold
    return conn.pending_credit_return >= floor


def drain_step(scheme: "FlowControlScheme", conn: "Connection", room: int) -> int:
    """One step of the backlog drain: ``SEND`` while credits last (the head
    then takes one, :func:`take`; a scheme without credits backs up only
    while recovering); with none, ``FALLBACK`` while fewer than
    ``fallback_window`` fallbacks are in flight (§4.2: its handshake
    piggybacks fresh credits); else 0.  ``room`` is what the vbuf pool can
    stage: 2 a data message, 1 only control, 0 nothing."""
    if conn.recovering:
        return 0
    if conn.credits > 0 or not scheme.uses_credits:
        return SEND if room > 1 else 0
    if room and conn.fallback_inflight < scheme.fallback_window:
        conn.fallback_inflight += 1
        return FALLBACK
    return 0


def end_fallback(conn: "Connection") -> None:
    """A fallback handshake's CTS arrived: its window slot is free."""
    conn.fallback_inflight -= 1


def resync(conn: "Connection", back: "Connection", held: int) -> int:
    """Recovery: the sender's fresh balance is what is left of the
    receiver's target (``back`` is the reverse connection) after the
    ``held`` paid tokens found elsewhere and the grants still pending
    there; the refill stops at the target, so the decay debt is now what
    the target cannot cover.  Returns the credits."""
    fresh = back.prepost_target - held - back.pending_credit_return
    conn.credits = max(0, fresh)
    back.swallow_debt = max(0, -fresh)
    return conn.credits
