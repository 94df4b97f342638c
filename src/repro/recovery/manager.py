"""Connection recovery: QP re-establishment with credit resynchronization.

A fatal completion (transport/RNR retry budget exceeded, protection fault)
leaves the QP pair in ERROR with every queued WR flushed.  Real MPI stacks
over InfiniBand re-run the connection bring-up and *resynchronize the
flow-control state* — the part the paper's schemes make delicate, because
credits are distributed state: some live at the sender, some ride in-flight
headers, some are pinned under unexpected messages at the receiver.

The manager drives one state machine per rank pair:

1. **detect** — :func:`~repro.recovery.failures.classify` decides and the
   endpoint executes: the first non-success WC for a pair begins recovery
   (:meth:`RecoveryManager.begin`), later ones join it; both
   connections freeze (``conn.recovering``), the surviving QP half is
   forced to ERROR so its queued WRs flush too, and what every flushed
   send carried as its ``wr_id`` (its header, or its rendezvous op) is
   collected as a *replay candidate* (per-message ACKs are cumulative and
   in order, so the flushed sends are exactly the un-acked suffix).

2. **backoff** — re-arm is scheduled ``min(max_delay, base * factor^(k-1))``
   plus deterministic per-(pair, attempt) jitter after the fault.  Once
   the cumulative attempt budget is spent, the pair's next loss is a
   structured :class:`~repro.recovery.failures.ConnectionFailure` instead
   of an unbounded reconnect storm.

3. **re-arm** — ``Cluster.reset_pair`` reclaims the straggler error WCs
   from both CQs (more replay candidates) and brings the pair up as a new
   one on successor QPs (what is still in flight to or from the dead ones
   goes nowhere); then per-direction credit state is recomputed from
   first principles (below).

4. **replay** — un-acked messages are re-posted with their original
   sequence numbers (pruned of the delivered-but-ack-lost prefix, which the
   receiver must not see twice), flushed rendezvous RDMA writes are re-run
   idempotently, deferred control emissions drain FIFO, and the backlogs
   re-drain under the resynchronized credits.

**Credit resynchronization.**  For direction s→r the receiver's buffer
population is authoritative.  Every paid token is, at re-arm time, in
exactly one of six places, so the sender's fresh balance is what is left
of the target after all of them::

    credits(s→r) = prepost_target(r)
                   - replayed_paid          # un-acked, about to be re-sent
                   - parked_paid            # delivered at r, not yet polled
                   - ungranted              # polled at r, grant still pending
                                            #   (unexpected queue + stall hold)
                   - pending_credit_return  # granted at r, not yet shipped
                   - parked_credits         # shipped by r, not yet polled at s

(never below zero: what the target cannot cover is decay debt).

Pre-fault credits that died on flushed headers are deliberately *not*
counted — zeroing ``header.credits`` on replay re-mints them here, which is
the whole trick: the balance is reconstructed from surviving state, never
from the lost wire traffic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core import credit
from repro.mpi.protocol import Header, MsgKind
from repro.recovery.failures import ConnectionFailure
from repro.recovery.policy import RecoveryPolicy, pair_rng
from repro.sim.units import to_us

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.connection import Connection
    from repro.mpi.endpoint import Endpoint


class _PairRecovery:
    """In-flight recovery of one rank pair."""

    __slots__ = ("pair", "attempt", "started_ns", "cause", "replays")

    def __init__(self, pair: Tuple[int, int], attempt: int, started_ns: int, cause: str):
        self.pair = pair
        self.attempt = attempt
        self.started_ns = started_ns
        self.cause = cause
        #: detecting rank -> what its flushed sends carried (Header or
        #: RndvSendOp), in flush order
        self.replays: Dict[int, List[object]] = {pair[0]: [], pair[1]: []}


class RecoveryManager:
    """One job's recovery driver, armed on every endpoint's ``_recovery``
    decision site (zero-cost when absent: one test there)."""

    name = "recovery"

    def __init__(self, policy: Optional[RecoveryPolicy] = None):
        self.cluster = self.sim = None  # set by arm()
        self.policy = policy or RecoveryPolicy()
        self._active: Dict[tuple, _PairRecovery] = {}
        self._attempts: Dict[tuple, int] = {}
        #: budget-exhausted pairs, in failure order
        self.failures: List[ConnectionFailure] = []
        # observability
        self.recoveries_started = 0
        self.recoveries_completed = 0
        self.messages_replayed = 0
        self.reconnect_ns_total = 0
        self.reconnect_ns_max = 0

    def arm(self, cluster) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        for ep in cluster.endpoints:
            ep._recovery = self

    def disarm(self) -> None:
        """Undo :meth:`arm`: a fatal completion is a failure record again."""
        for ep in self.cluster.endpoints:
            ep._recovery = None

    # ------------------------------------------------------------------
    # the verdicts of classify, as Endpoint._handle_error_wc executes them
    # ------------------------------------------------------------------
    def attempts(self, a: int, b: int) -> int:
        """The recoveries the pair ``a``-``b`` has begun."""
        return self._attempts.get(self._pair(a, b), 0)

    def begin(self, rank: int, peer: int, attempt: int, cause: str) -> None:
        """RECOVER: freeze the pair and schedule its re-arm."""
        pair = self._pair(rank, peer)
        self._attempts[pair] = attempt
        a, b = pair
        ep_a, ep_b = self._ep(a), self._ep(b)
        conn_ab, conn_ba = ep_a.connections[b], ep_b.connections[a]
        self._active[pair] = _PairRecovery(pair, attempt, self.sim.now, cause)
        self.recoveries_started += 1
        conn_ab.recovering = True
        conn_ba.recovering = True
        # Force the surviving half to ERROR too: its queued WRs flush to
        # its owner's CQ, where they are collected as replay candidates.
        conn_ab.qp.force_error()
        conn_ba.qp.force_error()
        delay = self.policy.backoff_ns(attempt)
        if self.policy.jitter_ns > 0:
            rng = pair_rng(self.policy.seed, a, b, attempt)
            delay += rng.randrange(self.policy.jitter_ns)
        obs = self.cluster.observer
        if obs is not None:
            obs.on_recovery_begin(a, b)
            obs.on_quiet(self.sim.now + delay)
        ep_a.tracer.count("recovery.begin", f"{a}-{b}")
        self.sim.call_later(delay, self._rearm, pair)

    def keep(self, rank: int, peer: int, record: object) -> None:
        """RECOVER or JOIN: ``rank``'s flushed send carried ``record``
        (None for a receive), a replay candidate."""
        if record is not None:
            self._active[self._pair(rank, peer)].replays[rank].append(record)

    def give_up(self, failure: ConnectionFailure) -> None:
        """FAIL, the budget spent: record the loss.  An on-demand cluster
        dismantles the pair, so a later request() re-runs the CM exchange
        on fresh QPs."""
        self.failures.append(failure)
        cm = self.cluster.cm
        if cm is not None:
            cm.teardown(failure.rank, failure.peer)

    # ------------------------------------------------------------------
    # re-arm (manager callback after the backoff delay)
    # ------------------------------------------------------------------
    def _rearm(self, pair) -> None:
        rec = self._active.get(pair)
        if rec is None:
            return  # budget-failed in the meantime
        a, b = pair
        ep_a, ep_b = self._ep(a), self._ep(b)
        conn_ab, conn_ba = ep_a.connections[b], ep_b.connections[a]
        # the pair back up on successor QPs (dynamic-scheme growth carries
        # over: prepost_target persists on the Connection, so the refill
        # tops up to the grown target); the stragglers join the replays
        for rank, flushed in zip(pair, self.cluster.reset_pair(a, b)):
            rec.replays[rank] += flushed
        # per-direction credit resynchronization + replay planning
        plan_ab = self._resync(ep_a, conn_ab, ep_b, conn_ba, rec)
        plan_ba = self._resync(ep_b, conn_ba, ep_a, conn_ab, rec)
        # unfreeze, replay, re-emit deferred control, re-drain backlogs
        conn_ab.recovering = False
        conn_ba.recovering = False
        replayed = self._apply(ep_a, conn_ab, plan_ab)
        replayed += self._apply(ep_b, conn_ba, plan_ba)
        self._active.pop(pair, None)
        self.recoveries_completed += 1
        self.messages_replayed += replayed
        dt = self.sim.now - rec.started_ns
        self.reconnect_ns_total += dt
        if dt > self.reconnect_ns_max:
            self.reconnect_ns_max = dt
        ep_a.tracer.count("recovery.rearm", f"{a}-{b}")

    # ------------------------------------------------------------------
    # credit-state resynchronization (one direction)
    # ------------------------------------------------------------------
    def _resync(self, ep_s: "Endpoint", conn_sr: "Connection",
                ep_r: "Endpoint", conn_rs: "Connection", rec) -> tuple:
        """Recompute s→r flow-control state; returns the replay plan
        ``(headers, rdma_ops)`` for :meth:`_apply`."""
        headers: List[Header] = []
        rdmas: List[object] = []
        for record in rec.replays[ep_s.rank]:
            if type(record) is Header:
                headers.append(record)
            else:  # the RndvSendOp of a flushed payload write
                rdmas.append(record)
        # Delivered-but-unpolled arrivals at r: they advance the replay
        # horizon (the receiver will still poll them) and pin paid tokens.
        # With two channels (CQ + RDMA ring) sharing one sequence space
        # the received set can have gaps — a control message parked in
        # ``cq_stash`` behind a ring write that was lost in flight — so
        # the horizon is the *contiguous* received prefix, and anything
        # received beyond a gap is pruned by membership instead.
        received = {h.seq: h for h in ep_r.unpolled(ep_s.rank)}
        ch_rs = conn_rs.ring
        if ch_rs is not None:
            # Ring arrivals captured in slot memory but not yet processed:
            # they advance the horizon and pin paid tokens exactly like
            # unpolled CQ deliveries (one shared per-connection sequence
            # space, delivered in order by the RC transport).
            received.update((h.seq, h) for h in (*ch_rs._arrived, *ch_rs.cq_stash))
        parked_paid = sum(1 for h in received.values() if h.paid)
        b_next = conn_rs.seq_in_expected
        while b_next in received:
            b_next += 1
        # Prune the delivered-but-ack-lost prefix: the receiver consumed
        # those sequence numbers, replaying them would corrupt ordering.
        live = [h for h in headers
                if h.seq >= b_next and h.seq not in received]
        live.sort(key=lambda h: h.seq)
        if ep_s.scheme.uses_credits:
            replayed_paid = sum(1 for h in live if h.paid)
            # polled at r, grant still pending: paid eager parked in the
            # unexpected queue (vbuf pinned) + credits held by a fault stall
            ungranted = ep_r._stall_held.get(ep_s.rank, 0)
            for msg in ep_r.matching._unexpected:
                h = msg.header
                if (h.src == ep_s.rank and h.paid and not h.via_ring
                        and h.kind is MsgKind.EAGER):
                    ungranted += 1
            # granted and shipped by r, parked unpolled at s
            parked_credits = sum(h.credits for h in ep_s.unpolled(ep_r.rank))
            credit.resync(conn_sr, conn_rs,
                          replayed_paid + parked_paid + ungranted + parked_credits)
            if self.cluster.observer is not None:
                self.cluster.observer.on_recovery_resync(
                    ep_s.rank, ep_r.rank, replayed_paid, parked_paid, ungranted, parked_credits)
        return live, rdmas

    def _apply(self, ep: "Endpoint", conn: "Connection", plan: tuple) -> int:
        """Replay the un-acked suffix (original seqs, in order), re-run
        flushed RDMA writes, drain deferred control emissions (fresh seqs),
        and re-drain the backlog under the resynchronized credits."""
        headers, rdmas = plan
        for header in headers:
            ep._emit(conn, header, replay=True)
        for op in rdmas:
            ep._emit_data(conn, op, replay=True)
        n = len(headers) + len(rdmas)
        while conn.deferred:
            ep._emit(conn, *conn.deferred.popleft())
        if conn.backlog:
            ep._drain(conn)
        if n:
            ep.tracer.count("recovery.replayed", f"{ep.rank}->{conn.peer}", n)
        return n

    # ------------------------------------------------------------------
    # helpers / observability
    # ------------------------------------------------------------------
    @staticmethod
    def _pair(a: int, b: int) -> Tuple[int, int]:
        return (a, b) if a < b else (b, a)

    def _ep(self, rank: int) -> "Endpoint":
        return self.cluster.endpoints[rank]

    def summary(self) -> dict:
        done = self.recoveries_completed
        return {
            "recoveries": self.recoveries_started,
            "completed": done,
            "failed_pairs": len(self.failures),
            "attempts_max": max(self._attempts.values(), default=0),
            "messages_replayed": self.messages_replayed,
            "reconnect_us_max": to_us(self.reconnect_ns_max),
            "reconnect_us_mean": to_us(self.reconnect_ns_total // done) if done else 0.0,
        }
