"""Runtime invariant auditor (the executable spec of the paper's §3-§4).

The :class:`Auditor` answers every event of the observer seam
(:data:`repro.cluster.builder.EVENTS`: the endpoint's protocol events, the
cluster's, the switch model's) and validates, *while a job runs*:

(a) **credit conservation** per directed rank pair ``s -> r`` under a
    credit-based scheme, over its ledger row (:class:`_Row`; ``row.snd`` /
    ``row.rcv`` are the connections ``s -> r`` / ``r -> s``)::

        row.snd.credits + row.consumed_unsent + row.inflight_paid
      + row.ungranted + row.rcv.pending_credit_return + row.inflight_credits
      == row.rcv.prepost_target + row.rcv.swallow_debt

    — available at the sender; consumed, emission pending (isend may yield
    for a vbuf); paid headers in flight; delivered, grant pending (pinned
    unexpected, or a stalled receiver); granted, waiting to ride; riding
    back to ``s`` — against the pool (growth mints matching credits
    atomically) and the decay debt :mod:`repro.core.credit` keeps.
    ``row.off`` mutes the check while the pair is mid-recovery, severed by
    a rank death or not connected;

(b) **buffer-lease tracking** — every send vbuf acquired by an emission is
    released by exactly one completion (no leak, no double release), and
    the receive population never exceeds its budget (no double-post);

(c) **backlog FIFO order** and *went-through-backlog* bit correctness —
    ``row.shadow`` mirrors the backlog of ``s -> r``; dequeues must pop the
    shadow head, the feedback bit must be set exactly on messages that
    passed through the backlog (or the unpaid RTS minted by the rendezvous
    fallback for one);

(d) **matching order** per (src, dst, context, tag) — MPI non-overtaking
    governs the *matching* order, so the sequence of matched message sizes
    must be a prefix of the sent sizes (completion order may legally
    invert for mixed eager/rendezvous traffic); a send never matched is
    pending work, which (e) reports;

(e) a **progress watchdog** — while MPI work is pending, some hook must
    fire within ``quiet_bound_ns`` of simulated time, else the job is
    flagged as deadlocked/starved (fault windows extend the bound).

It is *pluggable and zero-cost when disabled*: it joins the seam in
:meth:`Auditor.arm`, and while nothing observes an event site is one
``None`` test (``tests/test_inertness.py``); it decides nothing.  Enable it
with ``run_job(..., audit=True)`` or attach an instance for custom
settings.  Watchdog ticks are agenda events that mutate no simulation
state, so an audited run computes the same results — only the golden
*event counts* differ, which is why the auditor defaults to off.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.connection import Connection
    from repro.mpi.endpoint import Endpoint
    from repro.mpi.protocol import Header

from repro.mpi.protocol import MsgKind

#: watchdog granularity: how often the pending-work probe runs
DEFAULT_WATCHDOG_INTERVAL_NS = 1_000_000  # 1 ms of simulated time
#: longest hook-quiet stretch tolerated while work is pending
DEFAULT_QUIET_BOUND_NS = 5_000_000  # 5 ms — far above any healthy stall


class InvariantViolation(AssertionError):
    """A runtime invariant failed.

    Subclasses ``AssertionError`` so test harnesses treat it as a failed
    assertion, and carries structured fields for the fuzz shrinker.
    """

    def __init__(self, invariant: str, detail: str, time_ns: int,
                 pair: Optional[Tuple[int, int]] = None):
        self.invariant = invariant
        self.detail = detail
        self.time_ns = time_ns
        self.pair = pair
        where = f" pair {pair[0]}->{pair[1]}" if pair else ""
        super().__init__(f"[{invariant}]{where} at t={time_ns}ns: {detail}")


class _Row:
    """Everything the auditor tracks for one directed pair ``s -> r``: the
    (a) ledger terms, the (c) backlog shadow of ``s``'s sends to ``r`` and
    the (g) slots ``s`` wrote into ``r``'s ring.  Made with its reverse,
    bound when the pair is wired."""

    __slots__ = ("pair", "snd", "rcv", "back", "off", "suspended",
                 "consumed_unsent", "inflight_paid", "ungranted",
                 "inflight_credits", "shadow", "ring_held",
                 "ring_deposited", "ring_freed")

    def __init__(self, pair: Tuple[int, int]):
        self.pair = pair
        #: the connections s -> r and r -> s once wired, else None
        self.snd: Optional["Connection"] = None
        self.rcv: Optional["Connection"] = None
        self.back: Optional["_Row"] = None  # the row of r -> s
        self.off = True  # conservation not checkable (see the module doc)
        self.suspended = False  # between recovery teardown and resync
        self.consumed_unsent = self.inflight_paid = self.ungranted = 0
        self.inflight_credits = self.ring_held = 0
        self.shadow: Deque[int] = deque()  # ids of backlogged headers
        #: last sequence number deposited / freed (both strictly increase)
        self.ring_deposited: Optional[int] = None
        self.ring_freed: Optional[int] = None

    def __str__(self) -> str:
        return f"{self.pair[0]}->{self.pair[1]}"


class Auditor:
    """Validates flow-control invariants during a run, as an observer.

    Parameters
    ----------
    strict:
        Raise :class:`InvariantViolation` at the point of detection
        (default).  When False, violations are only recorded in
        :attr:`violations` — useful for harvesting multiple failures.
    watchdog_interval_ns / quiet_bound_ns:
        Progress-watchdog cadence and tolerance (simulated time).  The
        watchdog arms itself on the first application send and disarms
        whenever no MPI work is pending, so an audited agenda still
        drains.
    """

    def __init__(self, strict: bool = True,
                 watchdog_interval_ns: int = DEFAULT_WATCHDOG_INTERVAL_NS,
                 quiet_bound_ns: int = DEFAULT_QUIET_BOUND_NS):
        self.strict = strict
        self.watchdog_interval_ns = watchdog_interval_ns
        self.quiet_bound_ns = quiet_bound_ns
        self.violations: List[InvariantViolation] = []
        self._cluster = None
        self._sim = None
        self._endpoints: List["Endpoint"] = []
        self._uses_credits = False
        # --- (a) ledger, (c) backlog shadow, (g) ring slots: one row per
        # directed pair, and a wired connection -> its pair's row ---
        self._pairs: Dict[Tuple[int, int], _Row] = {}
        self._rows: Dict["Connection", _Row] = {}
        # --- (b) send-buffer leases, per rank (sized at arm) ---
        self._lease: List[int] = []
        # --- (c) headers dequeued from a backlog, owed their emission ---
        self._dequeued: Set[int] = set()
        # --- (d) per (src, dst, context, tag): [sent sizes, matched count] ---
        self._streams: Dict[tuple, list] = defaultdict(lambda: [[], 0])
        self._total_sent = 0
        self._total_matched = 0
        # --- (e) watchdog ---
        self._wd_armed = False
        self._last_progress_ns = 0
        self._fault_grace_until = 0
        #: ranks declared dead by the failure detector: their frozen
        #: credit/backlog state is exempt from every liveness check
        self._dead: Set[int] = set()
        # --- (f) switch-congestion invariants (repro.congestion) ---
        self._xoff_open: Dict[tuple, int] = defaultdict(int)
        self.xoff_total = 0
        self.xon_total = 0
        #: total hook invocations (observability; overhead accounting)
        self.hook_calls = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    name = "audit"
    failures = ()  # a violation raises; the auditor loses no pair or rank

    def arm(self, cluster) -> None:
        """Observe a launched cluster and bind the pairs wired before the
        job (``Cluster.wire``).  An auditor audits one job (like every
        subsystem object: what it observed stays that job's record), so it
        arms once."""
        if self._cluster is not None:
            raise RuntimeError("this Auditor already audited a job; build a fresh one")
        if not cluster.endpoints:
            raise RuntimeError("arm() needs a launched cluster")
        self._cluster = cluster
        self._sim = cluster.sim
        self._endpoints = list(cluster.endpoints)
        self._lease = [0] * len(self._endpoints)
        self._uses_credits = self._endpoints[0].scheme.uses_credits
        self._last_progress_ns = cluster.sim.now
        cluster.observe(self)
        for ep in self._endpoints:
            for peer, conn in ep.connections.items():
                if peer > ep.rank:
                    self.on_wired(conn, self._endpoints[peer].connections[ep.rank])

    def on_quiet(self, until_ns: int) -> None:
        """Progress may legitimately stop until ``until_ns`` (a fault plan,
        a recovery backoff, a detection budget): the watchdog waits."""
        if until_ns + self.quiet_bound_ns > self._fault_grace_until:
            self._fault_grace_until = until_ns + self.quiet_bound_ns

    def on_rank_dead(self, rank: int) -> None:
        """The failure detector declared ``rank`` dead: its connections'
        frozen state (unmatched sends, severed backlogs, flushed QPs) is
        permanent and must not read as pending work or a stuck pair."""
        self._dead.add(rank)
        for row in self._pairs.values():
            if rank in row.pair:
                row.off = True  # severed pair: tokens died with the rank

    def on_wired(self, conn_ab: "Connection", conn_ba: "Connection") -> None:
        """``Cluster.connect`` wired a pair (or :meth:`arm` found it wired):
        bind its rows.  A registration, not a hook: no call is counted, no
        progress noted."""
        row = self._row(conn_ab.endpoint.rank, conn_ab.peer)
        self._rows[conn_ab] = row
        self._rows[conn_ba] = row.back
        self._bind(row, conn_ab, conn_ba)

    def _row(self, s: int, r: int) -> _Row:
        """The row of ``s -> r``, made with its reverse on first sight."""
        row = self._pairs.get((s, r))
        if row is None:
            row, back = _Row((s, r)), _Row((r, s))
            row.back, back.back = back, row
            self._pairs[(s, r)], self._pairs[(r, s)] = row, back
        return row

    def _bind(self, row: _Row, snd: "Connection", rcv: "Connection") -> None:
        """Bind ``row`` and its reverse to the pair's connections, muted
        while a rank is dead or a direction is mid-recovery."""
        row.snd = row.back.rcv = snd
        row.rcv = row.back.snd = rcv
        dead = row.pair[0] in self._dead or row.pair[1] in self._dead
        row.off = row.suspended or dead
        row.back.off = row.back.suspended or dead

    # ------------------------------------------------------------------
    # recovery integration (repro.recovery)
    # ------------------------------------------------------------------
    def on_recovery_begin(self, a: int, b: int) -> None:
        """QP pair (a, b) is being torn down: conservation for both
        directions is indeterminate until the resync re-seeds it."""
        self.hook_calls += 1
        self._last_progress_ns = self._sim.now
        row = self._row(a, b)
        row.suspended = row.off = row.back.suspended = row.back.off = True

    def on_recovery_resync(self, s: int, r: int, consumed_unsent: int,
                           inflight_paid: int, ungranted: int,
                           inflight_credits: int) -> None:
        """The manager rebuilt ``s -> r`` credit state for the new epoch;
        seed the ledger to match and resume checking the direction."""
        self.hook_calls += 1
        row = self._row(s, r)
        row.consumed_unsent, row.inflight_paid = consumed_unsent, inflight_paid
        row.ungranted, row.inflight_credits = ungranted, inflight_credits
        row.suspended = False
        self._bind(row, row.snd, row.rcv)  # un-mutes it (the reverse resyncs alone)
        if self._uses_credits:
            self._check(row)

    # ------------------------------------------------------------------
    # violation plumbing
    # ------------------------------------------------------------------
    def _violate(self, invariant: str, detail: str,
                 pair: Optional[Tuple[int, int]] = None) -> None:
        v = InvariantViolation(invariant, detail, self._sim.now, pair)
        self.violations.append(v)
        if self.strict:
            raise v

    def _violate_on(self, row: _Row, invariant: str, detail: str) -> None:
        """A violation on ``row``'s pair, its detail led by ``s->r: ``."""
        self._violate(invariant, f"{row}: {detail}", pair=row.pair)

    # ------------------------------------------------------------------
    # (a) the credit-conservation ledger
    # ------------------------------------------------------------------
    def _check(self, row: _Row) -> None:
        """Audit the token pool governing ``row.pair``'s paid traffic."""
        if row.off:
            return
        snd, rcv = row.snd, row.rcv
        lhs = (snd.credits + row.consumed_unsent + row.inflight_paid
               + row.ungranted + rcv.pending_credit_return
               + row.inflight_credits)
        rhs = rcv.prepost_target + rcv.swallow_debt
        if lhs != rhs:
            self._violate(
                "credit-conservation",
                f"pool accounts for {lhs} credits, configured pool is {rhs} "
                f"(sender={snd.credits} consumed_unsent={row.consumed_unsent} "
                f"inflight_paid={row.inflight_paid} ungranted={row.ungranted} "
                f"pending_return={rcv.pending_credit_return} "
                f"inflight_credits={row.inflight_credits} "
                f"target={rcv.prepost_target} swallow_debt={rcv.swallow_debt})",
                pair=row.pair,
            )

    def check_all_pairs(self) -> None:
        if not self._uses_credits:
            return
        for ep in self._endpoints:
            for conn in ep.connections.values():
                self._check(self._rows[conn])

    # ------------------------------------------------------------------
    # the endpoint's events (DESIGN §5's event map)
    # ------------------------------------------------------------------
    def on_consume(self, conn: "Connection") -> None:
        """A credit was consumed at the sender; its paid header may not be
        emitted until a vbuf is available (the isend yield gap)."""
        self.hook_calls += 1
        if not self._uses_credits:
            return
        row = self._rows[conn]
        row.consumed_unsent += 1
        self._check(row)

    def on_emit(self, conn: "Connection", header: "Header",
                replay: bool = False) -> None:
        self.hook_calls += 1
        self._last_progress_ns = self._sim.now
        row = self._rows[conn]
        # (b) send-buffer lease: all but a ring write hold one vbuf each
        if not header.via_ring:
            ep = conn.endpoint
            pool = ep.pool
            lease = self._lease[ep.rank] + 1
            self._lease[ep.rank] = lease
            if lease + pool.free != pool.capacity:
                self._lease_mismatch(ep.rank, lease, pool)
        # (c) backlog FIFO / went_backlog bit — skipped for a recovery
        # replay: the header passed these checks at its first emission and
        # its backlog passage was consumed then
        if not replay:
            if header.went_backlog:
                hid = id(header)
                if hid in self._dequeued:
                    self._dequeued.discard(hid)
                elif not (header.kind is MsgKind.RNDV_RTS and not header.paid):
                    # the rendezvous fallback mints a fresh unpaid RTS for
                    # the dequeued message; anything else claiming the bit
                    # without passing through the backlog is lying to the
                    # receiver
                    self._violate_on(row, "backlog-feedback-bit",
                                     f"{header.kind.name} seq={header.seq} "
                                     "carries went_backlog but never passed "
                                     "through the backlog")
            elif header.paid and row.shadow:
                self._violate_on(row, "backlog-fifo",
                                 f"paid {header.kind.name} seq={header.seq} "
                                 f"overtook {len(row.shadow)} backlogged send(s)")
        # (a) ledger movements
        if self._uses_credits:
            if header.paid:
                row.consumed_unsent -= 1
                if row.consumed_unsent < 0:
                    self._violate_on(row, "credit-conservation",
                                     f"paid {header.kind.name} emitted "
                                     "without a consumed credit")
                row.inflight_paid += 1
                self._check(row)
            if header.credits:
                # credits granted by e for p->e traffic, riding back to p
                back = row.back
                back.inflight_credits += header.credits
                self._check(back)

    def on_deliver(self, conn: "Connection", header: "Header") -> None:
        """A header from ``conn.peer`` was delivered at ``conn.endpoint``
        (called after any carried credits were folded into the scheme)."""
        self.hook_calls += 1
        self._last_progress_ns = self._sim.now
        if not self._uses_credits:
            return
        row = self._rows[conn]  # r -> s: the credits' ledger
        if header.credits:
            row.inflight_credits -= header.credits
            if row.inflight_credits < 0:
                self._violate(
                    "credit-conservation",
                    f"{row.back}: header delivered {header.credits} credits "
                    "that were never shipped",
                    pair=row.pair,
                )
            self._check(row)
        if header.paid:
            row = row.back  # s -> r: the paid message's ledger
            row.inflight_paid -= 1
            if row.inflight_paid < 0:
                self._violate_on(row, "credit-conservation",
                                 f"paid {header.kind.name} delivered but "
                                 "never emitted as paid")
            row.ungranted += 1
            self._check(row)

    def on_grant(self, conn: "Connection", n: int) -> None:
        """``conn.endpoint`` granted ``n`` paid credits back to the peer
        (``pending_credit_return`` was just incremented by ``n``)."""
        self.hook_calls += 1
        self._last_progress_ns = self._sim.now
        if not self._uses_credits or n == 0:
            return
        row = self._rows[conn].back
        row.ungranted -= n
        if row.ungranted < 0:
            self._violate_on(row, "credit-conservation",
                             f"granted {n} credit(s) with only "
                             f"{row.ungranted + n} delivered-but-ungranted")
        self._check(row)

    def on_swallow(self, conn: "Connection") -> None:
        """A paid credit died at the receiver: the population is over-full
        after a decay contraction, so the grant is withheld forever."""
        self.hook_calls += 1
        if not self._uses_credits:
            return
        row = self._rows[conn].back
        row.ungranted -= 1
        if row.ungranted < 0 or conn.swallow_debt < 0:
            self._violate_on(row, "credit-conservation",
                             "credit swallowed without decay debt "
                             f"(ungranted={row.ungranted + 1} "
                             f"swallow_debt={conn.swallow_debt + 1})")
        self._check(row)

    def on_grow(self, conn: "Connection") -> None:
        """:func:`repro.core.credit.grow` ran: growth mints its credits, a
        decay moves the excess into ``swallow_debt`` — the pool balances."""
        self.hook_calls += 1
        if self._uses_credits:
            self._check(self._rows[conn].back)

    def on_post_recv(self, conn: "Connection", n: int) -> None:
        """``n`` receive vbufs were posted (``recv_posted`` already raised);
        the population must never exceed its budget (no double-post)."""
        self.hook_calls += n  # one per buffer
        budget = conn.prepost_target + conn.headroom
        if conn.recv_posted > budget:
            rank = conn.endpoint.rank
            self._violate("buffer-lease", f"rank {rank}: {conn.recv_posted} "
                          f"receive vbufs posted toward {conn.peer}, budget "
                          f"is {budget} (double-post)", pair=(conn.peer, rank))

    def on_send_done(self, ep: "Endpoint") -> None:
        """An eager/ctl send completed and released its vbuf."""
        self.hook_calls += 1
        self._last_progress_ns = self._sim.now
        rank = ep.rank
        lease = self._lease[rank] - 1
        self._lease[rank] = lease
        if lease < 0:
            self._violate(
                "buffer-lease",
                f"rank {rank}: send vbuf released without a matching lease",
            )
        pool = ep.pool
        if lease + pool.free != pool.capacity:
            self._lease_mismatch(rank, lease, pool)

    def _lease_mismatch(self, rank: int, lease: int, pool) -> None:
        self._violate("buffer-lease", f"rank {rank}: {lease} leased send "
                      f"vbufs but the pool reports {pool.in_use} in use")

    def on_backlog_enqueue(self, conn: "Connection", header: "Header") -> None:
        self.hook_calls += 1
        self._rows[conn].shadow.append(id(header))

    def on_backlog_dequeue(self, conn: "Connection", header: "Header",
                           reemitted: bool = True) -> None:
        """``reemitted`` is False when the dequeued header is abandoned in
        favour of a freshly minted one (the rendezvous fallback)."""
        self.hook_calls += 1
        row = self._rows[conn]
        if not row.shadow:
            self._violate_on(row, "backlog-fifo",
                             "dequeue from an empty shadow backlog")
            return
        if row.shadow.popleft() != id(header):
            self._violate_on(row, "backlog-fifo", "dequeued a send that was "
                             "not the backlog head (FIFO order broken)")
        if reemitted:
            self._dequeued.add(id(header))

    # ------------------------------------------------------------------
    # (d) matching order
    # ------------------------------------------------------------------
    def on_app_send(self, src: int, dst: int, tag: int, context: int,
                    size: int) -> None:
        self.hook_calls += 1
        self._streams[(src, dst, context, tag)][0].append(size)
        self._total_sent += 1
        if not self._wd_armed and self._sim is not None:
            self._wd_armed = True
            self._last_progress_ns = self._sim.now
            self._sim.every(self.watchdog_interval_ns, self._wd_tick)

    def on_match(self, header: "Header") -> None:
        """A message matched a posted receive (at its *matching* point —
        arrival against a posted receive, or a receive finding it in the
        unexpected queue).  MPI non-overtaking is a matching-order rule."""
        self.hook_calls += 1
        self._last_progress_ns = self._sim.now
        key = (header.src, header.dst, header.context, header.tag)
        stream = self._streams[key]
        sent, i = stream
        stream[1] = i + 1
        self._total_matched += 1
        if i >= len(sent):
            self._violate(
                "matching-order",
                f"key (src={key[0]}, dst={key[1]}, ctx={key[2]}, "
                f"tag={key[3]}): matched {i + 1} messages but only "
                f"{len(sent)} were sent",
                pair=(header.src, header.dst),
            )
        elif sent[i] != header.size:
            self._violate(
                "matching-order",
                f"key (src={key[0]}, dst={key[1]}, ctx={key[2]}, "
                f"tag={key[3]}): match #{i} is {header.size} bytes, send "
                f"#{i} was {sent[i]} bytes (non-overtaking violated)",
                pair=(header.src, header.dst),
            )

    # ------------------------------------------------------------------
    # (f) the switch model's events (repro.congestion)
    # ------------------------------------------------------------------
    def on_xoff(self, port_key: tuple) -> None:
        """A port crossed its XOFF threshold and paused its feeders.
        Pause storms legitimately stall MPI progress, so this counts as
        progress for the watchdog."""
        self.hook_calls += 1
        self._last_progress_ns = self._sim.now
        self._xoff_open[port_key] += 1
        self.xoff_total += 1

    def on_xon(self, port_key: tuple) -> None:
        self.hook_calls += 1
        self._last_progress_ns = self._sim.now
        self.xon_total += 1
        self._xoff_open[port_key] -= 1
        if self._xoff_open[port_key] < 0:
            self._violate(
                "pause-conservation",
                f"port {port_key}: XON without a standing XOFF",
            )

    def on_queue_depth(self, port_key: tuple, depth: int,
                       buffer_bytes: Optional[int]) -> None:
        """An admission updated a port queue's depth; a finite buffer
        must never be exceeded (overflow is a tail-drop *before* the
        admission, so a deeper queue means the model leaked bytes)."""
        self.hook_calls += 1
        if buffer_bytes is not None and depth > buffer_bytes:
            self._violate(
                "congestion-buffer",
                f"port {port_key}: queue depth {depth} B exceeds the "
                f"configured {buffer_bytes} B buffer",
            )

    # ------------------------------------------------------------------
    # (g) RDMA ring-slot conservation (rdma-eager scheme; hooks fire from
    # RDMAChannel.deposit and the endpoint's ring-arrival processing)
    # ------------------------------------------------------------------
    def on_ring_deposit(self, channel, header: "Header") -> None:
        """An RDMA-written eager message became visible in a ring slot
        (sender ``channel.peer`` → receiver ``channel.endpoint``).  A slot
        token gates every write, so occupancy can never exceed the ring
        size — more means an unreclaimed slot was silently overwritten.
        And the RC transport accepts in order, so deposited sequence
        numbers are strictly increasing per pair (what lets the channel
        keep its arrivals in a FIFO)."""
        row = self._ring_step(channel, 1)
        if row.ring_held > channel.ring.slots:
            self._violate_on(row, "ring-slot-conservation",
                             f"{row.ring_held} slots occupied in a "
                             f"{channel.ring.slots}-slot ring (an unreclaimed "
                             "slot was overwritten)")
        self._ring_in_order(row, "ring_deposited", header.seq,
                            "ring-deposit-order", "deposited")

    def on_ring_free(self, channel, header: "Header") -> None:
        """The receiver copied ``header`` out of its slot.  Rings free in
        order ([13]: messages drain by sequence number), so freed
        sequence numbers must be strictly increasing per pair."""
        row = self._ring_step(channel, -1)
        if row.ring_held < 0:
            self._violate_on(row, "ring-slot-conservation",
                             "slot freed with none occupied")
        self._ring_in_order(row, "ring_freed", header.seq,
                            "ring-slot-fifo", "freed")

    def _ring_step(self, channel, delta: int) -> _Row:
        """A ring hook's common part: the row of ``channel.peer`` → its
        endpoint, its occupancy moved by ``delta``."""
        self.hook_calls += 1
        self._last_progress_ns = self._sim.now
        row = self._row(channel.peer, channel.endpoint.rank)
        row.ring_held += delta
        return row

    def _ring_in_order(self, row: _Row, last: str, seq: int,
                       invariant: str, verb: str) -> None:
        """Sequence numbers pass a ring event strictly increasing per pair."""
        prev = getattr(row, last)
        if prev is not None and seq <= prev:
            self._violate_on(row, invariant,
                             f"ring slot for seq={seq} {verb} after seq={prev}")
        setattr(row, last, seq)

    # ------------------------------------------------------------------
    # (e) progress watchdog
    # ------------------------------------------------------------------
    def _work_pending(self) -> bool:
        dead = self._dead
        if not dead:
            if self._total_sent > self._total_matched:
                return True
        else:
            # Messages to/from a dead rank legally never match; the cheap
            # totals comparison would read them as pending work forever.
            for key, (sent, matched) in self._streams.items():
                if key[0] in dead or key[1] in dead:
                    continue
                if len(sent) > matched:
                    return True
        for ep in self._endpoints:
            if ep.finalized or ep.rank in dead:
                # post-finalize stray control arrivals legally park in
                # posted vbufs / the CQ without this rank's attention;
                # a dead rank's state is frozen, not pending
                continue
            if ep._sends_open or ep._rndv_send or ep._rndv_recv or len(ep.cq):
                return True
            for peer, conn in ep.connections.items():
                if peer in dead:
                    continue  # severed: whatever is left never drains
                if conn.backlog or conn.deferred or conn.qp.outstanding_sends:
                    return True
        return False

    def _wd_tick(self) -> bool:
        if not self._work_pending():
            self._wd_armed = False
            return False  # agenda may drain; re-armed by the next send
        self.check_all_pairs()
        now = self._sim.now
        if now < self._fault_grace_until:
            self._last_progress_ns = now  # faults legitimately stall
            return True
        if now - self._last_progress_ns > self.quiet_bound_ns:
            self._wd_armed = False
            self._violate(
                "progress-watchdog",
                f"MPI work pending but no progress for "
                f"{now - self._last_progress_ns} ns "
                f"(bound {self.quiet_bound_ns} ns): deadlock or starvation",
            )
            return False
        return True

    # ------------------------------------------------------------------
    # end-of-job audit
    # ------------------------------------------------------------------
    def on_job_end(self, expect_quiescent: bool = True) -> None:
        """Full sweep after a run.  Conservation and lease balance must
        hold at any agenda drain; pool-fullness and the receive-population
        reconciliation additionally require the job to have finalized
        (``expect_quiescent``)."""
        self.check_all_pairs()
        dead = self._dead
        for ep in self._endpoints:
            if ep.rank in dead:
                continue
            for conn in ep.connections.values():
                if conn.peer in dead:
                    continue  # severed pair: QPs deliberately in ERROR
                problems = conn.qp.check_invariants()
                if problems:
                    self._violate(
                        "qp-state",
                        f"rank {ep.rank} QP to {conn.peer}: "
                        + "; ".join(problems),
                        pair=(ep.rank, conn.peer),
                    )
        if not expect_quiescent:
            return
        cong = self._cluster.fabric.congestion
        if cong is not None:
            # Pause-frame conservation + drain: a finalized job left no
            # traffic in flight, so every port queue must have emptied,
            # every XOFF must have been matched by an XON (depth fell
            # through the XON threshold on the way to zero), and no port
            # may still be gated by an unmatched pause frame.
            for key in sorted(cong.ports):
                port = cong.ports[key]
                if port.xoff_active or self._xoff_open[key] > 0:
                    self._violate(
                        "pause-conservation",
                        f"port {key}: XOFF still standing at run end "
                        "(never matched by an XON)",
                    )
                if port.depth or port.q or port.busy:
                    self._violate(
                        "congestion-drain",
                        f"port {key}: {port.depth} B ({len(port.q)} "
                        "message(s)) still queued at quiescence",
                    )
                if port.paused_by:
                    self._violate(
                        "pause-conservation",
                        f"port {key}: still paused by "
                        f"{sorted(port.paused_by)} at quiescence",
                    )
        # Control traffic that arrived *after* its destination finalized
        # parks in a posted vbuf with its completion unpolled — the
        # carried credits die there legitimately (the rank is done), so
        # reconcile the in-flight terms against those parked arrivals.
        parked_credits: Dict[tuple, int] = defaultdict(int)
        parked_paid: Dict[tuple, int] = defaultdict(int)
        for ep in self._endpoints:
            for h in ep.unpolled():
                if h.credits:
                    parked_credits[(ep.rank, h.src)] += h.credits
                if h.paid:
                    parked_paid[(h.src, ep.rank)] += 1
        for term, parked, what in (
            ("consumed_unsent", {}, "consumed-but-unsent credits"),
            ("inflight_paid", parked_paid, "in-flight paid messages"),
            ("inflight_credits", parked_credits,
             "in-flight returning credits"),
        ):
            for key, row in self._pairs.items():
                n = getattr(row, term)
                if key[0] in dead or key[1] in dead:
                    continue  # in-flight state lost with the rank
                if n and n != parked.get(key, 0):
                    self._violate(
                        "credit-conservation",
                        f"quiescent job left {n} {what} "
                        f"({parked.get(key, 0)} parked in unpolled "
                        "post-finalize arrivals)",
                        pair=key,
                    )
        for ep in self._endpoints:
            if ep.rank in dead:
                continue  # frozen mid-flight: leases died with the rank
            pool = ep.pool
            if self._lease[ep.rank] != 0 or pool.free != pool.capacity:
                self._violate(
                    "buffer-lease",
                    f"rank {ep.rank}: send-vbuf leak — "
                    f"{self._lease[ep.rank]} leases open, pool "
                    f"{pool.free}/{pool.capacity} free",
                )
            # Receive-population reconciliation: every posted vbuf is
            # either a live WQE or an arrival still unpolled in the CQ.
            unpolled: Dict[int, int] = {}  # by peer (a receive's wr_id)
            for wc in ep.cq._entries:
                if wc.is_recv:
                    unpolled[wc.wr_id] = unpolled.get(wc.wr_id, 0) + 1
            for conn in ep.connections.values():
                if conn.peer in dead:
                    continue  # severed: shadow/population frozen mid-flight
                row = self._rows[conn]
                if conn.backlog or row.shadow:
                    self._violate(
                        "backlog-fifo",
                        f"rank {ep.rank}: backlog toward {conn.peer} not "
                        "drained at quiescence",
                        pair=row.pair,
                    )
                if conn.ring is not None:
                    # Ring slots, not WQEs, back the credits — and at
                    # quiescence every deposited slot must have been
                    # reclaimed (copy-out frees in order, and the
                    # watchdog already forced every eager through).
                    if row.back.ring_held:
                        self._violate(
                            "ring-slot-leak",
                            f"rank {ep.rank}: {row.back.ring_held} ring "
                            f"slot(s) from {conn.peer} deposited but never "
                            "reclaimed at quiescence",
                            pair=row.back.pair,
                        )
                    continue
                accounted = (conn.qp.posted_recvs
                             + unpolled.get(conn.peer, 0))
                if conn.recv_posted != accounted:
                    self._violate(
                        "buffer-lease",
                        f"rank {ep.rank}: {conn.recv_posted} receive vbufs "
                        f"tracked toward {conn.peer} but {accounted} "
                        "accounted for (WQEs + unpolled arrivals)",
                        pair=(conn.peer, ep.rank),
                    )

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Canonical, JSON-friendly digest (fuzz artifacts, reports)."""
        return {
            "violations": [{"invariant": v.invariant,
                            "pair": list(v.pair) if v.pair else None,
                            "time_ns": v.time_ns, "detail": v.detail}
                           for v in self.violations],
            "hook_calls": self.hook_calls,
            "messages_sent": self._total_sent,
            "messages_matched": self._total_matched,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Auditor hooks={self.hook_calls} "
                f"violations={len(self.violations)}>")
