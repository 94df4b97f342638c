"""Runtime invariant auditor (the executable spec of the paper's §3-§4).

The :class:`Auditor` subscribes to guarded hooks in the MPI endpoint, the
buffer pool and the flow-control schemes and validates, *while a job runs*:

(a) **credit conservation** per directed rank pair — for every pair
    ``(s, r)`` under a credit-based scheme, the tokens governing the
    ``s -> r`` paid traffic are conserved::

        conn_sr.credits               # available at the sender
      + consumed_unsent[(s, r)]       # consumed, emission pending (isend
                                      #   may yield for a vbuf in between)
      + inflight_paid[(s, r)]         # paid headers posted, not delivered
      + ungranted[(s, r)]             # delivered, grant still pending
                                      #   (unexpected vbuf pinned / receiver
                                      #   stalled by fault injection)
      + conn_rs.pending_credit_return # granted, waiting to ride a message
      + inflight_credits[(s, r)]      # riding an r -> s header back to s
      ==
        conn_rs.prepost_target        # the configured pool (grows under
                                      #   the dynamic scheme, which mints
                                      #   matching credits atomically)
      + pending_swallow[(s, r)]       # decay debt: target was lowered, the
                                      #   excess credits die on their next
                                      #   pass through the receiver

(b) **buffer-lease tracking** — every send vbuf acquired by an emission is
    released by exactly one completion (no leak, no double release), and
    the receive population never exceeds its budget (no double-post);

(c) **backlog FIFO order** and *went-through-backlog* bit correctness — a
    shadow queue mirrors every connection's backlog; dequeues must pop the
    shadow head, the feedback bit must be set exactly on messages that
    passed through the backlog (or the unpaid RTS minted by the rendezvous
    fallback for one);

(d) **matching order and completeness** per (src, dst, context, tag) — MPI
    non-overtaking governs the *matching* order, so the sequence of
    matched message sizes must be a prefix of the sent sizes (completion
    order may legally invert for mixed eager/rendezvous traffic);

(e) a **progress watchdog** — while MPI work is pending, some hook must
    fire within ``quiet_bound_ns`` of simulated time, else the job is
    flagged as deadlocked/starved (fault windows extend the bound).

The auditor is *pluggable and zero-cost when disabled*: every hook site is
guarded by ``if self._audit is not None`` and the default is ``None``
(verified by ``tests/test_inertness.py``).  Enable
it with ``run_job(..., audit=True)`` or attach an instance for custom
settings.  Watchdog ticks are ordinary agenda events: they shift sequence
numbers but mutate no simulation state, so an audited run computes the
same results — only the golden *event counts* differ, which is why the
auditor defaults to off.
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


class Auditor:
    """Validates flow-control invariants during a run via endpoint hooks.

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

    def __init__(
        self,
        strict: bool = True,
        watchdog_interval_ns: int = DEFAULT_WATCHDOG_INTERVAL_NS,
        quiet_bound_ns: int = DEFAULT_QUIET_BOUND_NS,
    ):
        self.strict = strict
        self.watchdog_interval_ns = watchdog_interval_ns
        self.quiet_bound_ns = quiet_bound_ns
        self.violations: List[InvariantViolation] = []
        self._cluster = None
        self._sim = None
        self._endpoints: List["Endpoint"] = []
        self._uses_credits = False
        # --- (a) credit-conservation ledger, keyed by directed pair ---
        self._consumed_unsent: Dict[tuple, int] = defaultdict(int)
        self._inflight_paid: Dict[tuple, int] = defaultdict(int)
        self._ungranted: Dict[tuple, int] = defaultdict(int)
        self._inflight_credits: Dict[tuple, int] = defaultdict(int)
        self._pending_swallow: Dict[tuple, int] = defaultdict(int)
        #: directed pairs mid connection-recovery: the conservation sum is
        #: meaningless between teardown and resync, so checks are paused
        #: (repro.recovery re-seeds the ledgers and lifts the suspension)
        self._suspended: Set[tuple] = set()
        # --- (b) send-buffer leases, per rank ---
        self._lease: Dict[int, int] = defaultdict(int)
        # --- (c) backlog shadows, keyed by (rank, peer) ---
        self._shadow: Dict[tuple, Deque[int]] = defaultdict(deque)
        self._dequeued: Set[int] = set()
        # --- (d) per-key sent / matched size sequences ---
        self._sent_seq: Dict[tuple, List[int]] = defaultdict(list)
        self._matched_seq: Dict[tuple, List[int]] = defaultdict(list)
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
        self._congestion = None  # the fabric's CongestionState, when armed
        self._xoff_open: Dict[tuple, int] = defaultdict(int)
        self.xoff_total = 0
        self.xon_total = 0
        # --- (g) RDMA ring-slot conservation, keyed by directed pair ---
        #: slots deposited but not yet copied out (in-flight + free +
        #: unreclaimed == ring size follows from the credit ledger; the
        #: occupancy count bounds the deposited share directly)
        self._ring_occupancy: Dict[tuple, int] = defaultdict(int)
        #: highest sequence number deposited / freed per pair (in-order
        #: arrival, FIFO reclamation)
        self._ring_last_deposited: Dict[tuple, int] = {}
        self._ring_last_freed: Dict[tuple, int] = {}
        #: total hook invocations (observability; overhead accounting)
        self.hook_calls = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    name = "audit"
    failures = ()  # a violation raises; the auditor loses no pair or rank

    def arm(self, cluster) -> None:
        """Subscribe to every endpoint of a launched cluster.  An auditor
        audits one job (like every subsystem object: what it observed
        stays that job's record), so it arms once."""
        if self._cluster is not None:
            raise RuntimeError("this Auditor already audited a job; build a fresh one")
        if not cluster.endpoints:
            raise RuntimeError("arm() needs a launched cluster")
        self._cluster = cluster
        self._sim = cluster.sim
        self._endpoints = list(cluster.endpoints)
        self._uses_credits = self._endpoints[0].scheme.uses_credits
        self._last_progress_ns = cluster.sim.now
        for ep in self._endpoints:
            ep._audit = self
        self._congestion = cluster.fabric.congestion
        if self._congestion is not None:
            self._congestion.audit = self
        cluster.auditor = self

    def disarm(self) -> None:
        """Undo :meth:`arm`: no endpoint, switch or cluster hook points here."""
        for ep in self._endpoints:
            ep._audit = None
        if self._congestion is not None:
            self._congestion.audit = None
        self._cluster.auditor = None

    def extend_grace(self, until_ns: int) -> None:
        """Fault windows (receiver stalls, link flaps) and recovery backoff
        windows legitimately suppress progress; the injector and the
        managers push the watchdog's tolerance past them."""
        if until_ns + self.quiet_bound_ns > self._fault_grace_until:
            self._fault_grace_until = until_ns + self.quiet_bound_ns

    def note_rank_dead(self, rank: int) -> None:
        """The failure detector declared ``rank`` dead: its connections'
        frozen state (unmatched sends, severed backlogs, flushed QPs) is
        permanent and must not read as pending work or a stuck pair."""
        self._dead.add(rank)

    # ------------------------------------------------------------------
    # recovery integration (repro.recovery)
    # ------------------------------------------------------------------
    def on_recovery_begin(self, a: int, b: int) -> None:
        """QP pair (a, b) is being torn down: conservation for both
        directions is indeterminate until the resync re-seeds it."""
        self.hook_calls += 1
        self._progress()
        self._suspended.add((a, b))
        self._suspended.add((b, a))

    def on_recovery_resync(
        self,
        s: int,
        r: int,
        consumed_unsent: int,
        inflight_paid: int,
        ungranted: int,
        inflight_credits: int,
    ) -> None:
        """The manager rebuilt ``s -> r`` credit state for the new epoch;
        seed the ledger to match and resume checking the direction."""
        self.hook_calls += 1
        key = (s, r)
        self._consumed_unsent[key] = consumed_unsent
        self._inflight_paid[key] = inflight_paid
        self._ungranted[key] = ungranted
        self._inflight_credits[key] = inflight_credits
        self._suspended.discard(key)
        if self._uses_credits:
            self._check_pair(s, r)

    def pending_swallow(self, s: int, r: int) -> int:
        """Outstanding decay-contraction debt for ``s -> r`` (the resync
        formula must mint that many fewer credits)."""
        return self._pending_swallow[(s, r)]

    # ------------------------------------------------------------------
    # violation plumbing
    # ------------------------------------------------------------------
    def _violate(self, invariant: str, detail: str,
                 pair: Optional[Tuple[int, int]] = None) -> None:
        v = InvariantViolation(invariant, detail, self._sim.now, pair)
        self.violations.append(v)
        if self.strict:
            raise v

    # ------------------------------------------------------------------
    # (a) the credit-conservation ledger
    # ------------------------------------------------------------------
    def _check_pair(self, s: int, r: int) -> None:
        """Audit the token pool governing ``s -> r`` paid traffic."""
        if (s, r) in self._suspended:
            return  # mid-recovery: resynced and re-checked at re-arm
        if s in self._dead or r in self._dead:
            return  # severed pair: tokens died with the rank
        conn_sr = self._endpoints[s].connections.get(r)
        conn_rs = self._endpoints[r].connections.get(s)
        if conn_sr is None or conn_rs is None:
            return  # on-demand connection not (fully) established yet
        key = (s, r)
        lhs = (
            conn_sr.credits
            + self._consumed_unsent[key]
            + self._inflight_paid[key]
            + self._ungranted[key]
            + conn_rs.pending_credit_return
            + self._inflight_credits[key]
        )
        rhs = conn_rs.prepost_target + self._pending_swallow[key]
        if lhs != rhs:
            self._violate(
                "credit-conservation",
                f"pool accounts for {lhs} credits, configured pool is {rhs} "
                f"(sender={conn_sr.credits} consumed_unsent="
                f"{self._consumed_unsent[key]} inflight_paid="
                f"{self._inflight_paid[key]} ungranted={self._ungranted[key]} "
                f"pending_return={conn_rs.pending_credit_return} "
                f"inflight_credits={self._inflight_credits[key]} "
                f"target={conn_rs.prepost_target} "
                f"swallow_debt={self._pending_swallow[key]})",
                pair=(s, r),
            )

    def check_all_pairs(self) -> None:
        if not self._uses_credits:
            return
        for ep in self._endpoints:
            for peer in ep.connections:
                self._check_pair(ep.rank, peer)

    # ------------------------------------------------------------------
    # hooks called from Endpoint (guarded: only when the auditor is on)
    # ------------------------------------------------------------------
    def on_consume(self, conn: "Connection") -> None:
        """A credit was consumed at the sender; its paid header may not be
        emitted until a vbuf is available (the isend yield gap)."""
        self.hook_calls += 1
        if not self._uses_credits:
            return
        key = (conn.endpoint.rank, conn.peer)
        self._consumed_unsent[key] += 1
        self._check_pair(*key)

    def on_emit(self, conn: "Connection", header: "Header",
                replay: bool = False) -> None:
        self.hook_calls += 1
        self._progress()
        e, p = conn.endpoint.rank, conn.peer
        # (b) send-buffer lease: all but a ring write hold one vbuf each
        if not header.via_ring:
            self._lease[e] += 1
            pool = conn.endpoint.pool
            if self._lease[e] != pool.in_use:
                self._violate(
                    "buffer-lease",
                    f"rank {e}: {self._lease[e]} leased send vbufs but the "
                    f"pool reports {pool.in_use} in use",
                )
        # (c) backlog FIFO / went_backlog bit — skipped for a recovery
        # replay: the header passed these checks at its first emission and
        # its backlog passage was consumed then
        if not replay:
            hid = id(header)
            if header.went_backlog:
                if hid in self._dequeued:
                    self._dequeued.discard(hid)
                elif not (header.kind is MsgKind.RNDV_RTS and not header.paid):
                    # the rendezvous fallback mints a fresh unpaid RTS for
                    # the dequeued message; anything else claiming the bit
                    # without passing through the backlog is lying to the
                    # receiver
                    self._violate(
                        "backlog-feedback-bit",
                        f"{e}->{p}: {header.kind.name} seq={header.seq} "
                        "carries went_backlog but never passed through the "
                        "backlog",
                        pair=(e, p),
                    )
            elif header.paid and self._shadow[(e, p)]:
                self._violate(
                    "backlog-fifo",
                    f"{e}->{p}: paid {header.kind.name} seq={header.seq} "
                    f"overtook {len(self._shadow[(e, p)])} backlogged send(s)",
                    pair=(e, p),
                )
        # (a) ledger movements
        if self._uses_credits:
            if header.paid:
                key = (e, p)
                self._consumed_unsent[key] -= 1
                if self._consumed_unsent[key] < 0:
                    self._violate(
                        "credit-conservation",
                        f"{e}->{p}: paid {header.kind.name} emitted without "
                        "a consumed credit",
                        pair=key,
                    )
                self._inflight_paid[key] += 1
                self._check_pair(*key)
            if header.credits:
                # credits granted by e for p->e traffic, riding back to p
                key = (p, e)
                self._inflight_credits[key] += header.credits
                self._check_pair(*key)

    def on_deliver(self, conn: "Connection", header: "Header") -> None:
        """A header from ``conn.peer`` was delivered at ``conn.endpoint``
        (called after any carried credits were folded into the scheme)."""
        self.hook_calls += 1
        self._progress()
        if not self._uses_credits:
            return
        r, s = conn.endpoint.rank, conn.peer
        if header.credits:
            key = (r, s)
            self._inflight_credits[key] -= header.credits
            if self._inflight_credits[key] < 0:
                self._violate(
                    "credit-conservation",
                    f"{s}->{r}: header delivered {header.credits} credits "
                    "that were never shipped",
                    pair=key,
                )
            self._check_pair(*key)
        if header.paid:
            key = (s, r)
            self._inflight_paid[key] -= 1
            if self._inflight_paid[key] < 0:
                self._violate(
                    "credit-conservation",
                    f"{s}->{r}: paid {header.kind.name} delivered but never "
                    "emitted as paid",
                    pair=key,
                )
            self._ungranted[key] += 1
            self._check_pair(*key)

    def on_grant(self, conn: "Connection", n: int) -> None:
        """``conn.endpoint`` granted ``n`` paid credits back to the peer
        (``pending_credit_return`` was just incremented by ``n``)."""
        self.hook_calls += 1
        self._progress()
        if not self._uses_credits or n == 0:
            return
        r, s = conn.endpoint.rank, conn.peer
        key = (s, r)
        self._ungranted[key] -= n
        if self._ungranted[key] < 0:
            self._violate(
                "credit-conservation",
                f"{s}->{r}: granted {n} credit(s) with only "
                f"{self._ungranted[key] + n} delivered-but-ungranted",
                pair=key,
            )
        self._check_pair(*key)

    def on_swallow(self, conn: "Connection") -> None:
        """A paid credit died at the receiver: the population is over-full
        after a decay contraction, so the grant is withheld forever."""
        self.hook_calls += 1
        if not self._uses_credits:
            return
        r, s = conn.endpoint.rank, conn.peer
        key = (s, r)
        self._ungranted[key] -= 1
        self._pending_swallow[key] -= 1
        if self._ungranted[key] < 0 or self._pending_swallow[key] < 0:
            self._violate(
                "credit-conservation",
                f"{s}->{r}: credit swallowed without decay debt "
                f"(ungranted={self._ungranted[key] + 1} "
                f"swallow_debt={self._pending_swallow[key] + 1})",
                pair=key,
            )
        self._check_pair(*key)

    def observe_recv_header(self, scheme, conn: "Connection",
                            header: "Header") -> int:
        """Wrap ``scheme.on_recv_header`` so target changes are audited:
        dynamic *growth* mints matching credits atomically (nothing to
        track), a decay *contraction* leaves excess credits circulating —
        they become swallow debt, repaid as they die at the receiver."""
        self.hook_calls += 1
        before = conn.prepost_target
        grown = scheme.on_recv_header(conn, header)
        after = conn.prepost_target
        if self._uses_credits:
            r, s = conn.endpoint.rank, conn.peer
            key = (s, r)
            if after < before:
                self._pending_swallow[key] += before - after
            self._check_pair(*key)
        return grown

    def on_post_recv(self, conn: "Connection") -> None:
        """A receive vbuf was posted (``recv_posted`` already incremented);
        the population must never exceed its budget (no double-post)."""
        self.hook_calls += 1
        ep = conn.endpoint
        if conn.ring is not None:
            budget = ep.config.rdma_control_bufs
        else:
            budget = conn.prepost_target + conn.headroom
        if conn.recv_posted > budget:
            self._violate(
                "buffer-lease",
                f"rank {ep.rank}: {conn.recv_posted} receive vbufs posted "
                f"toward {conn.peer}, budget is {budget} (double-post)",
                pair=(conn.peer, ep.rank),
            )

    def on_send_done(self, ep: "Endpoint") -> None:
        """An eager/ctl send completed and released its vbuf."""
        self.hook_calls += 1
        self._progress()
        rank = ep.rank
        self._lease[rank] -= 1
        if self._lease[rank] < 0:
            self._violate(
                "buffer-lease",
                f"rank {rank}: send vbuf released without a matching lease",
            )
        if self._lease[rank] != ep.pool.in_use:
            self._violate(
                "buffer-lease",
                f"rank {rank}: {self._lease[rank]} leased send vbufs but "
                f"the pool reports {ep.pool.in_use} in use",
            )

    def on_backlog_enqueue(self, conn: "Connection", header: "Header") -> None:
        self.hook_calls += 1
        self._shadow[(conn.endpoint.rank, conn.peer)].append(id(header))

    def on_backlog_dequeue(self, conn: "Connection", header: "Header",
                           reemitted: bool = True) -> None:
        """``reemitted`` is False when the dequeued header is abandoned in
        favour of a freshly minted one (the rendezvous fallback)."""
        self.hook_calls += 1
        key = (conn.endpoint.rank, conn.peer)
        shadow = self._shadow[key]
        if not shadow:
            self._violate(
                "backlog-fifo",
                f"{key[0]}->{key[1]}: dequeue from an empty shadow backlog",
                pair=key,
            )
            return
        head = shadow.popleft()
        if head != id(header):
            self._violate(
                "backlog-fifo",
                f"{key[0]}->{key[1]}: dequeued a send that was not the "
                "backlog head (FIFO order broken)",
                pair=key,
            )
        if reemitted:
            self._dequeued.add(id(header))

    # ------------------------------------------------------------------
    # (d) matching order / completeness
    # ------------------------------------------------------------------
    def on_app_send(self, src: int, dst: int, tag: int, context: int,
                    size: int) -> None:
        self.hook_calls += 1
        self._sent_seq[(src, dst, context, tag)].append(size)
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
        self._progress()
        key = (header.src, header.dst, header.context, header.tag)
        matched = self._matched_seq[key]
        matched.append(header.size)
        self._total_matched += 1
        sent = self._sent_seq[key]
        i = len(matched) - 1
        if i >= len(sent):
            self._violate(
                "matching-order",
                f"key (src={key[0]}, dst={key[1]}, ctx={key[2]}, "
                f"tag={key[3]}): matched {len(matched)} messages but only "
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
    # (f) switch-congestion hooks (repro.congestion; guarded the same
    # way as the endpoint hooks — only called when the auditor is on)
    # ------------------------------------------------------------------
    def on_xoff(self, port_key: tuple) -> None:
        """A port crossed its XOFF threshold and paused its feeders.
        Pause storms legitimately stall MPI progress, so this counts as
        progress for the watchdog."""
        self.hook_calls += 1
        self._progress()
        self._xoff_open[port_key] += 1
        self.xoff_total += 1

    def on_xon(self, port_key: tuple) -> None:
        self.hook_calls += 1
        self._progress()
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
        self.hook_calls += 1
        self._progress()
        key = (channel.peer, channel.endpoint.rank)
        self._ring_occupancy[key] += 1
        if self._ring_occupancy[key] > channel.ring.slots:
            self._violate(
                "ring-slot-conservation",
                f"{key[0]}->{key[1]}: {self._ring_occupancy[key]} slots "
                f"occupied in a {channel.ring.slots}-slot ring (an "
                "unreclaimed slot was overwritten)",
                pair=key,
            )
        self._ring_in_order(self._ring_last_deposited, key, header.seq,
                            "ring-deposit-order", "deposited")

    def on_ring_free(self, channel, header: "Header") -> None:
        """The receiver copied ``header`` out of its slot.  Rings free in
        order ([13]: messages drain by sequence number), so freed
        sequence numbers must be strictly increasing per pair."""
        self.hook_calls += 1
        self._progress()
        key = (channel.peer, channel.endpoint.rank)
        self._ring_occupancy[key] -= 1
        if self._ring_occupancy[key] < 0:
            self._violate(
                "ring-slot-conservation",
                f"{key[0]}->{key[1]}: slot freed with none occupied",
                pair=key,
            )
        self._ring_in_order(self._ring_last_freed, key, header.seq,
                            "ring-slot-fifo", "freed")

    def _ring_in_order(self, last: Dict[tuple, int], key: tuple, seq: int,
                       invariant: str, verb: str) -> None:
        """Sequence numbers pass a ring event strictly increasing per pair."""
        prev = last.get(key)
        if prev is not None and seq <= prev:
            self._violate(
                invariant,
                f"{key[0]}->{key[1]}: ring slot for seq={seq} {verb} after "
                f"seq={prev}",
                pair=key,
            )
        last[key] = seq

    # ------------------------------------------------------------------
    # (e) progress watchdog
    # ------------------------------------------------------------------
    def _progress(self) -> None:
        self._last_progress_ns = self._sim.now

    def _work_pending(self) -> bool:
        dead = self._dead
        if not dead:
            if self._total_sent > self._total_matched:
                return True
        else:
            # Messages to/from a dead rank legally never match; the cheap
            # totals comparison would read them as pending work forever.
            for key, sent in self._sent_seq.items():
                if key[0] in dead or key[1] in dead:
                    continue
                if len(sent) > len(self._matched_seq.get(key, ())):
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
        rec = self._endpoints[0]._recovery if self._endpoints else None
        if rec is not None and rec._active:
            # a connection-recovery backoff window is open: the stall is
            # the policy's own schedule, not a deadlock — keep waiting
            self._last_progress_ns = now
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
    def final_check(self, expect_quiescent: bool = True) -> None:
        """Full sweep after a run.  Conservation and lease balance must
        hold at any agenda drain; completeness, pool-fullness and the
        receive-population reconciliation additionally require the job to
        have finalized (``expect_quiescent``)."""
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
        cong = self._congestion
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
        for key, sent in self._sent_seq.items():
            if key[0] in dead or key[1] in dead:
                continue  # traffic to/from a dead rank legally unmatched
            matched = self._matched_seq.get(key, [])
            if matched != sent:
                self._violate(
                    "matching-completeness",
                    f"key (src={key[0]}, dst={key[1]}, ctx={key[2]}, "
                    f"tag={key[3]}): {len(sent)} sent, {len(matched)} "
                    f"matched",
                    pair=(key[0], key[1]),
                )
        # Control traffic that arrived *after* its destination finalized
        # parks in a posted vbuf with its completion unpolled — the
        # carried credits die there legitimately (the rank is done), so
        # reconcile the in-flight stores against those parked arrivals.
        parked_credits: Dict[tuple, int] = defaultdict(int)
        parked_paid: Dict[tuple, int] = defaultdict(int)
        for ep in self._endpoints:
            for wc in ep.cq._entries:
                h = wc.data if wc.is_recv else None
                if h is None or not hasattr(h, "went_backlog"):
                    continue  # not an MPI header
                if h.credits:
                    parked_credits[(ep.rank, h.src)] += h.credits
                if h.paid:
                    parked_paid[(h.src, ep.rank)] += 1
        for store, parked, what in (
            (self._consumed_unsent, {}, "consumed-but-unsent credits"),
            (self._inflight_paid, parked_paid, "in-flight paid messages"),
            (self._inflight_credits, parked_credits,
             "in-flight returning credits"),
        ):
            for key, n in store.items():
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
            if pool.waiting:
                self._violate(
                    "buffer-lease",
                    f"rank {ep.rank}: {pool.waiting} sender(s) still "
                    "parked on the vbuf pool",
                )
            # Receive-population reconciliation: every posted vbuf is
            # either a live WQE or an arrival still unpolled in the CQ.
            unpolled: Dict[int, int] = {}
            for wc in ep.cq._entries:
                if wc.is_recv:
                    unpolled[wc.qp_num] = unpolled.get(wc.qp_num, 0) + 1
            for conn in ep.connections.values():
                if conn.peer in dead:
                    continue  # severed: shadow/population frozen mid-flight
                if conn.backlog or self._shadow[(ep.rank, conn.peer)]:
                    self._violate(
                        "backlog-fifo",
                        f"rank {ep.rank}: backlog toward {conn.peer} not "
                        "drained at quiescence",
                        pair=(ep.rank, conn.peer),
                    )
                if conn.ring is not None:
                    # Ring slots, not WQEs, back the credits — and at
                    # quiescence every deposited slot must have been
                    # reclaimed (copy-out frees in order, matching
                    # completeness already forced every eager through).
                    occ = self._ring_occupancy[(conn.peer, ep.rank)]
                    if occ:
                        self._violate(
                            "ring-slot-leak",
                            f"rank {ep.rank}: {occ} ring slot(s) from "
                            f"{conn.peer} deposited but never reclaimed "
                            "at quiescence",
                            pair=(conn.peer, ep.rank),
                        )
                    continue
                accounted = (conn.qp.posted_recvs
                             + unpolled.get(conn.qp.qp_num, 0))
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
            "violations": [
                {
                    "invariant": v.invariant,
                    "pair": list(v.pair) if v.pair else None,
                    "time_ns": v.time_ns,
                    "detail": v.detail,
                }
                for v in self.violations
            ],
            "hook_calls": self.hook_calls,
            "messages_sent": self._total_sent,
            "messages_matched": self._total_matched,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Auditor hooks={self.hook_calls} "
                f"violations={len(self.violations)}>")
