"""User-level dynamic flow control (paper §4.3) — the headline scheme.

Same credit machinery as the static scheme, but each connection starts
with a *small* number of pre-posted vbufs and grows it on demand via a
feedback loop:

1. every message carries a *went-through-backlog* bit, set when the send
   had to wait for credits at the sender;
2. a receiver seeing the bit concludes the sender is starved and raises
   ``prepost_target`` for that connection.  The default policy is
   *doubling* with a growth rate limit: the paper's prose says "linear
   increasing is used", but its own Table 2 reports LU converging to
   exactly 63 = 2^6 - 1 posted buffers — a doubling signature (1 → 2 → 4
   → ... → 64) that linear steps cannot reproduce together with the
   single-digit footprints of the other kernels.  Linear policies are
   available and ablated in ``benchmarks/test_ablation_growth.py``;
3. the freshly posted buffers become new credits, shipped to the sender by
   the usual piggyback/ECM paths.

The paper only implements *increase* ("Currently we only allow increasing
the number of buffers"); an optional decay is provided as the paper's
stated future-work extension (``decay_enabled``), default off, exercised by
``benchmarks/test_ablation_growth.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.base import SchemeName
from repro.core.static import DEFAULT_ECM_THRESHOLD, StaticScheme

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.connection import Connection
    from repro.mpi.protocol import Header


class DynamicScheme(StaticScheme):
    """Feedback-driven buffer growth on top of static credits."""

    name = SchemeName.DYNAMIC

    def __init__(
        self,
        ecm_threshold: int = DEFAULT_ECM_THRESHOLD,
        growth_step: int = 2,
        exponential: bool = True,
        max_prepost: int = 512,
        rate_limited: bool = True,
        decay_enabled: bool = False,
        decay_idle_messages: int = 512,
    ):
        super().__init__(ecm_threshold)
        if growth_step < 1:
            raise ValueError("growth_step must be >= 1")
        if max_prepost < 1:
            raise ValueError("max_prepost must be >= 1")
        self.growth_step = growth_step
        self.exponential = exponential
        self.max_prepost = max_prepost
        #: When True (default), growth triggered by one stale burst of
        #: flagged messages is rate-limited: after each increase, feedback
        #: bits on roughly one credit-budget's worth of sequence numbers
        #: are ignored (those messages were backlogged before the sender
        #: could have learned of the new credits).  Without it, naive
        #: grow-on-every-flag overshoots the true queue depth badly on
        #: bursty patterns (ablated in benchmarks/test_ablation_growth.py).
        self.rate_limited = rate_limited
        self.decay_enabled = decay_enabled
        self.decay_idle_messages = decay_idle_messages

    # ------------------------------------------------------------------
    # the feedback loop
    # ------------------------------------------------------------------
    def on_recv_header(self, conn: "Connection", header: "Header") -> int:
        grown = 0
        if (
            header.went_backlog
            and conn.prepost_target < self.max_prepost
            and (not self.rate_limited or header.seq > conn._grow_barrier_seq)
        ):
            if self.exponential:
                new_target = min(self.max_prepost, max(conn.prepost_target * 2, 1))
            else:
                new_target = min(
                    self.max_prepost, conn.prepost_target + self.growth_step
                )
            delta = new_target - conn.prepost_target
            if delta > 0:
                conn.set_prepost_target(new_target)
                grown = conn.refill_recv_buffers()
                # The new buffers are new credits for the sender.
                conn.pending_credit_return += delta
                conn._decay_quiet_msgs = 0
                # Rate limit: messages flagged before the sender could have
                # learned about this growth must not compound it.  Skip
                # roughly one credit-budget's worth of sequence numbers.
                conn._grow_barrier_seq = header.seq + new_target
        elif self.decay_enabled:
            grown = self._maybe_decay(conn, header)
        return grown

    def _maybe_decay(self, conn: "Connection", header: "Header") -> int:
        """Future-work extension: shrink after a long quiet streak.

        A streak of ``decay_idle_messages`` non-backlogged messages halves
        the target (never below 1).  Only the *target* moves; the posted
        population contracts naturally because the receiver stops
        re-posting (and stops granting the matching credits) once
        ``recv_posted`` exceeds the target — credit conservation holds
        throughout (see ``tests/test_fc_invariants.py``).
        """
        conn._decay_quiet_msgs += 1
        if conn._decay_quiet_msgs < self.decay_idle_messages:
            return 0
        conn._decay_quiet_msgs = 0
        new_target = max(1, conn.prepost_target // 2)
        if new_target < conn.prepost_target:
            conn.prepost_target = new_target  # bypass max-tracking setter
        return 0
