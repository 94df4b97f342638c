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
``benchmarks/test_ablation_growth.py``.  Both run in
:func:`repro.core.credit.grow`; this class holds their parameters.
"""

from __future__ import annotations

from repro.core.base import SchemeName
from repro.core.static import DEFAULT_ECM_THRESHOLD, StaticScheme


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
