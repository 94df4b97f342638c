"""User-level static flow control (paper §4.2).

Credit-based: at init, ``requested_prepost`` vbufs are posted per
connection and the sender starts with the same number of credits.  Each
unexpected message (eager data, rendezvous start) consumes a credit; at
zero credits sends divert to the FIFO backlog queue.  Credits return by:

* **piggybacking** — every outgoing message carries the accumulated
  return-credits (free when the pattern is symmetric);
* **explicit credit messages (ECMs)** — when at least ``ecm_threshold``
  credits have piled up with no outbound message to carry them (the
  asymmetric case; LU is the paper's poster child, Table 1).

Deadlock avoidance is *optimistic* (the paper's contribution over MVICH):
ECMs are never subject to user-level flow control — they are posted
directly, backstopped by the hardware's RNR retry.  Since credit messages
can always flow, the credit cycle cannot wedge.

When credits run out entirely, the head of the backlog may be pushed
through the rendezvous protocol (its RTS sent optimistically); the
handshake's reply piggybacks fresh credits, which speeds up backlog
processing (paper §4.2, observed as "blocking beats non-blocking" in
Figures 5–6).
"""

from __future__ import annotations

from repro.core.base import FlowControlScheme, SchemeName

#: The paper: "we use a relatively small threshold value of 5".
DEFAULT_ECM_THRESHOLD = 5


class StaticScheme(FlowControlScheme):
    """Fixed per-connection credit budget decided at init time."""

    name = SchemeName.STATIC
    uses_credits = True

    def __init__(self, ecm_threshold: int = DEFAULT_ECM_THRESHOLD):
        if ecm_threshold < 1:
            raise ValueError("ecm_threshold must be >= 1")
        #: below it credits are never shipped explicitly (the paper's
        #: suppression rule; :func:`repro.core.credit.grant`)
        self.ecm_threshold = ecm_threshold
