"""Hardware-based flow control (paper §4.1).

No flow control at the MPI level: every outgoing message is submitted to
the send queue immediately.  If the receiver has no posted vbuf, the HCA
drops the message and returns an RNR NAK; the sender HCA waits out the RNR
timer and retransmits.  The MPI layer sets the retry count to infinite so
reliability is preserved (``IBConfig.rnr_retry_count = INFINITE_RETRY``).

Pros (reproduced by the benches): zero bookkeeping overhead under normal
conditions and full application bypass.  Cons: no feedback to the MPI
layer, so the pre-post depth can never adapt — at pre-post = 1 the NAS LU
and MG proxies collapse under timeout-and-retransmit storms (Figure 10).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.base import FlowControlScheme, SchemeName

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.connection import Connection


class HardwareScheme(FlowControlScheme):
    """Let InfiniBand's end-to-end flow control do all the work.

    Parameters
    ----------
    arm_e2e_gate:
        Arm the requester's IBA end-to-end credit gate (advertised-credit
        pacing in ACKs).  This is what real InfiniHost hardware does: a
        sender that knows the responder is out of receive WQEs keeps a
        single probe outstanding instead of blasting the window.  The probe
        still RNR-NAKs and waits out the retry timer when the receiver is
        busy — which is exactly the "large number of time-out and
        re-transmission" collapse the paper measures for LU/MG at
        pre-post = 1 (Figure 10) — but bulk NAK storms on attentive
        receivers are damped.  Default **off**: with RNR evaluated at the
        receive engine (input buffering absorbs wire bursts), an attentive
        receiver never NAKs anyway, and the paper's Figure-10 MG/LU
        collapse implies the testbed's recovery from genuine starvation
        was timer-driven.  Arming the gate is ablated in
        ``benchmarks/test_ablation_rnr_timer.py``.
    """

    name = SchemeName.HARDWARE
    uses_credits = False
    optimistic_headroom = 0  # no optimistic traffic, no extra machinery

    def __init__(self, arm_e2e_gate: bool = False):
        self.arm_e2e_gate = arm_e2e_gate

    def setup_connection(self, conn: "Connection", requested_prepost: int) -> None:
        conn.prepost_target = requested_prepost  # headroom: 0, as built
        if self.arm_e2e_gate:
            conn.qp.set_initial_credit_estimate(requested_prepost)
