"""Configuration for the switch congestion subsystem.

The knobs mirror the RoCEv2 congestion-management stack ("Implementation
of PFC and RCM for RoCEv2 Simulation in OMNeT++", PAPERS.md):

* a **finite egress buffer** per switch output port, drained at link rate;
* **PFC** — when a port's queue crosses ``xoff_bytes`` it sends pause
  frames upstream; the paused feeders stop serving (at message
  boundaries) until the queue drains below ``xon_bytes`` and resume
  frames are sent.  The XON threshold sits below XOFF (hysteresis) and
  the headroom ``buffer_bytes - xoff_bytes`` absorbs the data already in
  flight when the pause lands, keeping the fabric lossless in practice;
* **ECN/DCQCN** — admissions that find the queue at or above
  ``ecn_mark_bytes`` are marked; the destination echoes a CNP to the
  sender, which cuts the flow's injection rate multiplicatively and
  recovers it additively on a timer.

A :class:`CongestionConfig` instance on ``IBConfig.congestion`` arms the
subsystem; ``None`` (the default) keeps the fabric's straight-line path
model and is bit-identity inert (one attribute check per transmit).
With both ``pfc`` and ``ecn`` False the egress queues still apply —
that is the tail-drop baseline (drops are recovered by the transport
ACK-timeout retry, which the first drop arms on the affected QP).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.units import us

#: Requester ACK-timeout armed on a QP when one of its messages is
#: tail-dropped — far above any queueing delay congestion produces; the
#: fault plans' default 200 us would fire spuriously while messages sit
#: in paused switch queues.
DROP_RETRY_TIMEOUT_NS = us(20_000)


@dataclass(slots=True)
class CongestionConfig:
    """Per-egress-port queue model + PFC/ECN knobs.

    Attributes
    ----------
    pfc:
        Generate XOFF/XON pause frames at the thresholds below.
    ecn:
        Mark admissions above ``ecn_mark_bytes`` and run the DCQCN-style
        per-flow rate limiter at the senders.
    buffer_bytes:
        Egress buffer per switch output port.  Admissions that would
        exceed it are tail-dropped (host injection ports are unbounded —
        the host can always buffer — so they never drop and never
        generate XOFF, but they *can be paused*, which is what gates
        injection).
    xoff_bytes / xon_bytes:
        PFC thresholds (XON < XOFF for hysteresis; XOFF <= buffer so
        the post-pause headroom keeps the port lossless).
    pause_frame_ns:
        Propagation of a pause/resume frame one hop upstream.
    ecn_mark_bytes:
        Queue depth at/above which an admission is CE-marked.
    cnp_ns:
        Latency from marked-delivery to the CNP reaching the sender.
    cnp_interval_ns:
        CNP coalescing: rate cuts for one flow at most once per interval.
    rate_decrease_factor:
        Multiplicative decrease per (non-coalesced) CNP: ``rate *= f``.
    rate_recover_step / rate_recover_ns:
        Additive recovery: every ``rate_recover_ns`` without a cut,
        ``rate += step`` until the flow is back at line rate.
    min_rate:
        Floor for the per-flow rate fraction.
    """

    pfc: bool = True
    ecn: bool = False
    buffer_bytes: int = 64 * 1024
    xoff_bytes: int = 16 * 1024
    xon_bytes: int = 8 * 1024
    pause_frame_ns: int = 300
    ecn_mark_bytes: int = 8 * 1024
    cnp_ns: int = 600
    cnp_interval_ns: int = us(10)
    rate_decrease_factor: float = 0.5
    rate_recover_step: float = 0.125
    rate_recover_ns: int = us(50)
    min_rate: float = 0.05

    @property
    def mode(self) -> str:
        """The name :func:`make_congestion_config` knows this switch model
        by (``"tail-drop"``: finite queues with neither mechanism on)."""
        if self.pfc:
            return "both" if self.ecn else "pfc"
        return "ecn" if self.ecn else "tail-drop"

    def __post_init__(self) -> None:
        if self.buffer_bytes < 1:
            raise ValueError("buffer_bytes must be positive")
        if self.pfc:
            if not (0 < self.xon_bytes < self.xoff_bytes <= self.buffer_bytes):
                raise ValueError(
                    "PFC thresholds need 0 < xon < xoff <= buffer "
                    f"(got xon={self.xon_bytes} xoff={self.xoff_bytes} "
                    f"buffer={self.buffer_bytes})"
                )
        if self.ecn:
            if self.ecn_mark_bytes < 1:
                raise ValueError("ecn_mark_bytes must be positive")
            if not (0.0 < self.rate_decrease_factor < 1.0):
                raise ValueError("rate_decrease_factor must be in (0, 1)")
            if not (0.0 < self.min_rate <= 1.0):
                raise ValueError("min_rate must be in (0, 1]")
            if self.rate_recover_step <= 0.0:
                raise ValueError("rate_recover_step must be positive")
            if self.rate_recover_ns < 1 or self.cnp_interval_ns < 0:
                raise ValueError("recovery/coalescing intervals must be >= 0")


def make_congestion_config(mode: str) -> CongestionConfig:
    """The canonical per-mode presets used by the chaos scenarios and
    ``repro chaos --congestion`` (see EXPERIMENTS.md).

    * ``"pfc"`` — lossless pause-frame backpressure: generous headroom
      above XOFF so nothing is dropped, HoL blocking emerges;
    * ``"ecn"`` — rate moderation only: a large (physically lossless
      for the scenario scale) buffer with an aggressive mark threshold;
    * ``"both"`` — PFC thresholds plus ECN marking, the RoCEv2 stack.
    """
    if mode == "pfc":
        return CongestionConfig(pfc=True, ecn=False)
    if mode == "ecn":
        return CongestionConfig(
            pfc=False, ecn=True, buffer_bytes=512 * 1024, ecn_mark_bytes=8 * 1024
        )
    if mode == "both":
        return CongestionConfig(pfc=True, ecn=True)
    raise ValueError(f"unknown congestion mode {mode!r} (know pfc, ecn, both)")
