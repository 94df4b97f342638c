"""Core InfiniBand types, enums and the hardware timing configuration.

The constants model a Mellanox InfiniHost MT23108 4X HCA on a PCI-X
64-bit/133 MHz bus behind an InfiniScale MT43132 switch — the paper's
testbed.  All timing knobs live in :class:`IBConfig` so the calibration
tests and ablation benches can sweep them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.sim.units import gbps_to_bytes_per_ns, us


class Opcode(enum.Enum):
    """Transport operations a work request can carry."""

    SEND = "send"
    RDMA_WRITE = "rdma_write"


class WCStatus(enum.Enum):
    """Completion status codes (subset of the IBA verbs set)."""

    SUCCESS = "success"
    LOCAL_LENGTH_ERROR = "local_length_error"
    LOCAL_PROTECTION_ERROR = "local_protection_error"
    REMOTE_ACCESS_ERROR = "remote_access_error"
    RNR_RETRY_EXCEEDED = "rnr_retry_exceeded"
    RETRY_EXCEEDED = "retry_exceeded"  # transport (ACK-timeout) retries spent
    WR_FLUSH_ERROR = "wr_flush_error"


class QPState(enum.Enum):
    """Simplified queue-pair state machine: RESET→RTS is one step
    (``QueuePair.connect``), and a QP in ERROR is replaced, never reset."""

    RESET = "reset"
    READY = "ready"  # RTR+RTS combined
    ERROR = "error"


class LinkRate(enum.Enum):
    """IBA link signalling rates (Gbit/s, 8b/10b encoded)."""

    X1 = 2.5
    X4 = 10.0
    X12 = 30.0

    @property
    def bytes_per_ns(self) -> float:
        # table lookup: this sits on the fabric's per-message path
        return _LINK_BYTES_PER_NS[self]


_LINK_BYTES_PER_NS = {rate: gbps_to_bytes_per_ns(rate.value) for rate in LinkRate}

#: Sentinel meaning "retry forever" for RNR retries (what the paper's MPI
#: sets to guarantee reliability under the hardware-based scheme).
INFINITE_RETRY = -1


@dataclass(slots=True)
class IBConfig:
    """Hardware timing model.  Defaults are calibrated so that the simulated
    testbed reproduces the paper's ~7.5 µs small-message MPI latency and
    ~860 MB/s peak bandwidth (see ``tests/test_calibration.py``).

    Attributes
    ----------
    link_rate:
        Host and switch link rate.  4X (10 Gbit/s signalling → 1 byte/ns
        payload) matches the testbed.
    mtu_bytes:
        Path MTU.  Messages are segmented into MTU packets for wire-byte
        accounting (per-packet headers), though the simulator moves whole
        messages per event.
    rnr_timer_ns:
        Receiver-not-ready retry delay.  The IBA encodes discrete values
        from 10 µs to 655 ms; InfiniHost-era MPI setups sat near the low
        end.  This knob single-handedly decides how badly the
        hardware-based scheme collapses when receivers are starved
        (ablated in ``benchmarks/test_ablation_rnr_timer.py``).
    rnr_retry_count:
        Number of RNR retries before the QP errors out;
        :data:`INFINITE_RETRY` retries forever.
    rnr_backoff_factor:
        Multiplier applied to ``rnr_timer_ns`` on every *consecutive* RNR
        NAK for the same message (1.0 = the IBA's fixed timer).  Values
        above 1.0 turn the fixed wait into exponential backoff, trading
        recovery latency for retransmission-storm suppression — the knob
        ``benchmarks/test_ablation_rnr_timer.py`` re-examines the paper's
        RNR-timer sensitivity claim under.
    rnr_backoff_max_ns:
        Ceiling for the backed-off wait (IBA's encodable maximum is
        655 ms; the default cap is far below that so backoff stays inside
        benchmark timescales).
    """

    # --- wire ---------------------------------------------------------
    link_rate: LinkRate = LinkRate.X4
    link_prop_ns: int = 100
    switch_delay_ns: int = 200
    mtu_bytes: int = 1024
    pkt_header_bytes: int = 40  # LRH + BTH + iCRC/vCRC
    ack_bytes: int = 30

    # --- host interface (PCI-X 64/133: ~1064 MB/s raw, ~0.9 effective) --
    pci_bytes_per_ns: float = 0.9
    dma_startup_ns: int = 350

    # --- HCA engines ---------------------------------------------------
    hca_send_wqe_ns: int = 2700  # doorbell + WQE fetch + processing
    hca_recv_wqe_ns: int = 2500  # WQE consume + CQE generation
    hca_rdma_rx_ns: int = 1500  # inbound RDMA write: DMA placement only
    loopback_ns: int = 250  # same-HCA QP-to-QP path (two ranks per node)

    # --- reliability ---------------------------------------------------
    rnr_timer_ns: int = us(320)
    rnr_retry_count: int = INFINITE_RETRY
    rnr_backoff_factor: float = 1.0
    rnr_backoff_max_ns: int = us(10_000)
    max_inflight_msgs: int = 128  # requester pipelining window per QP

    # --- memory registration (pin-down) --------------------------------
    page_bytes: int = 4096
    reg_base_ns: int = us(25)
    reg_per_page_ns: int = 400
    dereg_base_ns: int = us(15)

    # --- queues ---------------------------------------------------------
    sq_depth: int = 512
    rq_depth: int = 4096
    cq_depth: int = 65536

    # --- switch congestion (repro.congestion) ---------------------------
    #: Optional :class:`repro.congestion.CongestionConfig`.  When set, the
    #: cluster builder installs per-egress-port queue models (finite
    #: buffers, PFC pause frames, ECN/DCQCN rate control) on the fabric;
    #: ``None`` keeps the baseline straight-line path model bit-identical.
    congestion: "object | None" = None

    def wire_bytes(self, payload_bytes: int) -> int:
        """Payload size → on-the-wire size including per-MTU-packet headers.

        A zero-length message (pure header, e.g. a credit probe) still costs
        one packet header.  The fabric caches the resulting serialisation
        time per size, so this runs once per size and path.
        """
        if payload_bytes <= 0:
            return self.pkt_header_bytes
        packets = -(-payload_bytes // self.mtu_bytes)
        return payload_bytes + packets * self.pkt_header_bytes

    def effective_bytes_per_ns(self) -> float:
        """The injection bottleneck: min(host bus, link)."""
        return min(self.pci_bytes_per_ns, self.link_rate.bytes_per_ns)

    def registration_ns(self, nbytes: int) -> int:
        """Cost of pinning + registering ``nbytes`` (charged to the caller's
        CPU, as the verbs call is synchronous)."""
        pages = max(1, -(-nbytes // self.page_bytes))
        return self.reg_base_ns + pages * self.reg_per_page_ns

    def deregistration_ns(self, nbytes: int) -> int:
        pages = max(1, -(-nbytes // self.page_bytes))
        return self.dereg_base_ns + pages * (self.reg_per_page_ns // 4)
