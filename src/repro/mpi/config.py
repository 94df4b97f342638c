"""MPI-layer (software) configuration.

Splits cleanly from :class:`repro.ib.types.IBConfig`: everything here is a
property of the MPI implementation (MVAPICH-style ADI2 device), not of the
hardware.  The two are composed by
:class:`repro.cluster.config.TestbedConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class MPIConfig:
    """Software timing and protocol-shape knobs.

    Attributes
    ----------
    vbuf_bytes:
        Size of each pre-pinned communication buffer ("vbuf" in MVAPICH
        parlance).  The paper: *"In all implementations, the size of each
        pre-posted buffer is 2 KBytes."*
    header_bytes:
        Protocol header carried in every vbuf; the eager payload limit is
        ``vbuf_bytes - header_bytes``.
    send_pool_buffers:
        Shared send-side pool of pre-pinned vbufs (eager copies and control
        messages).  Senders block in progress when it runs dry.
    call_overhead_ns:
        Fixed software cost of entering an MPI point-to-point call
        (argument checking, request setup, tag-match attempt).
    post_overhead_ns:
        Cost of building a descriptor and ringing the doorbell.
    poll_overhead_ns:
        Cost of one CQ poll + completion dispatch in the progress engine.
    header_proc_ns:
        Cost of parsing a protocol header / updating credit state.
    memcpy_bytes_per_ns:
        Host memcpy bandwidth for the two eager copies (user buffer ↔
        vbuf); ~2 GB/s for the testbed's Xeons.
    """

    vbuf_bytes: int = 2048
    header_bytes: int = 64
    send_pool_buffers: int = 1024
    call_overhead_ns: int = 550
    post_overhead_ns: int = 400
    poll_overhead_ns: int = 250
    header_proc_ns: int = 150
    memcpy_bytes_per_ns: float = 2.0

    # --- RDMA-based eager channel (the companion design, [13]); in use
    # iff the flow-control scheme owns a ring (``rdma-eager``) -----------
    #: receiver-side cost of discovering + dispatching one ring arrival
    #: (memory-poll flag check; cheaper than CQE processing, which is
    #: where the 6.8 us vs 7.5 us latency gap comes from)
    rdma_poll_ns: int = 700
    #: control-message vbufs posted per ring connection (RTS/CTS/FIN/ECM
    #: still use send/recv; they are optimistic traffic)
    rdma_control_bufs: int = 8

    def eager_max(self) -> int:
        """Largest payload that fits an eager vbuf."""
        return self.vbuf_bytes - self.header_bytes

    def copy_ns(self, nbytes: int) -> int:
        """Duration of one host memcpy of ``nbytes``."""
        if nbytes <= 0:
            return 0
        return max(1, int(round(nbytes / self.memcpy_bytes_per_ns)))
