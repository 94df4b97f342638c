"""Per-scheme memory-footprint accounting — the Table 2 story at scale.

The paper's entire case for the dynamic scheme is pinned-buffer memory on
"clusters in the order of 1,000 to 10,000 nodes": with P processes a full
mesh holds P-1 connections per process, and every connection pins
``prepost`` receive vbufs whether or not the pair ever communicates.
Table 2 reports the per-connection buffer high-water under the dynamic
scheme; this module generalizes that to a full memory model so the
scaling sweeps can plot *bytes* against rank count:

* **pinned recv vbufs** — ``(max_prepost + headroom) * vbuf_bytes`` per
  connection (the high-water population the rank had to keep registered;
  in RDMA-channel mode the ring slots plus the fixed control-vbuf budget
  instead);
* **QP descriptor state** — queue-pair context plus send/recv WQE arrays
  in HCA-attached memory, per connection;
* **CQ descriptor state** — one CQE array per endpoint (the paper's MPI
  binds every QP to one CQ per process);
* **send pool** — the per-endpoint shared pool of pre-pinned send vbufs.

Everything is derived from a finished job's endpoints — the same source
:func:`repro.core.stats.collect_report` reads — plus the closed forms
(:func:`predicted_connection_bytes`, :func:`mesh_pinned_bytes`) the
conservation tests check the simulated meshes against.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, Tuple

from repro.core.stats import weighted_connections

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.config import TestbedConfig
    from repro.mpi.connection import Connection
    from repro.mpi.endpoint import Endpoint

#: Queue-pair context bytes (InfiniHost-era QPC + address vector state).
QPC_BYTES = 256
#: One work-queue element (send or receive descriptor slot).
WQE_BYTES = 64
#: One completion-queue element.
CQE_BYTES = 32


@dataclass
class MemoryReport:
    """Job-wide memory footprint, all quantities in bytes."""

    connections: int
    #: high-water pinned receive-vbuf bytes across all connections — the
    #: paper's scalability quantity (Table 2 times vbuf size)
    vbuf_pinned_bytes: int
    #: receive-vbuf bytes still posted when the job ended
    vbuf_posted_bytes: int
    #: QP context + WQE arrays across all connections
    qp_bytes: int
    #: CQE arrays across all endpoints
    cq_bytes: int
    #: RDMA eager-ring slots across all connections (0 unless the
    #: RDMA channel is enabled)
    ring_bytes: int
    #: shared send-pool vbufs across all endpoints
    send_pool_bytes: int
    #: everything above, summed
    total_bytes: int
    #: the single hungriest rank's footprint (pinned + QP + CQ + pool)
    per_rank_peak_bytes: int

    @property
    def total_mb(self) -> float:
        return self.total_bytes / (1024.0 * 1024.0)

    @property
    def pinned_mb(self) -> float:
        return self.vbuf_pinned_bytes / (1024.0 * 1024.0)

    def to_dict(self) -> Dict[str, Any]:
        d = asdict(self)
        d["pinned_mb"] = self.pinned_mb
        d["total_mb"] = self.total_mb
        return d


def qp_state_bytes(ib: Any) -> int:
    """Descriptor memory one RC queue pair owns: context plus its send
    and receive WQE arrays (sized at creation, pinned for the QP's
    lifetime)."""
    return QPC_BYTES + (ib.sq_depth + ib.rq_depth) * WQE_BYTES


def connection_memory_bytes(conn: "Connection", mpi: Any, ib: Any) -> Tuple[int, int, int, int]:
    """One connection's ``(pinned, posted, qp, ring)`` byte counts.

    ``pinned`` is the high-water receive budget — ``max_prepost +
    headroom`` vbufs (what the rank had to keep registered; the fixed
    control reserve in RDMA-channel mode, where credits govern ring slots
    rather than WQEs).
    """
    ch = conn.ring
    ring = 0 if ch is None else (ch.tx_slots + ch.ring.slots) * mpi.vbuf_bytes
    pinned = (conn.stats.max_prepost + conn.headroom) * mpi.vbuf_bytes
    posted = conn.recv_posted * mpi.vbuf_bytes
    return pinned, posted, qp_state_bytes(ib), ring


def collect_memory_report(endpoints: Iterable["Endpoint"],
                          config: "TestbedConfig") -> MemoryReport:
    """Aggregate every endpoint's connections into one report (visiting
    the wired ones: :func:`repro.core.stats.weighted_connections`)."""
    mpi, ib = config.mpi, config.ib
    connections = 0
    pinned = posted = qp = ring = cq = pool = 0
    per_rank_peak = 0
    for ep in endpoints:
        rank_bytes = ib.cq_depth * CQE_BYTES
        rank_bytes += mpi.send_pool_buffers * mpi.vbuf_bytes
        cq += ib.cq_depth * CQE_BYTES
        pool += mpi.send_pool_buffers * mpi.vbuf_bytes
        for conn, n in weighted_connections(ep):
            connections += n
            p, po, q, rg = connection_memory_bytes(conn, mpi, ib)
            pinned += n * p
            posted += n * po
            qp += n * q
            ring += n * rg
            rank_bytes += n * (p + q + rg)
        if rank_bytes > per_rank_peak:
            per_rank_peak = rank_bytes
    return MemoryReport(
        connections=connections,
        vbuf_pinned_bytes=pinned,
        vbuf_posted_bytes=posted,
        qp_bytes=qp,
        cq_bytes=cq,
        ring_bytes=ring,
        send_pool_bytes=pool,
        total_bytes=pinned + qp + cq + ring + pool,
        per_rank_peak_bytes=per_rank_peak,
    )


def scheme_headroom(scheme_name: str) -> int:
    """Non-credited optimistic headroom a scheme adds per connection
    (0 for hardware; the default optimistic budget for static/dynamic —
    *independent of the ECM threshold*, which shapes credit-return
    traffic, never buffer counts)."""
    from repro.core import make_scheme

    return make_scheme(scheme_name).optimistic_headroom


def _pinned_per_connection(scheme_name: str, prepost: int, mpi: Any) -> int:
    """Closed-form pinned bytes one connection keeps registered under a
    scheme.  Ring schemes pin the fixed control-vbuf reserve plus both
    ring halves — the rank's own receive ring and its slot share of the
    peer's — mirroring the measured per-connection split; everything else
    pins the pre-posted vbufs plus the scheme's optimistic headroom."""
    from repro.core import make_scheme

    scheme = make_scheme(scheme_name)
    if scheme.uses_ring:
        return (mpi.rdma_control_bufs + 2 * prepost) * mpi.vbuf_bytes
    return (prepost + scheme.optimistic_headroom) * mpi.vbuf_bytes


def predicted_connection_bytes(scheme_name: str, prepost: int,
                               mpi: Any, ib: Any) -> int:
    """Closed-form bytes one idle connection costs under a scheme: the
    pinned buffer population (vbufs, or control reserve + ring slots for
    ring schemes) and the QP descriptor state.  The conservation tests
    pin the measured per-connection sum to this."""
    return _pinned_per_connection(scheme_name, prepost, mpi) + qp_state_bytes(ib)


def mesh_pinned_bytes(nranks: int, scheme_name: str, prepost: int,
                      mpi: Any) -> int:
    """Closed-form pinned bytes of a full P x (P-1) mesh as set-up built it:
    per connection, the pre-posted vbufs plus the scheme's headroom, or for
    a ring scheme the control reserve plus *both* ring halves (its own
    receive ring and its slot share of the peer's).  The simulated report
    splits the ring schemes' figure: ``vbuf_pinned_bytes`` is the control
    reserve alone and ``ring_bytes`` the two halves, so a simulated mesh's
    ``vbuf_pinned_bytes + ring_bytes`` is this, plus the buffers
    ``dynamic`` grows under traffic (``tests/test_mesh_setup.py``,
    ``benchmarks/test_ext_scaling.py``)."""
    return nranks * (nranks - 1) * _pinned_per_connection(scheme_name, prepost, mpi)
