"""Aggregation of per-connection statistics into the paper's table rows.

Table 1 reports, for the user-level static scheme, the *average number of
explicit credit messages per connection at each process* next to the total
message count.  Table 2 reports the *maximum number of posted buffers for
every connection at every process* under the dynamic scheme.  The helpers
here compute both from a finished job's endpoints.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, Iterator, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.connection import Connection
    from repro.mpi.endpoint import Endpoint


def engaged_connections(ep: "Endpoint") -> List["Connection"]:
    """The connections ``ep`` ever engaged (``Endpoint._engaged``) that are
    still in its table — a torn-down on-demand pair has left it."""
    return [c for c in map(ep.connections.get, ep._engaged) if c is not None]


def weighted_connections(ep: "Endpoint") -> Iterator[Tuple["Connection", int]]:
    """What a per-job report visits instead of the whole connection table:
    ``(connection, how many connections it stands for)``.

    An engaged connection stands for itself.  Every other one is field for
    field what ``Endpoint.add_connection`` built, so one of them stands for
    all: a sum takes it times its count, a maximum takes it as it is.  A
    static mesh holds P-1 connections per rank and a job engages a handful
    of them; this keeps the job's bookkeeping from costing P².
    """
    engaged = engaged_connections(ep)
    for conn in engaged:
        yield conn, 1
    idle = len(ep.connections) - len(engaged)
    if idle:
        yield next(c for p, c in ep.connections.items() if p not in ep._engaged), idle


@dataclass
class FlowControlReport:
    """Job-wide flow-control summary."""

    total_msgs: int
    data_msgs: int
    ecm_msgs: int
    backlogged_msgs: int
    backlog_max: int
    rndv_fallbacks: int
    max_posted_buffers: int
    avg_ecm_per_connection: float
    piggybacked_credits: int
    ecm_credits: int
    rnr_naks: int
    retransmissions: int
    #: handshake control plane (RTS/CTS/FIN) — tagged apart from data so
    #: the Figure-8 overhead split is honest about what is payload and
    #: what is protocol
    control_msgs: int = 0
    #: backlogged sends that were control-plane (credit-starved RTSs)
    control_backlogged: int = 0

    @property
    def ecm_fraction(self) -> float:
        """ECMs as a share of all messages (the paper's 18 % LU headline)."""
        return self.ecm_msgs / self.total_msgs if self.total_msgs else 0.0

    @property
    def control_fraction(self) -> float:
        """Handshake control messages as a share of all messages."""
        return self.control_msgs / self.total_msgs if self.total_msgs else 0.0


def collect_report(endpoints: Iterable["Endpoint"]) -> FlowControlReport:
    """Aggregate every endpoint's connections into one report (visiting
    the engaged ones: :func:`weighted_connections`)."""
    total = data = ecm = backlogged = fallbacks = 0
    piggy = ecmc = naks = retrans = 0
    ctl = ctl_backlogged = 0
    max_posted = backlog_max = 0
    conn_count = 0
    for ep in endpoints:
        for conn, n in weighted_connections(ep):
            s = conn.stats
            conn_count += n
            total += n * s.msgs_sent
            data += n * s.data_msgs_sent
            ctl += n * s.ctl_msgs_sent
            ecm += n * s.ecm_sent
            backlogged += n * s.backlogged
            ctl_backlogged += n * s.ctl_backlogged
            fallbacks += n * s.rndv_fallbacks
            piggy += n * s.piggybacked_credits
            ecmc += n * s.ecm_credits
            max_posted = max(max_posted, s.max_prepost)
            backlog_max = max(backlog_max, s.backlog_max)
            qp_naks, qp_retrans = conn.qp.retry_counts()
            naks += n * qp_naks
            retrans += n * qp_retrans
    return FlowControlReport(
        total_msgs=total,
        data_msgs=data,
        ecm_msgs=ecm,
        backlogged_msgs=backlogged,
        backlog_max=backlog_max,
        rndv_fallbacks=fallbacks,
        max_posted_buffers=max_posted,
        # Guard the empty-endpoints / zero-connection case: a job that
        # never opened a connection (single rank, or on-demand mode with no
        # traffic) must report 0.0, not divide by zero.
        avg_ecm_per_connection=(ecm / conn_count) if conn_count else 0.0,
        piggybacked_credits=piggy,
        ecm_credits=ecmc,
        rnr_naks=naks,
        retransmissions=retrans,
        control_msgs=ctl,
        control_backlogged=ctl_backlogged,
    )


@dataclass
class CongestionReport:
    """Job-wide switch-congestion summary (``None`` when disarmed).

    ``per_dest`` is keyed by destination LID (as a string, for stable
    JSON round-trips) and reports the final host-egress port feeding that
    destination: peak queued bytes, XOFF episodes, ECN marks and tail
    drops.  The totals additionally cover the interior (leaf-up /
    spine-down) ports a fat-tree path traverses.
    """

    pause_frames: int
    resume_frames: int
    xoff_events: int
    xon_events: int
    ecn_marks: int
    cnps: int
    drops: int
    depth_peak_bytes: int
    min_flow_rate: float
    per_dest: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


def collect_congestion_report(state: Any) -> CongestionReport:
    """Reduce a :class:`repro.congestion.CongestionState` (duck-typed —
    no import, so this module stays dependency-light) to plain numbers."""
    counters = state.tracer.counters
    total = state.tracer.summary("cong.").get

    def per_key(name: str) -> Dict[Any, int]:
        c = counters.get(name)
        return c.snapshot() if c is not None else {}

    xoff_by_port = per_key("cong.xoff")
    marks_by_port = per_key("cong.ecn_mark")
    depth_peak = 0
    per_dest: Dict[str, Dict[str, int]] = {}
    for key in sorted(state.ports):
        port = state.ports[key]
        if port.peak_depth > depth_peak:
            depth_peak = port.peak_depth
        if key[0] == "down":
            per_dest[str(key[1])] = {
                "depth_peak_bytes": port.peak_depth,
                "pauses": xoff_by_port.get(key, 0),
                "marks": marks_by_port.get(key, 0),
                "drops": port.drops,
            }
    min_rate = 1.0
    for flow in state.flows.values():
        if flow.min_rate_seen < min_rate:
            min_rate = flow.min_rate_seen
    return CongestionReport(
        pause_frames=total("cong.pause_frame", 0),
        resume_frames=total("cong.resume_frame", 0),
        xoff_events=total("cong.xoff", 0),
        xon_events=total("cong.xon", 0),
        ecn_marks=total("cong.ecn_mark", 0),
        cnps=total("cong.cnp", 0),
        drops=total("cong.drop", 0),
        depth_peak_bytes=depth_peak,
        min_flow_rate=min_rate,
        per_dest=per_dest,
    )


def reset_counters(endpoints: Iterable["Endpoint"],
                   congestion: Optional[Any] = None) -> None:
    """Zero every observability counter so a reused cluster starts the
    next job with a clean slate.

    Reused-cluster runs previously aggregated ConnStats / QP / pool
    counters across *all* jobs ever run on the builder, so the second
    ``run_job`` reported inflated tables.  Live protocol state (credits,
    posted buffers, prepost targets) is deliberately untouched — only
    the counters that :func:`collect_report` and the analysis layer read.
    With ``congestion`` (the fabric's :class:`CongestionState`, when
    armed) its port/flow counters are reset the same way.

    Only engaged connections are visited: a connection outside
    ``Endpoint._engaged`` still has the counters it was built with.
    """
    if congestion is not None:
        congestion.reset_counters()
    for ep in endpoints:
        ep.bytes_sent = 0
        ep.bytes_received = 0
        ep.wait_ns = 0
        pool = ep.pool
        pool.min_free = pool.free
        pool.acquisitions = 0
        pool.releases = 0
        pool.exhaustion_events = 0
        ep.cq.total_completions = 0
        matching = ep.matching
        matching.total_unexpected = 0
        matching.unexpected_peak = matching.unexpected_count
        for conn in engaged_connections(ep):
            conn.reset_stats()
            conn.qp.reset_counters()


def per_connection_max_buffers(endpoints: Iterable["Endpoint"]) -> Dict[tuple, int]:
    """(rank, peer) → high-water prepost_target (Table 2 raw data)."""
    out = {}
    for ep in endpoints:
        for peer, conn in ep.connections.items():
            out[(ep.rank, peer)] = conn.stats.max_prepost
    return out
