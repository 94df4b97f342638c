"""Run forensics: turn a traced job into human-readable summaries.

Enable tracing with ``run_job(..., trace=True)`` and feed the result here:

* :func:`fabric_utilisation` — bytes/messages per directed host pair;
* :func:`rank_activity` — per-rank wait share and traffic volume;
* :func:`flow_control_timeline` — per-connection credit-stall and
  adaptation summary (where did the backlog time go?).

These are the tools used while diagnosing the reproduction itself (e.g.
"which LU connection accumulated the 63-deep queue?") and ship as part of
the library because downstream users will ask the same questions of their
own workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.analysis.report import Table
from repro.core.stats import connection_table
from repro.sim.units import to_us

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.job import JobResult


@dataclass
class PairTraffic:
    messages: int = 0
    payload_bytes: int = 0


def fabric_utilisation(result: "JobResult") -> Dict[Tuple[int, int], PairTraffic]:
    """(src_lid, dst_lid) → traffic, from the fabric trace records."""
    tracer = result.endpoints[0].tracer
    out: Dict[Tuple[int, int], PairTraffic] = {}
    for _, _, (src, dst, nbytes, _arrival) in tracer.records_of("fabric.tx"):
        pt = out.setdefault((src, dst), PairTraffic())
        pt.messages += 1
        pt.payload_bytes += max(0, nbytes)
    return out


def rank_activity(result: "JobResult") -> Table:
    """Per-rank wall/wait/traffic summary table."""
    table = Table(
        "Per-rank activity",
        ["finish_us", "wait_us", "wait_share_%", "sent_bytes", "recvd_bytes"],
    )
    for ep, finish in zip(result.endpoints, result.rank_finish_ns):
        share = 100.0 * ep.wait_ns / finish if finish else 0.0
        table.add_row(
            f"rank{ep.rank}",
            to_us(finish),
            to_us(ep.wait_ns),
            share,
            ep.bytes_sent,
            ep.bytes_received,
        )
    return table


def flow_control_timeline(result: "JobResult", top: int = 10) -> Table:
    """The ``top`` connections by credit-stall time: who was starved, how
    deep did the backlog get, how far did the dynamic scheme adapt."""
    rows: List[tuple] = []
    for ep in result.endpoints:
        for peer, conn in connection_table(ep):
            s = conn.stats
            rows.append(
                (
                    s.credit_stalled_ns,
                    f"{ep.rank}->{peer}",
                    s.msgs_sent,
                    s.backlogged,
                    s.rndv_fallbacks,
                    s.ecm_sent,
                    s.max_prepost,
                )
            )
    rows.sort(reverse=True)
    table = Table(
        f"Top-{top} connections by credit-stall time",
        ["stall_us", "msgs", "backlogged", "fallbacks", "ecms", "max_buffers"],
    )
    for stall, name, msgs, backlogged, fallbacks, ecms, maxb in rows[:top]:
        table.add_row(name, to_us(stall), msgs, backlogged, fallbacks, ecms, maxb)
    return table
