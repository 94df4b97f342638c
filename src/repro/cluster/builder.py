"""Cluster construction: fabric, HCAs, endpoints, and the QP mesh.

``MPI_Init`` in the paper's implementation sets up a Reliable Connection
between every two processes and binds all queues to a single CQ per
process; a static-mesh cluster reproduces that wiring, one pair at its
first touch (:meth:`Cluster.wire`).  Rank placement is block-cyclic over
nodes: with 16 ranks on 8 nodes, ranks *r* and *r + 8* share a node (the
paper runs BT/SP this way), and their traffic takes the HCA loopback path.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cluster.config import TestbedConfig
from repro.core.base import FlowControlScheme
from repro.ib.fabric import Fabric
from repro.ib.hca import HCA
from repro.ib.mr import MemoryRegion
from repro.mpi.connection import Connection
from repro.mpi.endpoint import Endpoint
from repro.sim import Simulator, gc_paused
from repro.sim.trace import Tracer

#: a half's ``(QPN, ring region)`` when they are set aside for it (None: next)
Numbers = Tuple[Optional[int], Optional[MemoryRegion]]


def wire_pair(a: Endpoint, b: Endpoint, at_a: Numbers = (None, None),
              at_b: Numbers = (None, None)) -> Tuple[Connection, Connection]:
    """Wire ``a`` <-> ``b``: a QP each through ``HCA.create_qp``, connected
    to the other; a ``Connection`` each in its endpoint's table, set up by
    the scheme; the rings pointed at each other.  Both halves' receive
    budgets are the caller's to post."""
    qp_ab = a.hca.create_qp(a.cq, qpn=at_a[0])
    qp_ba = b.hca.create_qp(b.cq, qpn=at_b[0])
    qp_ab.connect(b.hca.lid, qp_ba.qp_num)
    qp_ba.connect(a.hca.lid, qp_ab.qp_num)
    halves = Connection(a, b.rank, qp_ab), Connection(b, a.rank, qp_ba)
    a.add_connection(b.rank, halves[0], at_a[1])
    b.add_connection(a.rank, halves[1], at_b[1])
    if a._ring_mode:
        Endpoint.wire_rdma_rings(*halves)
    return halves


def check_setup_budget(scheme: FlowControlScheme, prepost: int,
                       config: TestbedConfig) -> None:
    """Raise ``ValueError`` unless the receive WQEs one connection posts at
    set-up (:meth:`~repro.core.base.FlowControlScheme.setup_budget`) fit
    the receive queue — checked before anything is built, not as a verbs
    overflow on the first connection of a half-wired cluster."""
    budget = scheme.setup_budget(prepost, config.mpi)
    if budget > config.ib.rq_depth:
        raise ValueError(
            f"pre-post {prepost} under {scheme.name.value} posts {budget} "
            f"receive WQEs per connection; the receive queue holds "
            f"rq_depth = {config.ib.rq_depth}")


class Cluster:
    """A simulated cluster ready to run MPI jobs."""

    def __init__(self, config: Optional[TestbedConfig] = None, trace: bool = False):
        self.config = config or TestbedConfig()
        self.sim = Simulator()
        self.tracer = Tracer(enabled=trace)
        if self.config.topology == "fat-tree":
            from repro.ib.fattree import FatTreeFabric

            self.fabric = FatTreeFabric(
                self.sim, self.config.ib, self.tracer,
                leaf_ports=self.config.leaf_ports, spines=self.config.spines,
                levels=self.config.levels,
                pod_leaves=self.config.pod_leaves, cores=self.config.cores,
            )
        else:
            self.fabric = Fabric(self.sim, self.config.ib, self.tracer)
        if self.config.ib.congestion is not None:
            from repro.congestion import CongestionState

            self.fabric.congestion = CongestionState(
                self.sim, self.fabric, self.config.ib.congestion, self.tracer
            )
        self.hcas: List[HCA] = [
            HCA(self.sim, self.fabric, lid, self.config.ib, self.tracer)
            for lid in range(self.config.nodes)
        ]
        self.endpoints: List[Endpoint] = []
        self.cm = None  # set when launched with on_demand=True
        #: launched as a static mesh: per rank, the first of the P-1 QPNs
        #: and (ring schemes) ring regions set aside for its halves
        self._mesh: Optional[List[tuple]] = None
        self.auditor = None  # repro.check.Auditor, while armed
        self.recovery = None  # repro.recovery.RecoveryManager, while armed
        self.ft = None  # repro.ft.FTManager, while armed
        #: the subsystems the latest job armed, in arming order; the next
        #: ``run_job`` on this cluster disarms them before arming its own
        self.armed: tuple = ()

    # ------------------------------------------------------------------
    def node_of_rank(self, rank: int) -> int:
        """Block-cyclic placement: rank r lives on node r mod nodes."""
        return rank % self.config.nodes

    # A big launch (1,024 ranks' endpoints) is long-lived state and no
    # garbage: collector passes over the growing heap would walk it for
    # nothing, and the one pass that files it with the old generation is
    # paid here.
    @gc_paused(settle=True)
    def launch(
        self,
        nranks: int,
        scheme: FlowControlScheme,
        prepost: int,
        on_demand: Optional[bool] = None,
    ) -> List[Endpoint]:
        """Create ``nranks`` endpoints and the means to wire their pairs.

        ``on_demand=False``: the paper's MPI_Init behaviour — a full
        all-to-all RC mesh with pre-posted buffers on every connection,
        each pair wired at its first touch by :meth:`wire` exactly as
        MPI_Init would have built it (nothing simulated; a pair never
        touched costs nothing on the host, while the reports count all
        P(P-1) connections).  With ``on_demand=True``, connections are
        established lazily by a
        :class:`~repro.cluster.on_demand.ConnectionManager` when two ranks
        first communicate, paying the CM exchange in simulated time
        (available afterwards as ``cluster.cm``).  Left unspecified
        (``None``), jobs at or above ``TestbedConfig.on_demand_threshold``
        ranks go on-demand automatically — a 1,024-rank mesh pins 523,776
        QP pairs' buffers.
        """
        if self.endpoints:
            raise RuntimeError("cluster already launched")
        if nranks < 1:
            raise ValueError("need at least one rank")
        check_setup_budget(scheme, prepost, self.config)
        if on_demand is None:
            on_demand = nranks >= self.config.on_demand_threshold

        connector = self.wire
        if on_demand:
            from repro.cluster.on_demand import ConnectionManager

            self.cm = ConnectionManager(self)
            connector = self.cm.request

        for rank in range(nranks):
            hca = self.hcas[self.node_of_rank(rank)]
            ep = Endpoint(
                sim=self.sim,
                hca=hca,
                rank=rank,
                world_size=nranks,
                config=self.config.mpi,
                scheme=scheme,
                requested_prepost=prepost,
                tracer=self.tracer,
                connector=connector,
                mesh=not on_demand,
            )
            self.endpoints.append(ep)

        if not on_demand:
            # One RC connection per ordered pair, all bound to the
            # per-process CQ (paper §3.1), numbered as MPI_Init numbers
            # them: rank-major, each rank's P-1 QPNs (and ring regions) in
            # one block of its adapter's, set aside here.
            ring = prepost * self.config.mpi.vbuf_bytes  # one ring's region
            self._mesh = [
                (ep.hca.reserve_qpns(nranks - 1),
                 (ring, *ep.hca.mrs.reserve(nranks - 1, ring))
                 if scheme.uses_ring else None)
                for ep in self.endpoints
            ]
        return self.endpoints

    def wire(self, ep: Endpoint, peer: int) -> None:
        """Wire the static-mesh pair ``ep`` <-> ``peer`` unless it is wired:
        the two connections MPI_Init built, numbered from the blocks
        :meth:`launch` set aside and holding the receive budgets MPI_Init
        posted — no receiver stall gates those and no auditor sees them,
        as none existed then.  Nothing is simulated: no yield, no agenda
        entry, no time.  A pair wired later is field for field one wired
        earlier.  On an on-demand cluster it does nothing (``cm`` wires)."""
        if self._mesh is None or peer in ep.connections:
            return
        other = self.endpoints[peer]
        for half in wire_pair(ep, other, self._numbers(ep, peer),
                              self._numbers(other, ep.rank)):
            half.post_setup_buffers()

    def wire_adapter(self, hca: HCA) -> None:
        """Wire every pair of every rank ``hca`` serves (a static mesh's
        adapter holds all their QPs: what ``HCA.kill`` errors)."""
        for ep in self.endpoints:
            if ep.hca is hca:
                for peer in range(len(self.endpoints)):
                    if peer != ep.rank:
                        self.wire(ep, peer)

    def _numbers(self, ep: Endpoint, peer: int) -> Numbers:
        """``ep``'s half toward ``peer``: the QPN and the registered ring
        region its place among the other ranks gets from ``ep``'s blocks."""
        i = peer - (peer > ep.rank)
        qpn, ring = self._mesh[ep.rank]
        if ring is None:
            return qpn + i, None
        length, addr, lkey, stride = ring
        return qpn + i, ep.hca.reg_mr(length, at=(addr + i * stride, lkey + i))

    def reset_stats(self) -> None:
        """Zero the observability counters between jobs on a reused
        cluster: the tracer's, the fabric's, and what the reports read off
        endpoints, QPs and switch ports
        (:func:`repro.core.stats.reset_counters`)."""
        from repro.core.stats import reset_counters

        self.tracer.reset()
        self.fabric.reset_counters()
        reset_counters(self.endpoints, congestion=self.fabric.congestion)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Cluster nodes={self.config.nodes} ranks={len(self.endpoints)}>"
