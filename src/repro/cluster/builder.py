"""Cluster construction: fabric, HCAs, endpoints, and the QP mesh.

``MPI_Init`` in the paper's implementation sets up a Reliable Connection
between every two processes and binds all queues to a single CQ per
process; :meth:`Cluster.launch` reproduces that wiring.  Rank placement is
block-cyclic over nodes: with 16 ranks on 8 nodes, ranks *r* and *r + 8*
share a node (the paper runs BT/SP this way), and their traffic takes the
HCA loopback path.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster.config import TestbedConfig
from repro.core.base import FlowControlScheme
from repro.ib.fabric import Fabric
from repro.ib.hca import HCA
from repro.mpi.connection import Connection
from repro.mpi.endpoint import Endpoint
from repro.sim import Simulator, gc_paused
from repro.sim.trace import Tracer


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

    # A mesh is P*(P-1) long-lived connections and no garbage: collector
    # passes over the growing heap were more than half the set-up time, and
    # the one pass that files it with the old generation is paid here.
    @gc_paused(settle=True)
    def launch(
        self,
        nranks: int,
        scheme: FlowControlScheme,
        prepost: int,
        on_demand: Optional[bool] = None,
    ) -> List[Endpoint]:
        """Create ``nranks`` endpoints and wire their connections.

        ``on_demand=False``: the paper's MPI_Init behaviour — a full
        all-to-all RC mesh with pre-posted buffers on every connection.
        With ``on_demand=True``, connections are established lazily by a
        :class:`~repro.cluster.on_demand.ConnectionManager` when two ranks
        first communicate (available afterwards as ``cluster.cm``).  Left
        unspecified (``None``), jobs at or above
        ``TestbedConfig.on_demand_threshold`` ranks go on-demand
        automatically — a 1,024-rank mesh would wire 523,776 QP pairs.
        """
        if self.endpoints:
            raise RuntimeError("cluster already launched")
        if nranks < 1:
            raise ValueError("need at least one rank")
        check_setup_budget(scheme, prepost, self.config)
        if on_demand is None:
            on_demand = nranks >= self.config.on_demand_threshold

        connector = None
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
            )
            self.endpoints.append(ep)

        if on_demand:
            return self.endpoints

        # Full QP mesh: one RC connection per ordered pair, all bound to
        # the per-process CQ (paper §3.1).  Every QP exists before the
        # first is connected (an end needs its peer's number), created
        # rank-major: QPN assignment is this loop.
        eps = self.endpoints
        rows = [
            [None if b is a else a.hca.create_qp(a.cq) for b in eps] for a in eps
        ]
        for a, row in zip(eps, rows):
            for b, qp in zip(eps, row):
                if qp is not None:
                    qp.connect(b.hca.lid, rows[b.rank][a.rank].qp_num)
                    a.add_connection(b.rank, Connection(a, b.rank, qp))
        if eps[0]._ring_mode:
            for a in eps:
                for b in eps:
                    if a.rank < b.rank:
                        Endpoint.wire_rdma_rings(
                            a.connections[b.rank], b.connections[a.rank]
                        )
        return self.endpoints

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
