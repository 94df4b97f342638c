"""Cluster construction: fabric, HCAs, endpoints, and the QP mesh.

``MPI_Init`` in the paper's implementation sets up a Reliable Connection
between every two processes and binds all queues to a single CQ per
process; a static-mesh cluster reproduces that wiring, one pair at its
first touch (:meth:`Cluster.connect`).  Rank placement is block-cyclic
over nodes: with 16 ranks on 8 nodes, ranks *r* and *r + 8* share a node
(the paper runs BT/SP this way); their traffic takes the HCA loopback.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import List, Optional

from repro.cluster.config import TestbedConfig
from repro.core.base import FlowControlScheme
from repro.ib.fabric import Fabric
from repro.ib.hca import HCA
from repro.mpi.connection import Connection
from repro.mpi.endpoint import Endpoint
from repro.sim import Simulator, gc_paused
from repro.sim.trace import Tracer

#: the observer seam's interface (DESIGN §5): the endpoint event map's, then
#: pair wired / torn down, rank dead, quiet window, recovery begun / resynced,
#: ring deposit, port XOFF / XON / depth, job end
EVENTS = (
    "on_app_send", "on_consume", "on_emit", "on_deliver", "on_match",
    "on_grow", "on_ring_free", "on_post_recv", "on_swallow", "on_grant",
    "on_backlog_enqueue", "on_backlog_dequeue", "on_send_done",
    "on_wired", "on_teardown", "on_rank_dead", "on_quiet",
    "on_recovery_begin", "on_recovery_resync", "on_ring_deposit",
    "on_xoff", "on_xon", "on_queue_depth", "on_job_end",
)

#: an event nobody answers: a C function taking any arguments, so no frame
_IGNORED = "".format


def observer_slot(observers: tuple):
    """The slot a layer fires events on: ``None`` while nothing observes,
    the lone observer answering every event, else a fan-out holding per
    event the one answering bound method, a loop over several (in joining
    order), or :data:`_IGNORED`.  Observers decide nothing."""
    if not observers:
        return None
    if len(observers) == 1 and all(hasattr(observers[0], e) for e in EVENTS):
        return observers[0]
    fanout = {}
    for event in EVENTS:
        fns = [getattr(o, event) for o in observers if hasattr(o, event)]
        fanout[event] = _fan(fns) if len(fns) > 1 else fns[0] if fns else _IGNORED
    return SimpleNamespace(**fanout)


def _fan(fns: list):
    def fan(*args):
        for fn in fns:
            fn(*args)
    return fan


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
        #: the observer seam: who joined, and the slot every layer reads
        self._observers: tuple = ()
        self.observer = None
        self.ft = None  # repro.ft.FTManager, while armed
        #: the subsystems the latest job armed, in arming order; the next
        #: ``run_job`` on this cluster disarms them before arming its own
        self.armed: tuple = ()
        #: the latest job's rank processes, by rank (a rank death kills one)
        self.procs: list = []

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

    def connect(self, a: int, b: int) -> None:
        """Wire ``a`` <-> ``b``, the one place a pair comes into being: a QP
        each; a ``Connection`` each in its endpoint's table, set up by the
        scheme; :meth:`_bring_up`; the pair announced to the observers.  A
        static mesh's halves take the QPN and ring region :meth:`launch` set
        aside for their place among the other ranks, and post ungated, as
        MPI_Init did; on demand, the adapters' next numbers and the refill a
        stall gates."""
        ends = []
        for ep, peer in ((self.endpoints[a], b), (self.endpoints[b], a)):
            qpn = ring = None
            if self._mesh is not None:
                i = peer - (peer > ep.rank)
                qpn, block = self._mesh[ep.rank]
                qpn += i
                if block is not None:
                    length, addr, lkey, stride = block
                    ring = ep.hca.reg_mr(length, at=(addr + i * stride, lkey + i))
            conn = Connection(ep, peer, ep.hca.create_qp(ep.cq, qpn=qpn))
            ep.add_connection(peer, conn, ring)
            ends.append(conn)
        self._bring_up(*ends, self._mesh is not None)
        if self.observer is not None:
            self.observer.on_wired(*ends)

    def reset_pair(self, a: int, b: int) -> tuple:
        """Bring the lost pair ``a`` <-> ``b`` back up on successor QPs, as
        :meth:`connect` brings up a new one (recovery's re-arm), once each
        end's unpolled flushed completions are reclaimed.  Returns those of
        ``a``'s and of ``b``'s that were sends, as their records in flush
        order: the replay candidates."""
        ep_a, ep_b = self.endpoints[a], self.endpoints[b]
        conn_ab, conn_ba = ep_a.connections[b], ep_b.connections[a]
        flushed = ep_a.reclaim_flushed(conn_ab.qp), ep_b.reclaim_flushed(conn_ba.qp)
        conn_ab.qp, conn_ba.qp = conn_ab.qp.successor(), conn_ba.qp.successor()
        self._bring_up(conn_ab, conn_ba, False)
        return flushed

    @staticmethod
    def _bring_up(conn_ab: Connection, conn_ba: Connection, init: bool) -> None:
        """Connect the pair's QPs, point each ring cursor at the other's
        ring and post both receive budgets (``init``: as MPI_Init did,
        ungated; else the refill)."""
        conn_ab.qp.connect(conn_ba.endpoint.hca.lid, conn_ba.qp.qp_num)
        conn_ba.qp.connect(conn_ab.endpoint.hca.lid, conn_ab.qp.qp_num)
        if conn_ab.ring is not None:
            Endpoint.wire_rdma_rings(conn_ab, conn_ba)
        for half in (conn_ab, conn_ba):
            if init:
                half.post_setup_buffers()
            else:
                half.refill_recv_buffers()

    def observe(self, obs) -> None:
        """Join the observer seam (in a subsystem's ``arm``): ``obs``
        answers events of :data:`EVENTS` by name."""
        self._rebind(self._observers + (obs,))

    def unobserve(self, obs) -> None:
        """Leave it (the same subsystem's ``disarm``)."""
        self._rebind(tuple(o for o in self._observers if o is not obs))

    def _rebind(self, observers: tuple) -> None:
        self._observers, self.observer = observers, observer_slot(observers)
        for layer in (*self.endpoints, self.fabric.congestion):
            if layer is not None:
                layer.observer = self.observer

    def wire(self, ep: Endpoint, peer: int) -> None:
        """Wire the static-mesh pair ``ep`` <-> ``peer`` as MPI_Init did,
        unless it is wired.  Nothing is simulated: no yield, no agenda
        entry, no time.  On an on-demand cluster it does nothing (``cm``
        wires)."""
        if self._mesh is None or peer in ep.connections:
            return
        self.connect(ep.rank, peer)

    def wire_adapter(self, hca: HCA) -> None:
        """Wire every pair of every rank ``hca`` serves (a static mesh's
        adapter holds all their QPs: what ``HCA.kill`` errors)."""
        for ep in self.endpoints:
            if ep.hca is hca:
                for peer in range(len(self.endpoints)):
                    if peer != ep.rank:
                        self.wire(ep, peer)

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
