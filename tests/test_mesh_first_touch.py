"""A static mesh wired at first touch is the mesh ``MPI_Init`` wired at
launch, field for field and job for job.

The reference is the launch this repository used to ship — every QP
created rank-major, then connected, set up and pre-posted, the rings
pointed at each other — kept here as :func:`eager_launch`, the way
``tests/test_job_bookkeeping.py`` keeps the full scans.  Two claims:

* a pair ``Cluster.wire`` builds at its first touch equals its eager twin
  slot for slot — connection, QP, responder queue, ring, requester — under
  every scheme, whatever was armed or stalled since launch;
* a job reports the same document (``JobResult.report()``, the
  flow-control and memory reports included), takes the same events and
  returns the same results on either, and the per-connection outputs list
  the same whole mesh.
"""

import enum
import random
import runpy
from collections import deque
from collections.abc import Mapping
from pathlib import Path

import pytest

from repro.analysis.timeline import flow_control_timeline
from repro.check import Auditor
from repro.cluster import Cluster, TestbedConfig, run_job
from repro.cluster.builder import check_setup_budget
from repro.core import DynamicScheme, make_scheme, per_connection_max_buffers
from repro.faults import FaultInjector, FaultPlan, scenario_job
from repro.ib.cq import CompletionQueue
from repro.ib.hca import HCA
from repro.ib.qp import QueuePair
from repro.mpi.connection import Connection
from repro.mpi.endpoint import Endpoint
from repro.sim.units import us
from repro.workloads.nas import KERNELS

from tests.mpi_helpers import wire_all
from tests.test_job_bookkeeping import _death_with_bystanders
from tests.test_quiescence import _ring, _starved_flood

SCHEMES = ["hardware", "static", "dynamic", "rdma-eager"]


def eager_launch(self, nranks, scheme, prepost, on_demand=None):
    """``Cluster.launch`` as it built a static mesh: all P*(P-1)
    connections at once, numbered by this loop."""
    assert not on_demand
    check_setup_budget(scheme, prepost, self.config)
    self.endpoints = [
        Endpoint(sim=self.sim, hca=self.hcas[self.node_of_rank(rank)], rank=rank,
                 world_size=nranks, config=self.config.mpi, scheme=scheme,
                 requested_prepost=prepost, tracer=self.tracer)
        for rank in range(nranks)
    ]
    eps = self.endpoints
    rows = [[None if b is a else a.hca.create_qp(a.cq) for b in eps] for a in eps]
    for a, row in zip(eps, rows):
        for b, qp in zip(eps, row):
            if qp is not None:
                qp.connect(b.hca.lid, rows[b.rank][a.rank].qp_num)
                conn = Connection(a, b.rank, qp)
                a.add_connection(b.rank, conn)
                conn.refill_recv_buffers()
    if eps[0]._ring_mode:
        for a in eps:
            for b in eps:
                if a.rank < b.rank:
                    Endpoint.wire_rdma_rings(a.connections[b.rank], b.connections[a.rank])
    return eps


@pytest.fixture
def eager(monkeypatch):
    """Call ``fn`` with every cluster launched as the eager mesh."""
    def run(fn, *args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(Cluster, "launch", eager_launch)
            return fn(*args, **kwargs)

    return run


# ----------------------------------------------------------------------
# (1) slot for slot
# ----------------------------------------------------------------------
def snapshot(obj, depth=0):
    """``obj``'s state slot by slot, recursively.  What two clusters cannot
    share — an endpoint, an adapter, a CQ, the peer QP, a callback — is
    named instead of followed."""
    if isinstance(obj, (int, float, str, bytes, type(None), enum.Enum)):
        return obj
    if isinstance(obj, Endpoint):
        return ("endpoint", obj.rank)
    if isinstance(obj, HCA):
        return ("hca", obj.lid)
    if isinstance(obj, CompletionQueue):
        return ("cq", obj.name)
    if isinstance(obj, QueuePair) and depth > 1:
        return ("qp", obj.hca.lid, obj.qp_num)
    if callable(obj):
        return "callback"
    if isinstance(obj, (list, tuple, deque)):
        return type(obj).__name__, [snapshot(x, depth + 1) for x in obj]
    if isinstance(obj, Mapping):
        return {k: snapshot(v, depth + 1) for k, v in obj.items()}
    slots = [s for cls in type(obj).__mro__ for s in getattr(cls, "__slots__", ())]
    assert slots, type(obj)
    return type(obj).__name__, {s: snapshot(getattr(obj, s), depth + 1) for s in slots}


def assert_twins(lazy, eager_cluster, a, b):
    for x, y in ((a, b), (b, a)):
        got = lazy.endpoints[x].connections[y]
        want = eager_cluster.endpoints[x].connections[y]
        assert snapshot(got) == snapshot(want), (x, y)


def _adapters(cluster):
    """Each adapter's numbering and registrations."""
    return [(sorted(hca._qps), hca._next_qpn, hca.mrs._next_addr, hca.mrs._next_key,
             sorted(hca.mrs._by_rkey), hca.mrs.registered_bytes) for hca in cluster.hcas]


@pytest.mark.parametrize("scheme", SCHEMES + ["hardware-e2e"])
def test_a_pair_wired_at_first_touch_is_its_eager_twin(scheme, eager):
    """Six ranks on three adapters (two ranks share each), the pairs wired in
    a shuffled order: half plain, half while a fault plan and an auditor
    are armed and a receiver stall is open on every rank."""
    def launch():
        cluster = Cluster(TestbedConfig(nodes=3))
        kwargs = {"arm_e2e_gate": True} if scheme == "hardware-e2e" else {}
        cluster.launch(6, make_scheme(scheme.split("-e2e")[0], **kwargs), 2,
                       on_demand=False)
        return cluster

    lazy, twin = launch(), eager(launch)
    pairs = [(a, b) for a in range(6) for b in range(a + 1, 6)]
    random.Random(7).shuffle(pairs)
    half = len(pairs) // 2
    for a, b in pairs[:half]:
        lazy.wire(lazy.endpoints[a], b)
        assert_twins(lazy, twin, a, b)

    armed = []
    for cluster in (lazy, twin):
        armed.append((FaultInjector(FaultPlan(seed=7)), Auditor()))
        for sub in armed[-1]:
            sub.arm(cluster)
        for ep in cluster.endpoints:
            ep.fault_stall(us(100))
    for a, b in pairs[half:]:
        lazy.wire(lazy.endpoints[b], a)  # from the other end this time
        assert_twins(lazy, twin, a, b)
        assert lazy.endpoints[a].connections[b].qp._req._xport_enabled  # the plan's transport
    assert armed[0][1].hook_calls == 0  # the auditor saw none of it

    # every pair wired: each adapter numbered and registered what the
    # eager launch did, and the stand-in is any idle connection's twin in
    # all but what names a peer (it has none: a QP numbered and connected
    # nowhere, a ring pointed at itself)
    assert _adapters(lazy) == _adapters(twin)
    stand_in = lazy.endpoints[4].idle_connection()
    wired = lazy.endpoints[4].connections[1]
    ignore = {"peer", "recv_wr", "qp_num", "state", "remote_lid", "remote_qpn",
              "_rq", "ring", "tx_addr", "tx_rkey"}

    def kept(conn):
        return {k: v if k not in ("qp", "ring") or v is None
                else {s: w for s, w in v[1].items() if s not in ignore}
                for k, v in snapshot(conn)[1].items() if k not in ignore - {"ring"}}

    assert kept(stand_in) == kept(wired)
    assert stand_in.qp.posted_recvs == wired.qp.posted_recvs


# ----------------------------------------------------------------------
# (2) job for job
# ----------------------------------------------------------------------
def _fan_in(mpi):
    """Five ranks write three eager messages each into rank 0's rings
    before it polls — rank 5 first, so its pair is wired first: one poll
    finds many rings dirty at once."""
    if mpi.rank == 0:
        yield from mpi.compute(us(100))
        got = []
        for _ in range(3 * (mpi.world_size - 1)):
            # a tag: a wildcard one would match the finalize barrier's too
            status = yield from mpi.recv(capacity=64, tag=7)
            got.append(status.source)
        return got
    yield from mpi.compute(us(10 * (mpi.world_size - mpi.rank)))
    for _ in range(3):
        yield from mpi.send(0, size=8, tag=7)


def _outcome(run):
    """What a job leaves: its report, results, events, and the whole-mesh
    per-connection outputs."""
    r = run()
    return {
        "report": r.report(),
        "results": (r.rank_results, r.rank_finish_ns),
        "events": r.endpoints[0].sim.events_executed,
        "buffers": list(per_connection_max_buffers(r.endpoints).items()),
        "timeline": flow_control_timeline(r, top=10_000).render(),
    }


def _mistaken_death(mpi):
    """Rank 0 waits on rank 2, whose link is down past the failure
    detector's patience: rank 2 is declared dead alive, and every survivor
    is severed from it — ranks 1 and 3, which never touched it, too."""
    if mpi.rank == 0:
        status = yield from mpi.recv(source=2, capacity=64)
        return status.error
    yield from mpi.compute(us(20_000 if mpi.rank == 2 else 10))


def _job(program, nranks, scheme, prepost, **kwargs):
    return lambda: run_job(program, nranks, scheme, prepost, **kwargs)


def _scenario(name, scheme, **arming):
    return lambda: run_job(scheme=scheme, **scenario_job(name, **arming))


CORPUS = {
    "lu8-audited": _job(KERNELS["lu"].build(timesteps=2), 8, "dynamic", 2, audit=True),
    **{f"starved-flood-{s}": _job(_starved_flood, 2, s, 2, config=TestbedConfig(nodes=2))
       for s in SCHEMES},
    "rdma-eager-fan-in": _job(_fan_in, 6, "rdma-eager", 4, config=TestbedConfig(nodes=6)),
    "rank-death-ft": _scenario("rank-death", "static", ft=True),
    "rank-death-bystanders": _job(
        _death_with_bystanders, 4, "static", 4, ft=True,
        faults=FaultPlan(seed=7).rank_death(rank=2, at_ns=us(40))),
    # rank 6 shares the dead rank's adapter: every QP of both dies with it,
    # and rank 6 reports its flushed connections
    "rank-death-shared-adapter": _job(
        _ring, 8, "dynamic", 2, config=TestbedConfig(nodes=4), audit=True,
        faults=FaultPlan(seed=7).rank_death(rank=2, at_ns=us(30))),
    # ... and with ft armed, rank 6 is cut off with the adapter and reported
    "rank-death-shared-adapter-ft": _job(
        _ring, 8, "dynamic", 2, config=TestbedConfig(nodes=4), ft=True,
        faults=FaultPlan(seed=7).rank_death(rank=2, at_ns=us(30))),
    "mistaken-death-ft": _job(
        _mistaken_death, 4, "static", 2, ft=True, finalize=False,
        faults=FaultPlan(seed=7).link_flap(lid=2, at_ns=us(1), duration_ns=us(15_000))),
    **{f"receiver-stall-{s}": _scenario("receiver-stall", s) for s in SCHEMES},
    "link-down-recovery": _scenario("link-down-permanent", "static", recovery=True),
}


@pytest.mark.parametrize("job", CORPUS.values(), ids=CORPUS.keys())
def test_a_job_on_a_first_touch_mesh_is_the_job_on_the_eager_mesh(job, eager):
    assert _outcome(job) == eager(_outcome, job)


def test_the_fan_in_drains_many_rings_in_one_poll_in_peer_order(monkeypatch):
    """The multi-peer ring drain keeps the eager mesh's order (ascending
    peer, its table's), not the order the pairs were wired in."""
    widest = []
    deliver = Endpoint._deliver

    def watching(ep, conn, h):
        widest.append(len(ep._ring_dirty))
        return deliver(ep, conn, h)

    monkeypatch.setattr(Endpoint, "_deliver", watching)
    r = CORPUS["rdma-eager-fan-in"]()
    assert max(widest) > 1
    assert list(r.endpoints[0].connections)[:2] == [5, 4]  # wired first
    assert r.rank_results[0] == sorted(r.rank_results[0])  # drained rank by rank


def test_the_whole_mesh_is_listed_however_little_was_wired():
    """``examples/custom_workload.py``: the 8-rank Jacobi wires its halo and
    reduction pairs, and ``per_connection_max_buffers`` still lists all 56
    connections — 24 grown, 32 at the pre-post; the timeline as many rows."""
    example = Path(__file__).resolve().parents[1] / "examples" / "custom_workload.py"
    jacobi = runpy.run_path(str(example))["jacobi"]
    r = run_job(jacobi, nranks=8, scheme=DynamicScheme(), prepost=1,
                config=TestbedConfig(nodes=8))
    wired = sum(len(ep.connections) for ep in r.endpoints)
    buffers = per_connection_max_buffers(r.endpoints)
    assert wired < 56 and len(buffers) == 56
    assert list(buffers) == [(a, b) for a in range(8) for b in range(8) if a != b]
    assert sum(n > 1 for n in buffers.values()) == 24
    assert len(flow_control_timeline(r, top=100).rows) == 56


def test_the_scans_of_a_wired_out_mesh_answer_what_its_reports_did():
    """Wiring every pair after a job changes none of its per-connection
    outputs (the stand-in was each unwired pair's twin)."""
    cluster = Cluster(TestbedConfig(nodes=6))
    cluster.launch(6, make_scheme("rdma-eager"), 2, on_demand=False)
    r = run_job(_ring, 6, "rdma-eager", 2, cluster=cluster)
    before = (per_connection_max_buffers(r.endpoints),
              flow_control_timeline(r, top=100).render())
    wire_all(cluster)
    assert (per_connection_max_buffers(r.endpoints),
            flow_control_timeline(r, top=100).render()) == before
