"""Per-scheme memory accounting (repro.core.memory): measured footprints
must conserve against the closed forms, stay invariant under the ECM
threshold (which shapes credit-return *traffic*, never buffer counts),
and reproduce the paper's scalability headline — on-demand pinned bytes
track the communication graph, full-mesh pinned bytes track P².
"""

import contextlib
import gc
import tracemalloc
from collections import Counter

import pytest

from repro.cluster import Cluster, TestbedConfig, run_job
from repro.core import make_scheme
from repro.core.memory import (
    CQE_BYTES,
    mesh_pinned_bytes,
    predicted_connection_bytes,
    qp_state_bytes,
    scheme_headroom,
)
from repro.ib.qp import QueuePair
from repro.mpi.connection import Connection
from repro.mpi.rdma_channel import RDMAChannel

from tests.mpi_helpers import wire_all

SCHEMES = ("hardware", "static", "dynamic")


def light_ring(mpi):
    """One small message per neighbour — light enough that the dynamic
    scheme never grows past its initial pre-post."""
    nxt = (mpi.rank + 1) % mpi.world_size
    prv = (mpi.rank - 1) % mpi.world_size
    rreq = yield from mpi.irecv(source=prv, capacity=256, tag=0)
    yield from mpi.send(nxt, size=64, tag=0)
    yield from mpi.wait(rreq)


# ----------------------------------------------------------------------
# conservation: measured == closed form, connection by connection
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", SCHEMES)
def test_mesh_memory_conserves_against_closed_form(scheme):
    prepost = 4
    cfg = TestbedConfig(nodes=4)
    r = run_job(light_ring, 4, scheme, prepost=prepost, config=cfg,
                finalize=False)
    mem = r.memory
    assert mem.connections == 4 * 3  # full mesh, directed
    expected_per_conn = predicted_connection_bytes(
        scheme, prepost, cfg.mpi, cfg.ib)
    assert mem.vbuf_pinned_bytes + mem.qp_bytes == 12 * expected_per_conn
    # the fixed per-endpoint state is exact too
    assert mem.cq_bytes == 4 * cfg.ib.cq_depth * CQE_BYTES
    assert mem.send_pool_bytes == 4 * cfg.mpi.send_pool_buffers * cfg.mpi.vbuf_bytes
    assert mem.ring_bytes == 0  # RDMA channel off
    assert mem.total_bytes == (mem.vbuf_pinned_bytes + mem.qp_bytes
                               + mem.cq_bytes + mem.send_pool_bytes)
    # symmetric workload: every rank's footprint is the peak
    per_conn_rank = (prepost + scheme_headroom(scheme)) * cfg.mpi.vbuf_bytes \
        + qp_state_bytes(cfg.ib)
    assert mem.per_rank_peak_bytes == (
        cfg.ib.cq_depth * CQE_BYTES
        + cfg.mpi.send_pool_buffers * cfg.mpi.vbuf_bytes
        + 3 * per_conn_rank)


def test_headroom_matches_scheme_policy():
    """Hardware pins exactly the pre-post; the user-level schemes add the
    optimistic headroom on top."""
    assert scheme_headroom("hardware") == 0
    assert scheme_headroom("static") == make_scheme("static").optimistic_headroom
    assert scheme_headroom("dynamic") == make_scheme("dynamic").optimistic_headroom
    cfg = TestbedConfig(nodes=4)
    hw = predicted_connection_bytes("hardware", 4, cfg.mpi, cfg.ib)
    st = predicted_connection_bytes("static", 4, cfg.mpi, cfg.ib)
    assert st - hw == scheme_headroom("static") * cfg.mpi.vbuf_bytes


# ----------------------------------------------------------------------
# ECM-threshold invariance: credit-return batching is traffic policy,
# not a buffer budget
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", ("static", "dynamic"))
def test_ecm_threshold_never_changes_memory(scheme):
    reports = []
    for ecm in (1, 5, 16):
        r = run_job(light_ring, 4, make_scheme(scheme, ecm_threshold=ecm),
                    prepost=4, config=TestbedConfig(nodes=4), finalize=False)
        reports.append(r.memory.to_dict())
    assert reports[0] == reports[1] == reports[2]


def test_hardware_memory_matches_user_level_minus_headroom():
    """The hardware scheme has no ECM knob at all; its footprint equals
    the static scheme's minus the optimistic headroom."""
    cfg = TestbedConfig(nodes=4)
    hw = run_job(light_ring, 4, "hardware", prepost=4, config=cfg,
                 finalize=False).memory
    st = run_job(light_ring, 4, "static", prepost=4, config=cfg,
                 finalize=False).memory
    gap = st.vbuf_pinned_bytes - hw.vbuf_pinned_bytes
    assert gap == 12 * scheme_headroom("static") * cfg.mpi.vbuf_bytes
    assert hw.qp_bytes == st.qp_bytes


# ----------------------------------------------------------------------
# the scalability headline: on-demand < mesh on a ring graph
# ----------------------------------------------------------------------
def test_on_demand_ring_pins_less_than_mesh():
    prepost = 4
    cfg = TestbedConfig(nodes=8)

    mesh = run_job(light_ring, 8, "dynamic", prepost=prepost, config=cfg,
                   finalize=False).memory
    lazy = run_job(light_ring, 8, "dynamic", prepost=prepost, config=cfg,
                   on_demand=True, finalize=False).memory

    assert mesh.connections == 8 * 7
    assert lazy.connections == 16  # ring: 8 pairs, both directions
    assert lazy.vbuf_pinned_bytes < mesh.vbuf_pinned_bytes / 3
    # the simulated mesh agrees with the closed-form model the scaling
    # table uses for rungs too big to simulate
    assert mesh.vbuf_pinned_bytes == mesh_pinned_bytes(
        8, "dynamic", prepost, cfg.mpi)


def test_mesh_model_is_quadratic():
    m64 = mesh_pinned_bytes(64, "dynamic", 1, TestbedConfig().mpi)
    m1024 = mesh_pinned_bytes(1024, "dynamic", 1, TestbedConfig().mpi)
    assert m1024 / m64 == (1024 * 1023) / (64 * 63)


# ----------------------------------------------------------------------
# the host's side of the bargain: the modelled bytes above are what a
# connection is *charged*; this is what one costs the simulator's own heap
# — nothing while its pair is idle and unwired, a wired pair's objects from
# its first touch on
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _traced():
    """``tracemalloc`` on for the block (and left as found); yields the
    reader of the live traced bytes."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        yield lambda: tracemalloc.get_traced_memory()[0]
    finally:
        if not was_tracing:
            tracemalloc.stop()


def _mesh_launch_building(scheme, nranks, monkeypatch):
    """``Cluster.launch`` of a static mesh: the per-connection objects it
    constructed, and its ``tracemalloc`` growth per rank."""
    built = Counter()
    for cls in (Connection, QueuePair, RDMAChannel):
        real = cls.__init__

        def counting(self, *args, _real=real, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    cluster = Cluster(TestbedConfig(nodes=nranks))
    with _traced() as live:
        before = live()
        cluster.launch(nranks, make_scheme(scheme), 1, on_demand=False)
        grown = live() - before
    monkeypatch.undo()
    return cluster, built, grown / nranks


def test_idle_mesh_connection_host_heap_budget(monkeypatch):
    """A 256-rank mesh is 65,280 connections and a 1,024-rank one
    1,047,552, of which a job touches a few per rank.  Bytes per idle
    connection were the mesh's peak RSS — 5,859 B before the per-connection
    objects were slotted, down to 628 B at this guard's last form — and are
    now none: ``launch`` builds the endpoints only and each pair is wired
    at its first touch (``Cluster.wire``), so an idle connection is a count
    in the reports, not an object.  What a launch costs stays O(P): per
    rank, what an on-demand rank costs (the bound of
    ``test_on_demand_rank_host_heap_budget``)."""
    for scheme in SCHEMES:
        cluster, built, per_rank = _mesh_launch_building(scheme, 256, monkeypatch)
        assert not built, (scheme, built)
        assert all(not ep.connections for ep in cluster.endpoints)
        assert not any(hca._qps for hca in cluster.hcas)
        assert per_rank <= 4_690, (scheme, per_rank)


def test_idle_ring_connection_host_heap_budget(monkeypatch):
    """``rdma-eager`` registered two ring regions per pair at launch: now
    none, while the QP numbers and ring regions the mesh's pairs will get
    are set aside (``launch`` registers only each rank's bounce region)."""
    cluster, built, per_rank = _mesh_launch_building("rdma-eager", 256, monkeypatch)
    assert not built and per_rank <= 4_690, (built, per_rank)
    assert all(len(hca.mrs) == 1 for hca in cluster.hcas)  # the bounce region


def _host_bytes_per_wired_connection(scheme, prepost, nranks=32):
    """``tracemalloc`` growth over wiring every pair of a launched static
    mesh, per connection: its QP, Connection, descriptor, posted WQEs, the
    two table entries (and on a ring scheme its channel and region)."""
    cluster = Cluster(TestbedConfig(nodes=nranks))
    cluster.launch(nranks, make_scheme(scheme), prepost, on_demand=False)
    with _traced() as live:
        before = live()
        wire_all(cluster)
        grown = live() - before
    return grown / (nranks * (nranks - 1))


def test_wired_connection_host_heap_budget():
    """What a pair costs the host once wired: 926-942 B a connection
    (``hardware`` 926), the ring scheme 1,734 B.  That includes the QP's
    own ``Requester`` with its send queue and requester map, and the
    connection's own ``ConnStats`` — 510-526 B and 1,315 B while a wired
    connection that had not sent shared its rank's idle ones (628 B was the
    old launch-time measure, which also spread the 32 ranks' own state over
    their connections).  Deterministic for a given interpreter; the bound
    is the measured value + 30 B — room for a CPython whose object headers
    differ, not for a new per-connection field.  The floor and the slope
    are separate claims: a posted WQE beyond the first few costs one
    pointer, and a ring slot is bytes of one region, no object."""
    _host_bytes_per_wired_connection("static", 1)  # first-wiring caches
    for scheme in SCHEMES:
        floor = _host_bytes_per_wired_connection(scheme, 1)
        assert floor <= 972, (scheme, floor, "shared idle objects: 526")
        deep = _host_bytes_per_wired_connection(scheme, 100)
        assert (deep - floor) / 99 <= 9, (scheme, floor, deep)
    floor = _host_bytes_per_wired_connection("rdma-eager", 1)
    assert floor <= 1_764, (floor, "shared idle objects: 1,315")
    deep = _host_bytes_per_wired_connection("rdma-eager", 100)
    assert (deep - floor) / 99 <= 1, (floor, deep)


# ----------------------------------------------------------------------
# ... what a rank costs before it has a single connection, and what a
# connection's first traffic adds: the FIFOs a configured depth bounds are
# lists (DESIGN §6.4 "Why a list"), a deque's first block is 760 B
# ----------------------------------------------------------------------
def _host_bytes_per_on_demand_rank(scheme, nranks=64):
    """``tracemalloc`` growth over building and launching an on-demand
    cluster, per rank: its ``HCA``, ``Endpoint``, CQ, matching engine, vbuf
    pool and tables — no connection yet (the fabric, the simulator and the
    tracer are in it once, ~1 % at 64 ranks)."""
    with _traced() as live:
        before = live()
        cluster = Cluster(TestbedConfig(nodes=nranks))
        cluster.launch(nranks, make_scheme(scheme), 1, on_demand=True)
        grown = live() - before
    return grown / nranks


def test_on_demand_rank_host_heap_budget():
    """At 1,024 on-demand ranks the ranks *are* the set-up's heap
    (``scale1024_od``): ~8,689 B each while the six FIFOs built with every
    rank — the CQ's entries, the adapter's ready ring and receive-engine
    burst, the matching engine's two queues, the pool's wait-list — were
    deques (6 x 760 B of first blocks, all empty), ~4,468 B with them
    lists.  The bound is the measured value + 5 %."""
    _host_bytes_per_on_demand_rank("static")  # first-launch caches
    for scheme in SCHEMES + ("rdma-eager",):
        per_rank = _host_bytes_per_on_demand_rank(scheme)
        assert per_rank <= 4_690, (scheme, per_rank, "parent: 8,689")


def _swap(*rounds):
    """Round by round, one eager message each way between every ``a: b`` of
    the round's pairs."""

    def program(mpi):
        for pairs in rounds:
            peer = pairs.get(mpi.rank)
            if peer is not None:
                rreq = yield from mpi.irecv(source=peer, capacity=64)
                yield from mpi.send(peer, size=4)
                yield from mpi.wait(rreq)

    return program


def _host_bytes_idle_to_engaged(scheme, nranks=8):
    """Live-heap growth of one wired mesh connection over its first traffic:
    the heap of a cluster whose job swaps one eager send each way between
    ranks r and r + 4 and then between ranks 2k and 2k+1, less that of one
    whose job swaps between r and r + 4 only.  The 2k / 2k+1 pairs are
    wired before either job, so only their traffic differs.  Each cluster
    is traced from before it exists and read after its job, collected;
    eight connections, so what the harness itself allocates between the
    two readings (a few dozen bytes under some plugins) stays under 1 %."""
    half = nranks // 2
    far = {r: (r + half) % nranks for r in range(nranks)}
    near = {r: r ^ 1 for r in range(nranks)}

    def heap(*rounds):
        gc.collect()  # the previous cluster's garbage refills the free lists
        with _traced() as live:
            cluster = Cluster(TestbedConfig(nodes=nranks))
            cluster.launch(nranks, make_scheme(scheme), 1, on_demand=False)
            for ep in cluster.endpoints:  # wired, idle until their round
                cluster.wire(ep, near[ep.rank])
            run_job(_swap(*rounds), nranks, scheme, 1, cluster=cluster, finalize=False)
            gc.collect()
            grown = live()
        assert set(cluster.endpoints[0].connections) == {1, half}
        return grown

    far_only = heap(far)  # first: it runs every code path the other job does
    return (heap(far, near) - far_only) / nranks  # r -> r ^ 1, every r


def test_engaged_connection_host_heap_budget():
    """What a wired connection's first traffic adds: the requester map's
    and the send queue's first entries, 164 B (``rdma-eager``, whose ring
    QP's requester half is used as well: 532 B).  The connection's own
    ``ConnStats`` and the QP's own ``Requester`` are part of the wiring
    (``test_wired_connection_host_heap_budget``); while they were built at
    a connection's first use this step was 580 B (948 B), and wiring plus
    first traffic summed the same 1,090 B a connection then as now.
    1,116 B while the send queue was a deque.  Bounds are the measured
    values + 5 %, taken as the growth over a second job on one cluster;
    as the difference of two clusters it reads 154 B (525 B)."""
    _host_bytes_idle_to_engaged("static")  # a process's first reads ~15 B more
    for scheme in SCHEMES:
        grown = _host_bytes_idle_to_engaged(scheme)
        assert grown <= 173, (scheme, grown, "built at first use: 580")
    grown = _host_bytes_idle_to_engaged("rdma-eager")
    assert grown <= 559, (grown, "built at first use: 948")
