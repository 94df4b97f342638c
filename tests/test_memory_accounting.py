"""Per-scheme memory accounting (repro.core.memory): measured footprints
must conserve against the closed forms, stay invariant under the ECM
threshold (which shapes credit-return *traffic*, never buffer counts),
and reproduce the paper's scalability headline — on-demand pinned bytes
track the communication graph, full-mesh pinned bytes track P².
"""

import contextlib
import gc
import tracemalloc

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
# connection is *charged*; this is what one idle connection costs the
# simulator's own heap
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


def _host_bytes_per_idle_connection(scheme, prepost, nranks=32):
    """``tracemalloc`` growth over ``Cluster.launch`` of a full mesh, per
    connection (its QP, Connection, stats, descriptor, posted WQEs and
    the two table entries)."""
    cluster = Cluster(TestbedConfig(nodes=nranks))
    with _traced() as live:
        before = live()
        cluster.launch(nranks, make_scheme(scheme), prepost, on_demand=False)
        grown = live() - before
    return grown / (nranks * (nranks - 1))


def test_idle_mesh_connection_host_heap_budget():
    """A 256-rank mesh is 65,280 connections and a 1,024-rank one
    1,047,552, so bytes per idle connection *is* the mesh's peak RSS:
    5,859 B before the per-connection objects were slotted and their
    queues made first-use, ~1,950 B while the receive queue was a deque
    (760 B for its first block, whatever it held), ~1,120 B with the
    receive queue a list, the requester map and the stash first-use, and
    the per-adapter constants read from the HCA, ~1,060 B with the seven
    ring-only fields folded into one ``Connection.ring`` (None here),
    ~1,016 B with ``Endpoint`` slotted (its instance dict was 1/31 of
    this 32-rank measure), ~893 B with one read-only idle ``ConnStats``
    shared per rank (``Endpoint._engage`` hands a connection its own),
    ~804 B with the rank's own FIFOs lists (nothing per connection: four
    deques' 2,816 B a rank, 1/31 of it at this 32-rank measure), ~628 B
    with the QP's requester half behind the shared ``IDLE_REQUESTER``
    (17 slots, a 288-B block to a 160-B one) and one receive descriptor per
    (peer, capacity) instead of per connection (48 B).
    Deterministic for a given interpreter; the bound is the measured
    value + 30 B — room for a CPython whose object headers differ, not
    for a new per-connection field.

    The floor and the slope are separate claims: a posted WQE beyond the
    first few costs one pointer."""
    for scheme in SCHEMES:
        floor = _host_bytes_per_idle_connection(scheme, 1)
        assert floor <= 658, (scheme, floor, "parent: 804")
        deep = _host_bytes_per_idle_connection(scheme, 100)
        assert (deep - floor) / 99 <= 9, (scheme, floor, deep)


def test_idle_ring_connection_host_heap_budget():
    """``rdma-eager`` adds its ring channel (an ``RDMAChannel``, its ring
    and the registered region's bookkeeping) to every connection: its own
    ceiling (2,762 B while the receive queue was a deque, ~1,980 B with
    it a list, ~1,880 B with the channel slotted and holding both halves,
    ~1,708 B with the idle ``ConnStats`` shared, ~1,619 B with the rank's
    FIFOs lists, ~1,443 B with the idle requester and the descriptor shared
    (one QP per connection here too) — the same steps and the same + 30
    rule as above), and no
    object per slot — ring
    slots are bytes of one region (what moves with the depth is the size
    of a few address integers)."""
    floor = _host_bytes_per_idle_connection("rdma-eager", 1)
    assert floor <= 1_473, (floor, "parent: 1,619")
    deep = _host_bytes_per_idle_connection("rdma-eager", 100)
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


def _swap(pairs):
    """One eager message each way between every ``a: b`` of ``pairs``."""

    def program(mpi):
        peer = pairs.get(mpi.rank)
        if peer is not None:
            rreq = yield from mpi.irecv(source=peer, capacity=64)
            yield from mpi.send(peer, size=4)
            yield from mpi.wait(rreq)

    return program


def _host_bytes_idle_to_engaged(scheme, nranks=8):
    """Live-heap growth of one mesh connection from idle to engaged: one
    eager send each way between ranks 2k and 2k+1, whose first traffic
    (rank r with rank r + 4) an earlier job already paid for.  Traced from
    before the cluster exists, so an object a job replaces nets to zero;
    eight connections, so what the harness itself allocates between the
    two readings (a few dozen bytes under some plugins) stays under 1 %."""
    half = nranks // 2
    far = {r: (r + half) % nranks for r in range(nranks)}
    near = {r: r ^ 1 for r in range(nranks)}
    with _traced() as live:
        cluster = Cluster(TestbedConfig(nodes=nranks))
        cluster.launch(nranks, make_scheme(scheme), 1, on_demand=False)
        run_job(_swap(far), nranks, scheme, 1, cluster=cluster, finalize=False)
        gc.collect()
        before = live()
        run_job(_swap(near), nranks, scheme, 1, cluster=cluster, finalize=False)
        gc.collect()
        grown = live() - before
    assert cluster.endpoints[0]._engaged == {1, half}
    return grown / nranks  # r -> r ^ 1, every r


def test_engaged_connection_host_heap_budget():
    """What ``Endpoint._engage`` and the first ``post_send`` add to an idle
    connection: its own ``ConnStats`` (128 B), the requester map (224 B)
    and the send queue — 1,116 B while the send queue was a deque, 412 B
    with it a list that is empty again once its message is acknowledged,
    580 B now that the QP's own ``Requester`` (168 B) is part of the step
    instead of 128 B of every idle QP: what an all-to-all job pays (on the
    1,024-rank mesh it engages 1,047,552 of them) is +40 B a connection
    against the parent, idle and engaged summed (+48 B in allocator
    blocks).  ``rdma-eager`` engages the ring QP's requester half as
    well: 1,484 -> 780 -> 948 B.  Bounds are the measured values + 5 %."""
    _host_bytes_idle_to_engaged("static")  # a process's first reads ~15 B more
    for scheme in SCHEMES:
        grown = _host_bytes_idle_to_engaged(scheme)
        assert grown <= 609, (scheme, grown, "parent: 412")
    grown = _host_bytes_idle_to_engaged("rdma-eager")
    assert grown <= 995, (grown, "parent: 780")
