"""Mesh set-up costs what its state needs.

A static mesh is P*(P-1) connections of which a workload touches a
handful, so ``Cluster.launch`` builds the endpoints only and a pair is
wired at its first touch; a wired pair that stays idle is cheap on the
host too: the per-connection objects are slotted, the send-side queues
appear on first use, and the receive vbufs go to the QP in one batch.
None of it may show in the simulation: what gets posted (and what an
armed auditor sees of it) is pinned here against the closed forms of
:mod:`repro.core.memory`.
"""

import gc
from collections import deque

import pytest

from repro.check import Auditor
from repro.cluster import Cluster, TestbedConfig, run_job
from repro.core import make_scheme
from repro.core.memory import (
    collect_memory_report,
    mesh_pinned_bytes,
    qp_state_bytes,
)
from repro.faults import FaultPlan
from repro.ib import transport
from repro.ib.qp import QueuePair
from repro.ib.types import IBConfig, Opcode, QPState
from repro.ib.wr import RecvWR, SendWR
from repro.mpi.constants import NO_ENTRIES
from repro.mpi.protocol import MsgKind
from repro.sim.units import us

from tests.ib_helpers import build_pair
from tests.mpi_helpers import wire_all

ALL_SCHEMES = ("hardware", "static", "dynamic", "rdma-eager")


def _mesh(nranks, scheme, prepost):
    cluster = Cluster(TestbedConfig(nodes=nranks))
    cluster.launch(nranks, make_scheme(scheme), prepost, on_demand=False)
    return cluster


def _wired(nranks, scheme, prepost):
    """A mesh with every pair wired, as ``launch`` once built it."""
    return wire_all(_mesh(nranks, scheme, prepost))


def _conns(cluster):
    return [c for ep in cluster.endpoints for c in ep.connections.values()]


# ----------------------------------------------------------------------
# the collector is paused for the build and left as it was found
# ----------------------------------------------------------------------
@pytest.fixture
def collector():
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_launch_restores_the_collector(collector, enabled, monkeypatch):
    (gc.enable if enabled else gc.disable)()
    seen = set()
    real = Cluster.node_of_rank  # called from inside launch, once per rank
    monkeypatch.setattr(
        Cluster, "node_of_rank",
        lambda self, rank: (seen.add(gc.isenabled()), real(self, rank))[1],
    )
    cluster = _mesh(4, "static", 2)
    assert seen == {False}  # paused while the cluster was built
    assert gc.isenabled() is enabled

    # ... and when launch raises
    with pytest.raises(RuntimeError, match="already launched"):
        cluster.launch(4, make_scheme("static"), 2)
    assert gc.isenabled() is enabled
    with pytest.raises(ValueError):
        Cluster(TestbedConfig(nodes=2)).launch(0, make_scheme("static"), 2)
    assert gc.isenabled() is enabled
    with pytest.raises(Exception, match="requested_prepost"):
        Cluster(TestbedConfig(nodes=2)).launch(2, make_scheme("static"), 0)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("on_demand", [False, True])
def test_a_prepost_the_receive_queue_cannot_hold_builds_nothing(on_demand):
    """Pre-post plus headroom past ``rq_depth`` is refused before the first
    endpoint exists — it used to overflow the verbs receive queue on the
    first connection and leave a half-built cluster no retry could use."""
    cluster = Cluster(TestbedConfig(nodes=8))
    rq_depth = cluster.config.ib.rq_depth
    with pytest.raises(ValueError, match=f"posts {rq_depth + 1} receive WQEs.*"
                                         f"rq_depth = {rq_depth}"):
        cluster.launch(8, make_scheme("static"), rq_depth - 2, on_demand=on_demand)
    assert cluster.endpoints == [] and cluster.cm is None
    assert not cluster.hcas[0]._qps and not cluster.hcas[0].mrs._by_rkey
    cluster.launch(8, make_scheme("static"), 1, on_demand=on_demand)  # retry works


def test_the_setup_budget_is_the_schemes():
    """What is checked is what set-up posts: no headroom under hardware,
    only the control reserve on a ring, whatever the pre-post."""
    rq_depth = TestbedConfig().ib.rq_depth
    for scheme, prepost in (("hardware", rq_depth), ("rdma-eager", rq_depth + 1)):
        want = _expected_wqes(_mesh(2, scheme, prepost), scheme, prepost)
        assert make_scheme(scheme).setup_budget(prepost, TestbedConfig().mpi) == want
    with pytest.raises(ValueError, match="hardware"):
        _mesh(2, "hardware", rq_depth + 1)


def _old(obj):
    return any(o is obj for o in gc.get_objects(generation=2))


def _ranks(nranks):
    cluster = Cluster(TestbedConfig(nodes=8))
    cluster.launch(nranks, make_scheme("static"), 1, on_demand=False)
    return cluster


def test_launch_files_a_big_build_with_the_old_generation(collector):
    """Left alone the collector walks a fresh build twice more — at the
    first allocation after the pause and ten passes later, inside whatever
    job is running by then (a 40 ms step in ``mesh_build256``'s ``run_s``
    that an unrelated import could move in or out, while launch built the
    mesh).  ``launch`` pays one young-generation pass itself when the build
    is bigger than such a pass ever sees; a small one keeps to the
    collector's own schedule, and a collector the caller turned off is not
    run behind their back."""
    gc.enable()
    big = _ranks(1024)  # 1,024 endpoints, ~24,000 tracked objects
    assert _old(big.endpoints[0])
    assert gc.get_count()[0] < gc.get_threshold()[0]
    small = _ranks(4)
    assert not _old(small.endpoints[0])
    gc.disable()
    unasked = _ranks(1024)
    assert not _old(unasked.endpoints[0])


# ----------------------------------------------------------------------
# queues on first use
# ----------------------------------------------------------------------
def test_idle_connection_holds_no_queue_objects():
    cluster = _wired(4, "static", 1)
    for conn in _conns(cluster):
        for q in (conn.backlog, conn.deferred):
            assert q == () and not isinstance(q, deque)
            assert len(q) == 0 and not q and list(q) == []
        assert conn.qp._req._sq == [] and conn.qp.outstanding_sends == 0
        assert transport.injectable(conn.qp._req, conn.qp.hca._max_inflight) is None
        assert conn.qp.check_invariants() == []
        assert "backlog=0" in repr(conn) and "sq=0" in repr(conn.qp)
    assert all(ep._locally_quiescent() for ep in cluster.endpoints)


def test_auditor_final_check_walks_idle_connections(monkeypatch):
    """The end-of-job sweep checks every wired connection, idle ones too (a
    half that only received, a pair only the finalize barrier touched).  A
    pair nobody touched is not wired, and wiring it adds nothing to find:
    every pair wired afterwards, the sweep runs clean over all 56."""
    checked = []
    real = QueuePair.check_invariants
    monkeypatch.setattr(QueuePair, "check_invariants",
                        lambda qp: checked.append(qp) or real(qp))

    def prog(mpi):  # ranks 2 and 3 never touch a connection's queues
        if mpi.rank == 0:
            yield from mpi.send(1, size=4, payload="x")
        elif mpi.rank == 1:
            yield from mpi.recv(source=0, capacity=64)

    cluster = _mesh(8, "static", 1)
    r = run_job(prog, 8, "static", 1, cluster=cluster, audit=True)
    assert not r.audit.violations
    wired = [c.qp for c in _conns(cluster)]
    assert len(wired) < 56 and sorted(map(id, checked)) == sorted(map(id, wired))
    idle = r.endpoints[3].connections[2]  # the barrier's 2 -> 3, never sent
    assert idle.backlog == () and idle.deferred == () and idle.seq_out == 0
    checked.clear()
    wire_all(cluster)
    r.audit.on_job_end()
    assert sorted(map(id, checked)) == sorted(id(c.qp) for c in _conns(cluster))
    assert len(checked) == 56 and not r.audit.violations


def test_starved_flood_drains_the_backlog_fifo():
    n = 40

    def prog(mpi):
        if mpi.rank == 0:
            reqs = []
            for i in range(n):
                reqs.append((yield from mpi.isend(1, size=4, tag=7, payload=i)))
            yield from mpi.waitall(reqs)
            return None
        yield from mpi.compute(us(200))  # let the sender starve first
        got = []
        for _ in range(n):
            st = yield from mpi.recv(source=0, capacity=64, tag=7)
            got.append(st.payload)
        return got

    r = run_job(prog, 2, "static", 1, config=TestbedConfig(nodes=2), audit=True)
    assert r.rank_results[1] == list(range(n))
    conn = r.endpoints[0].connections[1]
    assert conn.stats.backlogged > 0 and conn.stats.backlog_max > 1
    assert conn.backlog == ()  # used, drained: back to the shared empty
    assert r.endpoints[1].connections[0].backlog == ()  # never used


def test_a_backlog_is_as_deep_as_the_application_makes_it():
    """Why ``Connection.backlog`` stayed a ``deque`` when the FIFOs a
    configured depth bounds became lists (DESIGN §6.4): nothing caps it.
    Credits gone and the receiver not polling, every ``isend`` parks — over
    ten thousand here — and the drain pops the head once per message; a
    list's ``pop(0)`` moves the whole queue each time (1.8 us at 10,000
    entries against a deque's 28 ns at any depth)."""
    n = 10_500

    def prog(mpi):
        if mpi.rank == 0:
            reqs = []
            for i in range(n):
                reqs.append((yield from mpi.isend(1, size=4, tag=7, payload=i)))
            yield from mpi.waitall(reqs)
            return None
        yield from mpi.compute(us(50_000))  # every send is issued meanwhile
        got = []
        for _ in range(n):
            st = yield from mpi.recv(source=0, capacity=64, tag=7)
            got.append(st.payload)
        return got

    r = run_job(prog, 2, "dynamic", 1, config=TestbedConfig(nodes=2),
                max_events=5_000_000)
    assert r.rank_results[1] == list(range(n))  # FIFO through the backlog
    conn = r.endpoints[0].connections[1]
    assert conn.stats.backlog_max >= 10_000
    assert conn.backlog == ()


def test_a_drained_backlog_and_its_tables_return_to_the_shared_empties():
    """A container that drains goes back to the shared empty it started as
    (DESIGN §6.4): the connection's backlog to ``()``, the rank's
    backlogged set to ``()``, its rendezvous tables to ``NO_ENTRIES``.  The
    next burst builds them again, and drains FIFO with every backlogged
    send marked, eager or through the rendezvous fallback."""
    n = 12
    arrived = []  # (tag, went_backlog) of each EAGER / RTS from rank 0

    class Arrivals:
        def on_deliver(self, conn, h):
            if conn.endpoint.rank == 1 and h.kind in (MsgKind.EAGER, MsgKind.RNDV_RTS):
                arrived.append((h.tag, h.went_backlog))

    def prog(mpi):
        got = []
        for burst in (1, 2):
            if mpi.rank == 0:
                reqs = []
                for i in range(n):
                    reqs.append((yield from mpi.isend(1, size=4, tag=burst, payload=i)))
                yield from mpi.waitall(reqs)
                got.append((mpi.connections[1].backlog, mpi._backlogged))
                yield from mpi.recv(source=1, capacity=64, tag=9)
            else:
                yield from mpi.compute(us(200))  # let the sender starve first
                for _ in range(n):
                    st = yield from mpi.recv(source=0, capacity=64, tag=burst)
                    got.append(st.payload)
                yield from mpi.send(0, size=4, tag=9)
        return got

    cluster = _mesh(2, "static", 1)
    cluster.observe(Arrivals())
    r = run_job(prog, 2, "static", 1, cluster=cluster, audit=True)
    assert r.completed and not r.audit.violations
    assert r.rank_results[0] == [((), ())] * 2  # drained after each burst
    assert r.rank_results[1] == list(range(n)) * 2  # FIFO both times
    stats = r.endpoints[0].connections[1].stats
    assert stats.backlogged == 2 * (n - 1) and stats.rndv_fallbacks > 0
    # the first send of a burst takes the credit, the rest went backlogged
    assert [w for tag, w in arrived if tag == 2] == [False] + [True] * (n - 1)
    for ep in r.endpoints:
        assert ep._backlogged == () and ep.connections[1 - ep.rank].backlog == ()
        assert ep._rndv_send is NO_ENTRIES and ep._rndv_recv is NO_ENTRIES


def test_qp_reset_returns_the_send_queue_to_empty():
    sim, fabric, hcas, qp0, qp1, cq0, cq1 = build_pair()
    req = qp0._req  # its own, through every incarnation
    assert req._sq == []
    qp0.post_send(SendWR(wr_id=1, opcode=Opcode.SEND, length=4))
    qp0.post_send(SendWR(wr_id=2, opcode=Opcode.SEND, length=4))
    assert [wr.wr_id for wr in req._sq] == [1, 2] and qp0.outstanding_sends == 2
    qp0.force_error()  # flushes both
    assert req._sq == [] and len(cq0) == 2
    new = qp0.successor()
    assert hcas[0].qp(qp0.qp_num) is None and hcas[0].qp(new.qp_num) is new
    req = new._req  # the successor's own
    assert req._sq == [] and req._next_msn == 0
    assert new.outstanding_sends == 0 and new.state is QPState.RESET
    new.connect(1, qp1.qp_num)
    new.post_send(SendWR(wr_id=3, opcode=Opcode.SEND, length=4))
    assert [wr.wr_id for wr in req._sq] == [3]


def test_a_go_back_n_rewind_keeps_the_send_queue_fifo():
    """The send queue is a list (``sq_depth`` bounds it — DESIGN §6.4), so
    the rewind puts the unacked window back with ``insert(0, ...)`` in
    descending MSN order, ahead of what was never injected."""
    cfg = IBConfig()
    sim, fabric, hcas, qp0, qp1, cq0, cq1 = build_pair(cfg)
    n = 8
    for i in range(n):  # no receive posted: MSN 0 is NAKed, the rest dropped
        qp0.post_send(SendWR(wr_id=i, opcode=Opcode.SEND, length=4, payload=i))
    sim.run(until=cfg.rnr_timer_ns // 2)
    req = qp0._req
    window = len(req._inflight)  # injected before the NAK froze the QP
    assert req._rnr_waiting and 1 < window < n
    assert [wr.wr_id for wr in req._sq] == list(range(window, n))
    sim.run(until=req._rnr_timer_ev.time)  # it rewinds and probes with MSN 0
    assert [wr.wr_id for wr in req._sq] == list(range(1, n))
    assert list(req._inflight) == [0]
    qp1.post_recv(RecvWR(wr_id="r", capacity=64), n)
    sim.run()
    assert [wc.data for wc in cq1.poll()] == list(range(n))
    assert [wc.wr_id for wc in cq0.poll()] == list(range(n))
    assert not req._sq and qp0.retransmissions >= window


def test_sever_returns_the_queues_to_empty():
    victim = 2

    def prog(mpi):
        if mpi.rank == 0:  # floods the victim: most of it sits in the backlog
            reqs = []
            for i in range(30):
                reqs.append((yield from mpi.isend(victim, size=4, tag=i)))
            sts = yield from mpi.waitall(reqs)
            return sum(1 for st in sts if st.error)
        yield from mpi.compute(us(2_000))  # the victim dies long before
        return None

    plan = FaultPlan(seed=7).rank_death(rank=victim, at_ns=us(20))
    r = run_job(prog, 4, "static", 1, faults=plan, ft=True, audit=True)
    assert [f.rank for f in r.failures] == [victim]
    conn = r.endpoints[0].connections[victim]
    assert conn.stats.backlogged > 0  # the backlog was a live deque ...
    assert r.rank_results[0] > 0  # ... whose requests failed PROC_FAILED
    for q in (conn.backlog, conn.deferred):
        assert q == () and not isinstance(q, deque)
    assert conn.qp.outstanding_sends == 0  # flushed: its own requester, drained


def test_cq_stash_appears_on_the_first_cross_channel_skew():
    def prog(mpi):
        if mpi.rank == 0:
            r1 = yield from mpi.isend(1, size=64, tag=1, payload="ring")
            r2 = yield from mpi.isend(1, size=50_000, tag=2, payload="rndv")
            yield from mpi.waitall([r1, r2])
        elif mpi.rank == 1:
            yield from mpi.compute(us(200))  # both arrive before the first poll
            a = yield from mpi.recv(source=0, capacity=64, tag=1)
            b = yield from mpi.recv(source=0, capacity=1 << 16, tag=2)
            return a.payload, b.payload

    r = run_job(prog, 3, "rdma-eager", 4, config=TestbedConfig(nodes=3),
                audit=True)
    assert r.rank_results[1] == ("ring", "rndv")  # delivered in sequence
    used = r.endpoints[1].connections[0].ring.cq_stash
    assert isinstance(used, list) and used == []  # parked one, drained it
    others = [c for c in _conns(r) if c is not r.endpoints[1].connections[0]]
    assert all(c.ring.cq_stash == () for c in others) and len(others) == 5


def test_sever_returns_a_used_cq_stash_to_empty():
    victim = 0
    seen = {}

    def prog(mpi):
        if mpi.rank == victim:
            r1 = yield from mpi.isend(1, size=64, tag=1, payload="ring")
            r2 = yield from mpi.isend(1, size=50_000, tag=2, payload="rndv")
            yield from mpi.waitall([r1, r2])
            yield from mpi.compute(us(5_000))  # dies in here
        elif mpi.rank == 1:
            yield from mpi.compute(us(200))
            a = yield from mpi.recv(source=victim, capacity=64, tag=1)
            b = yield from mpi.recv(source=victim, capacity=1 << 16, tag=2)
            seen["stash"] = type(mpi.connections[victim].ring.cq_stash)
            c = yield from mpi.recv(source=victim, capacity=64, tag=3)
            return a.payload, b.payload, c.error

    plan = FaultPlan(seed=7).rank_death(rank=victim, at_ns=us(1_000))
    r = run_job(prog, 3, "rdma-eager", 4, config=TestbedConfig(nodes=3),
                faults=plan, ft=True, audit=True)
    assert [f.rank for f in r.failures] == [victim]
    assert r.rank_results[1] == ("ring", "rndv", "PROC_FAILED")
    assert seen["stash"] is list  # a live list before the death ...
    severed = r.endpoints[1].connections[victim]
    assert severed.ring.cq_stash == () and not isinstance(severed.ring.cq_stash, list)


# ----------------------------------------------------------------------
# one batch posts what the per-buffer loop posted
# ----------------------------------------------------------------------
class _TallyingAuditor(Auditor):
    """Records what ``on_post_recv`` saw, per directed connection: the
    batch's count and ``recv_posted`` after it."""

    def __init__(self):
        super().__init__()
        self.seen = {}

    def on_post_recv(self, conn, n):
        self.seen.setdefault((conn.endpoint.rank, conn.peer), []).append(
            (n, conn.recv_posted)
        )
        super().on_post_recv(conn, n)


def _expected_wqes(cluster, scheme, prepost):
    s = make_scheme(scheme)
    if s.uses_ring:
        return cluster.config.mpi.rdma_control_bufs
    return prepost + s.optimistic_headroom


@pytest.mark.parametrize("prepost", [1, 10, 100])
@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_batched_preposting_matches_the_closed_forms(scheme, prepost):
    nranks = 4
    cluster = _wired(nranks, scheme, prepost)
    cfg = cluster.config
    want = _expected_wqes(cluster, scheme, prepost)
    conns = _conns(cluster)
    assert len(conns) == nranks * (nranks - 1)
    for conn in conns:
        assert conn.recv_posted == want
        assert conn.qp.posted_recvs == want
        assert conn.prepost_target + conn.headroom == want  # the receive budget
        # every WQE of a connection is the connection's one descriptor
        assert all(wr is conn.recv_wr for wr in conn.qp._rq)
        assert (conn.recv_wr.wr_id, conn.recv_wr.capacity) == (
            conn.peer, cfg.mpi.vbuf_bytes)
    mem = collect_memory_report(cluster.endpoints, cfg)
    assert mem.connections == len(conns)
    assert mem.vbuf_posted_bytes == len(conns) * want * cfg.mpi.vbuf_bytes
    assert mem.vbuf_pinned_bytes + mem.ring_bytes == mesh_pinned_bytes(
        nranks, scheme, prepost, cfg.mpi)
    assert mem.qp_bytes == len(conns) * qp_state_bytes(cfg.ib)


@pytest.mark.parametrize("prepost", [1, 10, 100])
@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_armed_auditor_observes_every_buffer_of_a_batch(scheme, prepost):
    """The auditor attaches to a launched cluster, so the armed batch is
    an on-demand connection's: one ``on_post_recv`` for the batch, carrying
    its count and seeing ``recv_posted`` raised by all of it, and one hook
    call counted per buffer."""
    nranks = 3
    cluster = Cluster(TestbedConfig(nodes=nranks))
    cluster.launch(nranks, make_scheme(scheme), prepost, on_demand=True)
    audit = _TallyingAuditor()
    audit.arm(cluster)
    for a in range(nranks):
        for b in range(a + 1, nranks):
            cluster.cm.request(cluster.endpoints[a], b)
    cluster.sim.run(max_events=10_000)
    want = _expected_wqes(cluster, scheme, prepost)
    pairs = {(a, b) for a in range(nranks) for b in range(nranks) if a != b}
    assert set(audit.seen) == pairs
    for seen in audit.seen.values():
        assert seen == [(want, want)]
    assert audit.hook_calls == len(pairs) * want
    assert not audit.violations
    for conn in _conns(cluster):
        assert conn.recv_posted == conn.qp.posted_recvs == want

    # a double post is still caught, naming the population over budget
    conn = cluster.endpoints[0].connections[1]
    conn.recv_posted -= 1  # pretend one was consumed; the QP still holds it
    if want + 1 <= cluster.config.ib.rq_depth:
        audit.strict = False
        cluster.endpoints[0]._post_recv_vbuf(conn, 2)
        assert [v.invariant for v in audit.violations] == ["buffer-lease"]
        assert f"{want + 1} receive vbufs posted" in audit.violations[0].detail
