"""A job's bookkeeping — the counter reset before it, the flow-control and
memory reports after it — visits the connections the ranks engaged (the
pairs they wired) and answers what the scan of every connection answered.

The three full scans below are the bodies ``repro.core.stats`` and
``repro.core.memory`` had before, kept here verbatim as the oracles.  A
static mesh wires a pair at its first touch, and a report counts every
pair not wired yet as one stand-in (``Endpoint.idle_connection``), so the
scans run after every pair is wired (``wire_all``): the whole mesh, as
launch once built it.  A count that landed anywhere the reports do not
look — on the stand-in, on a pair they skip — makes the two disagree.
What lets the stand-in stand for a pair is one invariant, checked here
too: a pair the job never touched is, field for field, the stand-in.
"""

from dataclasses import astuple

import pytest

from repro.cluster import Cluster, TestbedConfig, run_job
from repro.core import make_scheme
from repro.core import memory as memory_mod
from repro.core.memory import (
    CQE_BYTES,
    MemoryReport,
    collect_memory_report,
    connection_memory_bytes,
)
from repro.core.stats import (
    FlowControlReport,
    collect_report,
    connection_table,
    reset_counters,
)
from repro.faults import FaultPlan, scenario_job
from repro.mpi.connection import Connection
from repro.sim.units import us
from repro.workloads.nas import KERNELS
from tests.mpi_helpers import wire_all
from tests.test_quiescence import _ring, _starved_flood

SCHEMES = ["hardware", "static", "dynamic", "rdma-eager"]
QP_COUNTERS = ("rnr_naks_received", "rnr_naks_sent", "retransmissions",
               "messages_sent", "messages_delivered")


# ----------------------------------------------------------------------
# the oracles: every connection of every endpoint, one at a time
# ----------------------------------------------------------------------
def full_collect_report(endpoints):
    total = data = ecm = backlogged = fallbacks = 0
    piggy = ecmc = naks = retrans = 0
    ctl = ctl_backlogged = 0
    max_posted = backlog_max = 0
    conn_count = 0
    for ep in endpoints:
        for conn in ep.connections.values():
            s = conn.stats
            conn_count += 1
            total += s.msgs_sent
            data += s.data_msgs_sent
            ctl += s.ctl_msgs_sent
            ecm += s.ecm_sent
            backlogged += s.backlogged
            ctl_backlogged += s.ctl_backlogged
            fallbacks += s.rndv_fallbacks
            piggy += s.piggybacked_credits
            ecmc += s.ecm_credits
            max_posted = max(max_posted, s.max_prepost)
            backlog_max = max(backlog_max, s.backlog_max)
            naks += conn.qp.rnr_naks_received
            retrans += conn.qp.retransmissions
    return FlowControlReport(
        total_msgs=total,
        data_msgs=data,
        ecm_msgs=ecm,
        backlogged_msgs=backlogged,
        backlog_max=backlog_max,
        rndv_fallbacks=fallbacks,
        max_posted_buffers=max_posted,
        avg_ecm_per_connection=(ecm / conn_count) if conn_count else 0.0,
        piggybacked_credits=piggy,
        ecm_credits=ecmc,
        rnr_naks=naks,
        retransmissions=retrans,
        control_msgs=ctl,
        control_backlogged=ctl_backlogged,
    )


def full_collect_memory_report(endpoints, config):
    mpi, ib = config.mpi, config.ib
    connections = 0
    pinned = posted = qp = ring = cq = pool = 0
    per_rank_peak = 0
    for ep in endpoints:
        rank_bytes = ib.cq_depth * CQE_BYTES
        rank_bytes += mpi.send_pool_buffers * mpi.vbuf_bytes
        cq += ib.cq_depth * CQE_BYTES
        pool += mpi.send_pool_buffers * mpi.vbuf_bytes
        for conn in ep.connections.values():
            connections += 1
            p, po, q, rg = connection_memory_bytes(conn, mpi, ib)
            pinned += p
            posted += po
            qp += q
            ring += rg
            rank_bytes += p + q + rg
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


def full_reset_connection_counters(endpoints):
    """The per-connection half of the old ``reset_counters`` (the
    per-endpoint half never depended on the connection count)."""
    for ep in endpoints:
        for conn in ep.connections.values():
            conn.reset_stats()
            conn.qp.reset_counters()  # the verbs layer's own (QP_COUNTERS)


# ----------------------------------------------------------------------
# the invariant the shipped passes rest on
# ----------------------------------------------------------------------
def _state(conn, queues=True):
    """Every slot of a connection but its peer as a comparable value
    (identities — the owning endpoint, the QP, the ring's addresses — by
    what they hold, so a pair compares with the stand-in)."""
    out = {}
    for slot in Connection.__slots__:
        v = getattr(conn, slot)
        if slot == "peer":
            continue
        if slot == "endpoint":
            v = v.rank
        elif slot == "qp":
            v = queues and dict(
                {name: getattr(v, name) for name in QP_COUNTERS},
                posted_recvs=v.posted_recvs, outstanding_sends=v.outstanding_sends)
        elif slot == "recv_wr":
            v = v.capacity
        elif slot == "stats":
            v = astuple(v)
        elif slot == "ring" and v is not None:
            v = (v.slot_bytes, v.ring.slots, list(v._arrived), list(v.cq_stash),
                 v.tx_slots, v.tx_next, v.messages)
        elif slot in ("backlog", "deferred"):
            v = list(v)
        out[slot] = v
    return out


def _touched(cluster):
    """The directed pairs the ranks wired so far."""
    return {(ep.rank, peer) for ep in cluster.endpoints for peer in ep.connections}


def assert_untouched_pairs_are_the_stand_in(cluster, touched):
    """Every connection outside ``touched`` — a pair ``wire_all`` wired
    after the job — is, slot for slot but its peer, the stand-in the
    reports counted it as."""
    untouched = 0
    for ep in cluster.endpoints:
        queues = not ep.hca.dead  # a dead rank's queues froze mid-flight, never polled
        stand_in = _state(ep.idle_connection(), queues)
        for peer, conn in ep.connections.items():
            if (ep.rank, peer) not in touched:
                untouched += 1
                assert _state(conn, queues) == stand_in, (ep.rank, peer)
    return untouched


def _connection_counters(endpoints):
    """What the reset zeroes, per directed connection (a dead rank's QPs
    aside: what its adapter accepted and it never polled stays counted)."""
    return {
        (ep.rank, peer): (astuple(conn.stats),
                          [getattr(conn.qp, name) for name in QP_COUNTERS
                           if not ep.hca.dead])
        for ep in endpoints for peer, conn in ep.connections.items()
    }


# ----------------------------------------------------------------------
# the corpus: tests/test_quiescence.py's, armed and unarmed, mesh and
# on-demand, plus a connection established inside a receiver stall
# ----------------------------------------------------------------------
def _run(program, nranks, scheme, prepost, config=None, on_demand=False, **armed):
    cluster = Cluster(config)
    cluster.launch(nranks, make_scheme(scheme), prepost, on_demand=on_demand)
    return cluster, run_job(program, nranks, scheme, prepost, cluster=cluster, **armed)


def _scenario(name, scheme="static", on_demand=False, **armed):
    return _run(scheme=scheme, **scenario_job(name, on_demand=on_demand, **armed))


def _death_with_bystanders(mpi):
    """Rank 2 dies while rank 0 waits on it; ranks 1 and 3 only ever talk
    to each other, yet the failure detector severs *their* connection to
    the dead rank too (its posted receives flush)."""
    if mpi.rank == 2:
        yield from mpi.recv(source=0, capacity=1 << 16)
        yield from mpi.compute(us(10_000))  # never finishes: dead by then
    elif mpi.rank == 0:
        yield from mpi.send(2, size=256)
        status = yield from mpi.recv(source=2, capacity=1 << 16)
        return status.error
    else:
        other = 4 - mpi.rank
        for i in range(3):
            rreq = yield from mpi.irecv(source=other, capacity=4096, tag=i)
            yield from mpi.send(other, size=1024, tag=i)
            yield from mpi.wait(rreq)


CORPUS = {
    "lu8": lambda: _run(KERNELS["lu"].build(timesteps=2), 8, "static", 100),
    "lu8-audited": lambda: _run(KERNELS["lu"].build(timesteps=2), 8, "dynamic", 2,
                                audit=True),
    "starved-flood": lambda: _run(_starved_flood, 2, "static", 10,
                                  config=TestbedConfig(nodes=2)),
    "rdma-eager-ring": lambda: _run(_ring, 6, "rdma-eager", 2),
    "on-demand-ring": lambda: _run(_ring, 6, "dynamic", 1, on_demand=True),
    "mesh-ring-no-finalize": lambda: _run(_ring, 8, "hardware", 2, finalize=False),
    "link-down-recovery": lambda: _scenario("link-down-permanent", recovery=True),
    "rank-death-ft": lambda: _scenario("rank-death", ft=True),
    "rank-death-bystanders": lambda: _run(
        _death_with_bystanders, 4, "static", 4, ft=True,
        faults=FaultPlan(seed=7).rank_death(rank=2, at_ns=us(40))),
    # the receiver's half of the pair is established while it is stalled:
    # the connection manager posts it no vbufs (refill_recv_buffers returns 0)
    "stall-on-demand": lambda: _scenario("receiver-stall", on_demand=True),
    "stall-on-demand-hardware": lambda: _scenario("receiver-stall", "hardware",
                                                  on_demand=True),
}


@pytest.mark.parametrize("job", CORPUS.values(), ids=CORPUS.keys())
def test_engaged_passes_answer_what_the_full_scans_answer(job):
    cluster, r = job()
    touched = _touched(cluster)
    # the scans see a mesh's every pair: the ones the job never touched are
    # wired now, as launch once wired them
    eps = wire_all(cluster).endpoints
    assert r.fc == collect_report(eps) == full_collect_report(eps)
    assert (r.memory == collect_memory_report(eps, cluster.config)
            == full_collect_memory_report(eps, cluster.config))
    assert_untouched_pairs_are_the_stand_in(cluster, touched)
    assert r.fc.total_msgs > 0  # there was something to zero
    reset_counters(eps)
    left = _connection_counters(eps)
    full_reset_connection_counters(eps)
    assert left == _connection_counters(eps)
    assert collect_report(eps).total_msgs == 0


def test_a_connection_built_inside_a_stall_window_is_not_taken_for_idle(monkeypatch):
    """The case the on-demand stall entries are in the corpus for: the
    stalled receiver's half was built with no vbufs posted, and the
    reports count it as it is."""
    seen = []
    real = Connection.refill_recv_buffers

    def spy(conn):
        n = real(conn)
        if not n and not conn.recv_posted and conn.seq_in_expected == 0:
            seen.append((conn.endpoint.rank, conn.peer))
        return n

    monkeypatch.setattr(Connection, "refill_recv_buffers", spy)
    cluster, r = CORPUS["stall-on-demand"]()
    assert (1, 0) in seen  # built empty ...
    eps = cluster.endpoints
    assert 0 in eps[1].connections  # ... and on record
    assert r.memory == full_collect_memory_report(eps, cluster.config)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_connection_outside_engaged_is_what_add_connection_built(scheme):
    nranks = 12
    cluster, r = _run(_ring, nranks, scheme, 2, config=TestbedConfig(nodes=nranks))
    # ring neighbours and the dissemination barrier's partners, both ways
    partners = {d % nranks for k in range(4) for d in (1 << k, -(1 << k))}
    for ep in cluster.endpoints:
        assert set(ep.connections) == {(ep.rank + d) % nranks for d in partners}
    touched = _touched(cluster)
    wire_all(cluster)
    idle = assert_untouched_pairs_are_the_stand_in(cluster, touched)
    assert idle == nranks * (nranks - 1 - len(partners)) > 0
    # ... and stays so across the reset and a second job elsewhere
    run_job(_ring, nranks, scheme, 2, cluster=cluster, finalize=False)
    assert assert_untouched_pairs_are_the_stand_in(cluster, touched) == idle


# ----------------------------------------------------------------------
# the fixed cost, in the spirit of tests/test_call_budget.py: a job on a
# mesh reads the connections it engaged plus one idle stand-in per rank
# ----------------------------------------------------------------------
def test_a_mesh_job_reads_only_the_connections_it_engaged(monkeypatch):
    nranks = 64
    reads = []

    def counting(conn, mpi, ib):
        reads.append(conn)
        return connection_memory_bytes(conn, mpi, ib)

    monkeypatch.setattr(memory_mod, "connection_memory_bytes", counting)
    r = run_job(_ring, nranks, "dynamic", 1, config=TestbedConfig(nodes=nranks),
                on_demand=False, finalize=False)
    assert all(len(ep.connections) == 2 for ep in r.endpoints)
    assert r.memory.connections == nranks * (nranks - 1) == 4032
    assert len(reads) <= sum(len(ep.connections) + 1 for ep in r.endpoints) == 192


@pytest.mark.parametrize("on_demand", [False, True], ids=["mesh", "on-demand"])
def test_the_scaling_cell_reads_its_posted_buffers_off_the_report(monkeypatch, on_demand):
    from repro.campaign import cells

    jobs = []

    def capturing(*args, **kwargs):
        jobs.append(run_job(*args, **kwargs))
        return jobs[-1]

    monkeypatch.setattr(cells, "run_job", capturing)
    metrics = cells.CELL_KINDS["ring"]({"nodes": 64, "iterations": 2, "scheme": "dynamic",
                                        "prepost": 1, "on_demand": on_demand})
    assert metrics["posted_buffers"] == sum(
        c.recv_posted for ep in jobs[0].endpoints for _, c in connection_table(ep)) > 0


# ----------------------------------------------------------------------
# a second job on the same cluster: one stand-in a rank still stands for
# every pair neither job touched
# ----------------------------------------------------------------------
@pytest.mark.parametrize("job", CORPUS.values(), ids=CORPUS.keys())
def test_a_second_job_keeps_idle_shared_and_reports_what_the_scans_report(job):
    cluster, _ = job()  # job 1: the first test of this file, through the same helper
    eps = cluster.endpoints
    if any(ep.hca.dead for ep in eps):
        return  # a dead rank stays dead: nothing runs on this cluster again
    ep = eps[0]
    r = run_job(_ring, len(eps), ep.scheme.name, ep.requested_prepost,
                cluster=cluster, finalize=False)
    touched = _touched(cluster)
    wire_all(cluster)
    assert r.fc == collect_report(eps) == full_collect_report(eps)
    assert (r.memory == collect_memory_report(eps, cluster.config)
            == full_collect_memory_report(eps, cluster.config))
    assert r.fc.total_msgs > 0
    assert_untouched_pairs_are_the_stand_in(cluster, touched)
