"""A job's bookkeeping — the counter reset before it, the flow-control and
memory reports after it — visits the connections the ranks engaged and
answers what the scan of every connection answered.

The three full scans below are the bodies ``repro.core.stats`` and
``repro.core.memory`` had before, kept here verbatim as the oracles.  What
lets the shipped passes skip a connection is one invariant, checked here
too: a connection outside ``Endpoint._engaged`` is, field for field, what
``Endpoint.add_connection`` built — down to its counters, which are the
rank's one read-only idle ``ConnStats`` until ``Endpoint._engage``.
"""

from dataclasses import astuple, fields

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
from repro.core.stats import FlowControlReport, collect_report, reset_counters
from repro.faults import FaultPlan, scenario_job
from repro.mpi.connection import Connection, ConnStats, IdleConnStats
from repro.mpi.endpoint import Endpoint
from repro.sim.units import us
from repro.workloads.nas import KERNELS
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
    """Every slot of a connection as a comparable value (identities —
    the owning endpoint, the QP, the ring's addresses — by what they
    hold, so two clusters compare)."""
    out = {}
    for slot in Connection.__slots__:
        v = getattr(conn, slot)
        if slot == "endpoint":
            v = v.rank
        elif slot == "qp":
            v = queues and dict(
                {name: getattr(v, name) for name in QP_COUNTERS},
                posted_recvs=v.posted_recvs, outstanding_sends=v.outstanding_sends,
                requester=type(v._req).__name__)  # the shared idle one, as built
        elif slot == "recv_wr":
            v = (v.wr_id, v.capacity)
        elif slot == "stats":
            v = astuple(v)
        elif slot == "ring" and v is not None:
            v = (v.slot_bytes, v.ring.slots, list(v._arrived), list(v.cq_stash),
                 v.tx_slots, v.tx_next, v.messages, v.reestablishments)
        elif slot in ("backlog", "deferred"):
            v = list(v)
        out[slot] = v
    return out


def _fresh_mesh_like(cluster):
    """A just-launched full mesh of the same shape: what ``add_connection``
    builds for every (rank, peer), whether or not ``cluster`` ever did."""
    ep = cluster.endpoints[0]
    fresh = Cluster(cluster.config)
    fresh.launch(len(cluster.endpoints), make_scheme(ep.scheme.name),
                 ep.requested_prepost, on_demand=False)
    return fresh


def assert_idle_connections_are_as_built(cluster):
    fresh = _fresh_mesh_like(cluster)
    idle = 0
    for ep, fresh_ep in zip(cluster.endpoints, fresh.endpoints):
        for peer, conn in ep.connections.items():
            if peer not in ep._engaged:
                idle += 1
                # a dead rank's queues froze mid-flight, never polled
                queues = not ep._halted
                assert _state(conn, queues) == _state(
                    fresh_ep.connections[peer], queues), (ep.rank, peer)
        assert_idle_iff_sharing_the_ranks_counters(ep, fresh_ep)
    return idle


def assert_idle_iff_sharing_the_ranks_counters(ep, fresh_ep):
    """Outside ``_engaged`` ⇔ counting on the endpoint's one idle
    ``ConnStats``, which is still what a just-launched endpoint holds."""
    shared = ep._idle_stats
    assert type(shared) is IdleConnStats
    assert shared == fresh_ep._idle_stats and shared is not fresh_ep._idle_stats
    for peer, conn in ep.connections.items():
        assert (peer in ep._engaged) == (conn.stats is not shared), (ep.rank, peer)


def _connection_counters(endpoints):
    """What the reset zeroes, per directed connection (a dead rank's QPs
    aside: what its adapter accepted and it never polled stays counted)."""
    return {
        (ep.rank, peer): (astuple(conn.stats),
                          [getattr(conn.qp, name) for name in QP_COUNTERS
                           if not ep._halted])
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
    # add_connection posts it no vbufs (refill_recv_buffers returns 0)
    "stall-on-demand": lambda: _scenario("receiver-stall", on_demand=True),
    "stall-on-demand-hardware": lambda: _scenario("receiver-stall", "hardware",
                                                  on_demand=True),
}


@pytest.mark.parametrize("job", CORPUS.values(), ids=CORPUS.keys())
def test_engaged_passes_answer_what_the_full_scans_answer(job):
    cluster, r = job()
    eps = cluster.endpoints
    assert r.fc == collect_report(eps) == full_collect_report(eps)
    assert (r.memory == collect_memory_report(eps, cluster.config)
            == full_collect_memory_report(eps, cluster.config))
    assert_idle_connections_are_as_built(cluster)
    assert r.fc.total_msgs > 0  # there was something to zero
    reset_counters(eps)
    left = _connection_counters(eps)
    full_reset_connection_counters(eps)
    assert left == _connection_counters(eps)
    assert collect_report(eps).total_msgs == 0


def test_a_connection_built_inside_a_stall_window_is_not_taken_for_idle(monkeypatch):
    """The case the on-demand stall entries are in the corpus for: the
    stalled receiver's half was built with no vbufs posted."""
    seen = []
    real = Connection.refill_recv_buffers

    def spy(conn):
        n = real(conn)
        if not n and not conn.recv_posted and conn.seq_in_expected == 0:
            seen.append((conn.endpoint.rank, conn.peer))
        return n

    monkeypatch.setattr(Connection, "refill_recv_buffers", spy)
    cluster, _ = CORPUS["stall-on-demand"]()
    assert (1, 0) in seen  # built empty ...
    assert 0 in cluster.endpoints[1]._engaged  # ... and on record


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_connection_outside_engaged_is_what_add_connection_built(scheme):
    nranks = 12
    cluster, r = _run(_ring, nranks, scheme, 2, config=TestbedConfig(nodes=nranks))
    # ring neighbours and the dissemination barrier's partners, both ways
    partners = {d % nranks for k in range(4) for d in (1 << k, -(1 << k))}
    for ep in cluster.endpoints:
        assert ep._engaged == {(ep.rank + d) % nranks for d in partners}
    idle = assert_idle_connections_are_as_built(cluster)
    assert idle == nranks * (nranks - 1 - len(partners)) > 0
    # ... and stays so across the reset and a second job elsewhere
    run_job(_ring, nranks, scheme, 2, cluster=cluster, finalize=False)
    assert assert_idle_connections_are_as_built(cluster) == idle


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
    assert all(len(ep._engaged) == 2 for ep in r.endpoints)
    assert r.memory.connections == nranks * (nranks - 1) == 4032
    assert len(reads) <= sum(len(ep._engaged) + 1 for ep in r.endpoints) == 192


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
        c.recv_posted for ep in jobs[0].endpoints for c in ep.connections.values()) > 0


# ----------------------------------------------------------------------
# an idle connection counts on its endpoint's read-only ConnStats:
# forgetting Endpoint._engage is an exception at the offending line, not a
# count added to every other idle connection's row
# ----------------------------------------------------------------------
@pytest.mark.parametrize("job", CORPUS.values(), ids=CORPUS.keys())
def test_a_second_job_keeps_idle_shared_and_reports_what_the_scans_report(job):
    cluster, _ = job()  # job 1: the first test of this file, through the same helper
    eps = cluster.endpoints
    if any(ep._halted for ep in eps):
        return  # a dead rank stays dead: nothing runs on this cluster again
    ep = eps[0]
    r = run_job(_ring, len(eps), ep.scheme.name, ep.requested_prepost,
                cluster=cluster, finalize=False)
    assert r.fc == collect_report(eps) == full_collect_report(eps)
    assert (r.memory == collect_memory_report(eps, cluster.config)
            == full_collect_memory_report(eps, cluster.config))
    assert r.fc.total_msgs > 0
    assert_idle_connections_are_as_built(cluster)


def test_the_shared_idle_counters_cannot_be_written():
    cluster = Cluster(TestbedConfig(nodes=3))
    ep = cluster.launch(3, make_scheme("dynamic"), 2, on_demand=False)[0]
    shared = ep._idle_stats
    assert all(conn.stats is shared for conn in ep.connections.values())
    for f in fields(ConnStats):
        with pytest.raises(AttributeError, match=rf"ConnStats.*\.{f.name}\b"):
            setattr(shared, f.name, getattr(shared, f.name) + 1)
    with pytest.raises(AttributeError, match="ConnStats"):
        shared.__class__ = ConnStats  # no thawing it either
    assert astuple(shared) == astuple(ConnStats(max_prepost=2))  # nothing landed


def test_a_site_that_forgets_to_engage_raises_at_its_first_count(monkeypatch):
    """The mutation: ``_engage`` only records the peer.  The first counted
    message of the job raises — no report comes back with the count spread
    over the rank's other idle connections."""
    monkeypatch.setattr(Endpoint, "_engage",
                        lambda ep, conn: ep._engaged.add(conn.peer))
    with pytest.raises(AttributeError, match=r"idle ConnStats is read-only: \.msgs_sent"):
        run_job(_ring, 4, "static", 2)
