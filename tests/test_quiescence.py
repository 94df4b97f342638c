"""``Endpoint._locally_quiescent`` looks only at the peers this rank ever
engaged — on a static mesh, the pairs it wired — and answers what the scan
of every connection answered.

The reference below is the full scan, kept here as the oracle.  It is
compared with the endpoint's answer at every call ``finalize`` makes and,
to catch the states in between (sends un-ACKed, a backlog, a connection
mid-recovery), after every completion any rank handles.  The white-box
cases at the bottom isolate each way a wired, idle connection first holds
something to wait for: a post, an arrival, a backlog, a parked emission, a
recovery.
"""

import pytest

from repro.cluster import Cluster, TestbedConfig, run_job
from repro.core import make_scheme
from repro.faults import scenario_job
from repro.ib.types import QPState
from repro.mpi.connection import PendingSend
from repro.mpi.endpoint import Endpoint
from repro.mpi.protocol import Header, MsgKind
from repro.mpi.request import Request
from repro.sim.units import us
from repro.workloads.nas import KERNELS

from tests.mpi_helpers import wire_all


def full_scan(ep):
    dead = ep._ft.dead if ep._ft is not None else ()
    return (
        all(
            not c.backlog
            and not c.recovering
            and not c.deferred
            and c.qp.outstanding_sends == 0
            for p, c in ep.connections.items()
            if p not in dead
        )
        and not ep._rndv_send
        and not ep._sends_open
        and len(ep.cq) == 0
    )


@pytest.fixture
def compared(monkeypatch):
    """Arm the comparison; yields the tally of answers seen."""
    real = Endpoint._locally_quiescent
    handle_wc = Endpoint._handle_wc
    seen = {"finalize": 0, "mid-run": 0, True: 0, False: 0}

    def check(ep, where):
        got = real(ep)
        assert got == full_scan(ep), (ep.rank, where, sorted(ep.connections))
        seen[where] += 1
        seen[got] += 1
        return got

    def after_each_completion(ep, wc):
        cost = handle_wc(ep, wc)
        check(ep, "mid-run")
        return cost

    monkeypatch.setattr(Endpoint, "_locally_quiescent",
                        lambda ep: check(ep, "finalize"))
    monkeypatch.setattr(Endpoint, "_handle_wc", after_each_completion)
    return seen


def _ring(mpi):
    nxt, prv = (mpi.rank + 1) % mpi.world_size, (mpi.rank - 1) % mpi.world_size
    for i in range(4):
        rreq = yield from mpi.irecv(source=prv, capacity=4096, tag=i)
        yield from mpi.send(nxt, size=1024, tag=i)
        yield from mpi.wait(rreq)


def _starved_flood(mpi):
    n = 60
    if mpi.rank == 0:
        reqs = []
        for i in range(n):
            reqs.append((yield from mpi.isend(1, size=4, tag=7)))
        yield from mpi.waitall(reqs)
    else:
        yield from mpi.compute(us(300))  # the sender runs dry and backlogs
        for _ in range(n):
            yield from mpi.recv(source=0, capacity=64, tag=7)


def _scenario(name, scheme="static", **armed):
    return run_job(scheme=scheme, **scenario_job(name, **armed))


@pytest.mark.parametrize("job, reached", [
    (lambda: run_job(KERNELS["lu"].build(timesteps=2), 8, "static", 100),
     lambda r: r.fc.total_msgs > 1_000),
    (lambda: run_job(_starved_flood, 2, "static", 10, config=TestbedConfig(nodes=2)),
     lambda r: r.fc.backlogged_msgs > 0),
    (lambda: run_job(_ring, 6, "rdma-eager", 2),
     lambda r: r.memory.ring_bytes > 0),
    (lambda: run_job(_ring, 6, "dynamic", 1, on_demand=True),
     lambda r: r.connections_established > 0),
    (lambda: _scenario("link-down-permanent", recovery=True),
     lambda r: r.completed and r.recovery.recoveries_completed >= 1),
    (lambda: _scenario("rank-death", ft=True),
     lambda r: [f.rank for f in r.failures] == [2]),
], ids=["lu8", "starved-flood", "rdma-eager-ring", "on-demand-ring",
        "link-down-recovery", "rank-death-ft"])
def test_engaged_peers_answer_what_the_full_scan_answers(compared, job, reached):
    r = job()
    assert reached(r)  # the run got into the state it is here for
    assert compared["finalize"] >= r.nranks - len(r.failures)
    assert compared["mid-run"] > 0
    assert compared[True] and compared[False]  # both answers were exercised
    for ep in r.endpoints:
        assert set(ep.connections) <= set(range(r.nranks)) - {ep.rank}


def test_an_idle_mesh_engages_only_its_barrier_partners_both_ways():
    nranks = 32

    def idle(mpi):
        return
        yield

    r = run_job(idle, nranks, "dynamic", 1, config=TestbedConfig(nodes=nranks),
                on_demand=False)
    for ep in r.endpoints:
        # the dissemination barrier sends to rank + 2^k and hears from
        # rank - 2^k: a pair is wired from either end
        assert set(ep.connections) == {(ep.rank + d) % nranks
                                       for k in range(5) for d in (1 << k, -(1 << k))}
        assert ep.finalized and ep._locally_quiescent() and full_scan(ep)


# ----------------------------------------------------------------------
# each way on its own: a wired connection that never sent first holds
# something to wait for
# ----------------------------------------------------------------------
def _idle_mesh(nranks=4, scheme="static"):
    cluster = Cluster(TestbedConfig(nodes=nranks))
    cluster.launch(nranks, make_scheme(scheme), 2, on_demand=False)
    wire_all(cluster)
    ep = cluster.endpoints[0]
    assert ep._locally_quiescent() and full_scan(ep)
    return cluster, ep, ep.connections[2]


def _header(ep, conn):
    return Header(kind=MsgKind.EAGER, src=ep.rank, dst=conn.peer, size=4)


def test_first_post_engages():
    _, ep, conn = _idle_mesh()
    ep._emit(conn, _header(ep, conn), Request("send"))
    assert conn.qp.outstanding_sends == 1
    assert not ep._locally_quiescent() and not full_scan(ep)


def test_first_arrival_engages():
    cluster, ep, _ = _idle_mesh()
    sender = cluster.endpoints[2]
    sender._emit(sender.connections[0], _header(sender, sender.connections[0]),
                 Request("send"))
    cluster.sim.run(max_events=1_000)
    assert len(ep.cq) == 1  # landed, not yet polled
    assert not ep._locally_quiescent() and not full_scan(ep)
    cluster.sim.spawn(ep.test(Request("recv")))
    cluster.sim.run(max_events=1_000)
    conn = ep.connections[2]
    assert conn.seq_in_expected == 1 and conn.qp.outstanding_sends == 0
    assert ep._locally_quiescent() and full_scan(ep)


def test_first_backlogged_send_engages():
    _, ep, conn = _idle_mesh()
    ep._enqueue_backlog(conn, PendingSend(_header(ep, conn), Request("send"), 0))
    assert conn.qp.outstanding_sends == 0  # nothing was posted
    assert not ep._locally_quiescent() and not full_scan(ep)


def test_first_parked_emission_engages():
    _, ep, conn = _idle_mesh()
    conn.recovering = True  # by hand: the manager's own site is not involved
    assert ep._emit(conn, _header(ep, conn), Request("send")) == 0
    conn.recovering = False
    assert len(conn.deferred) == 1 and conn.qp.outstanding_sends == 0
    assert not ep._locally_quiescent() and not full_scan(ep)


def test_recovery_of_a_pair_that_never_sent_engages_both_ends(compared):
    """An idle QP errors out (its posted receives flush): the owner's next
    poll starts a recovery of a pair neither end ever sent on, and
    ``finalize`` must wait for the re-arm."""
    cluster, ep0, conn = _idle_mesh()
    ep2 = cluster.endpoints[2]
    cluster.sim.schedule(us(5), conn.qp.force_error)
    engaged_mid_recovery = []

    def prog(mpi):
        yield from mpi.compute(us(10))
        if mpi.rank == 0:
            yield from mpi.test(Request("recv"))  # polls the flushes
            engaged_mid_recovery.append((ep0._locally_quiescent(), ep2._locally_quiescent(),
                                         conn.recovering, ep2.connections[0].recovering))

    r = run_job(prog, 4, "static", 2, cluster=cluster, recovery=True)
    assert engaged_mid_recovery == [(False, False, True, True)]
    assert r.completed and r.recovery.recoveries_completed == 1
    assert conn.qp.state is QPState.READY and not conn.recovering
    assert compared[False] > 0  # finalize did wait on the recovering pair
