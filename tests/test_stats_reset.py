"""Regression: counters must reset between ``run_job`` calls on a reused
cluster (ISSUE 3 satellite).

Before this fix, running two jobs on one launched cluster aggregated
ConnStats / QP / pool counters across both, so the second job's
FlowControlReport double-counted everything; analysis Figures/Tables had
no way to drop accumulated points either.
"""

from repro.analysis import Figure, Table
from repro.analysis.report import Series
from repro.cluster import TestbedConfig, run_job
from repro.cluster.builder import Cluster
from repro.core import make_scheme

import pytest


def pingpong(iterations=5, size=1900):
    def prog(mpi):
        peer = 1 - mpi.rank
        for i in range(iterations):
            if mpi.rank == 0:
                yield from mpi.send(peer, size, tag=i)
                yield from mpi.recv(source=peer, capacity=size, tag=i)
            else:
                yield from mpi.recv(source=peer, capacity=size, tag=i)
                yield from mpi.send(peer, size, tag=i)
    return prog


def test_reused_cluster_reports_single_job_counters():
    scheme = make_scheme("static", ecm_threshold=1)
    cluster = Cluster(TestbedConfig(nodes=2))
    cluster.launch(2, scheme, prepost=2)

    first = run_job(pingpong(), 2, scheme, prepost=2, cluster=cluster)
    second = run_job(pingpong(), 2, scheme, prepost=2, cluster=cluster)

    # identical workload -> identical (not accumulated) counters
    assert second.fc.total_msgs == first.fc.total_msgs > 0
    assert second.fc.data_msgs == first.fc.data_msgs
    assert second.fc.ecm_msgs == first.fc.ecm_msgs
    assert second.fc.piggybacked_credits == first.fc.piggybacked_credits
    # elapsed time is measured relative to the job's own start
    assert second.elapsed_ns > 0
    assert abs(second.elapsed_ns - first.elapsed_ns) < first.elapsed_ns
    for ep in cluster.endpoints:
        assert ep.pool.acquisitions == ep.pool.releases > 0


def _ring(stride, iterations=4):
    def prog(mpi):
        n = mpi.world_size
        nxt, prv = (mpi.rank + stride) % n, (mpi.rank - stride) % n
        for i in range(iterations):
            rreq = yield from mpi.irecv(source=prv, capacity=4096, tag=i)
            yield from mpi.send(nxt, size=1024, tag=i)
            yield from mpi.wait(rreq)
    return prog


@pytest.mark.parametrize("scheme", ["hardware", "static", "dynamic", "rdma-eager"])
def test_a_second_job_on_other_connections_reports_like_a_fresh_cluster(scheme):
    """The reset visits the connections the first job wired, the reports
    the ones either job did: neither may leak the first ring into the
    second, nor lose the mesh's unwired remainder."""
    nranks = 16

    def mesh():
        cluster = Cluster(TestbedConfig(nodes=nranks))
        cluster.launch(nranks, make_scheme(scheme), prepost=4, on_demand=False)
        return cluster

    def job(cluster, stride):
        return run_job(_ring(stride), nranks, scheme, prepost=4, cluster=cluster,
                       finalize=False)

    reused = mesh()
    first = job(reused, 1)
    second = job(reused, 3)
    fresh = job(mesh(), 3)
    assert first.fc.total_msgs > 0 and second.fc == fresh.fc
    assert second.memory == fresh.memory
    assert second.memory.connections == nranks * (nranks - 1)
    for ep in reused.endpoints:  # both rings' neighbours, and only those
        assert set(ep.connections) == {(ep.rank + d) % nranks for d in (1, -1, 3, -3)}


def test_reused_cluster_validates_mismatches():
    scheme = make_scheme("static")
    cluster = Cluster(TestbedConfig(nodes=2))
    cluster.launch(2, scheme, prepost=2)
    with pytest.raises(ValueError):
        run_job(pingpong(), 3, scheme, prepost=2, cluster=cluster)
    with pytest.raises(ValueError):
        run_job(pingpong(), 2, "hardware", prepost=2, cluster=cluster)
    with pytest.raises(RuntimeError):
        run_job(pingpong(), 2, scheme, prepost=2,
                cluster=Cluster(TestbedConfig(nodes=2)))


def test_audited_then_unaudited_reuse_disarms_hooks():
    scheme = make_scheme("dynamic")
    cluster = Cluster(TestbedConfig(nodes=2))
    cluster.launch(2, scheme, prepost=1)

    audited = run_job(pingpong(), 2, scheme, prepost=1,
                      cluster=cluster, audit=True)
    assert audited.audit is not None
    assert audited.audit.violations == []
    assert audited.audit.hook_calls > 0

    plain = run_job(pingpong(), 2, scheme, prepost=1, cluster=cluster)
    assert plain.audit is None
    assert cluster.observer is None and cluster._observers == ()
    assert all(ep.observer is None for ep in cluster.endpoints)


def test_report_objects_reset():
    fig = Figure("f", xlabel="x", ylabel="y")
    fig.add("a", 1, 2.0)
    fig.add("b", 1, 3.0)
    fig.reset()
    assert fig.series == {}

    table = Table("t", ["c1", "c2"])
    table.add_row("r", 1, 2)
    table.reset()
    assert table.rows == []
    table.add_row("r", 3, 4)  # still usable after reset
    assert table.value("r", "c1") == 3

    s = Series("s")
    s.add(1, 2)
    s.reset()
    assert s.points == []
