"""Tests for the RDMA-write-based eager channel (the [13] companion design
the paper says its results transfer to), which the ``rdma-eager`` scheme
owns."""

from repro.cluster import TestbedConfig, run_job
from repro.sim.units import to_us
from repro.workloads import latency_program

RING = "rdma-eager"


def test_rdma_channel_latency_anchor():
    """The companion paper's headline: ~6.8 us small-message latency vs
    the send/recv design's ~7.5 us."""
    r = run_job(latency_program(4, iterations=50), 2, RING, prepost=100,
                config=TestbedConfig(nodes=2))
    lat = to_us(int(r.rank_results[0]))
    assert 6.3 < lat < 7.2
    base = run_job(latency_program(4, iterations=50), 2, "static", prepost=100,
                   config=TestbedConfig(nodes=2))
    assert lat < to_us(int(base.rank_results[0])) - 0.3


def test_payload_integrity_and_ordering():
    def prog(mpi):
        n = 60
        if mpi.rank == 0:
            for i in range(n):
                yield from mpi.send(1, size=4, tag=i % 3, payload=i)
        else:
            got = []
            for i in range(n):
                st = yield from mpi.recv(source=0, capacity=64, tag=i % 3)
                got.append(st.payload)
            assert got == list(range(n))

    run_job(prog, 2, RING, prepost=10, config=TestbedConfig(nodes=2))


def test_no_rnr_naks_ever():
    """The ring channel consumes no receive WQEs, so even a flooded busy
    receiver produces zero RNR NAKs — the design's core property."""

    def prog(mpi):
        if mpi.rank == 0:
            reqs = []
            for i in range(100):
                r_ = yield from mpi.isend(1, size=4, payload=i)
                reqs.append(r_)
            yield from mpi.waitall(reqs)
        else:
            for i in range(100):
                yield from mpi.recv(source=0, capacity=64)
                yield from mpi.compute(8_000)

    r = run_job(prog, 2, RING, prepost=4, config=TestbedConfig(nodes=2))
    assert r.fc.rnr_naks == 0
    assert r.fc.backlogged_msgs > 0  # credits still throttle the sender


def test_mixed_eager_ring_and_rendezvous():
    def prog(mpi):
        if mpi.rank == 0:
            yield from mpi.send(1, size=8, tag=1, payload="small")
            yield from mpi.send(1, size=100_000, tag=1, payload="big", buffer_id="b")
            yield from mpi.send(1, size=8, tag=1, payload="small2")
        else:
            a = yield from mpi.recv(source=0, capacity=200_000, tag=1)
            b = yield from mpi.recv(source=0, capacity=200_000, tag=1, buffer_id="r")
            c = yield from mpi.recv(source=0, capacity=200_000, tag=1)
            assert (a.payload, b.payload, c.payload) == ("small", "big", "small2")

    run_job(prog, 2, RING, prepost=10, config=TestbedConfig(nodes=2))


def test_collectives_over_rdma_channel():
    def prog(mpi):
        total = yield from mpi.allreduce(size=8, value=mpi.rank, op=lambda a, b: a + b)
        gathered = yield from mpi.allgather(size=16, value=mpi.rank * 2)
        return (total, gathered)

    r = run_job(prog, 8, RING, prepost=2, config=TestbedConfig(nodes=8))
    for total, gathered in r.rank_results:
        assert total == 28
        assert gathered == [i * 2 for i in range(8)]


def test_rdma_channel_with_on_demand_connections():
    def prog(mpi):
        peer = 1 - mpi.rank
        if mpi.rank == 0:
            yield from mpi.send(peer, size=16, payload="lazy+ring")
        else:
            st = yield from mpi.recv(source=peer, capacity=64)
            assert st.payload == "lazy+ring"

    r = run_job(prog, 2, RING, prepost=5, config=TestbedConfig(nodes=2),
                on_demand=True)
    assert r.connections_established == 1


def test_busy_flood_deterministic():
    def prog(mpi):
        peer = 1 - mpi.rank
        for i in range(30):
            if mpi.rank == 0:
                yield from mpi.send(peer, size=4, payload=i)
            else:
                yield from mpi.recv(source=peer, capacity=64)

    a = run_job(prog, 2, RING, prepost=2, config=TestbedConfig(nodes=2))
    b = run_job(prog, 2, RING, prepost=2, config=TestbedConfig(nodes=2))
    assert a.elapsed_ns == b.elapsed_ns
