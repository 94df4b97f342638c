"""Edge-case tests for the endpoint: pool exhaustion, control reserve,
quiescence, statistics, and misc API behaviour."""

import pytest

from repro.cluster import Cluster, TestbedConfig, run_job
from repro.mpi import MPIConfig, MPIError
from repro.mpi.endpoint import CONTROL_RESERVE
from repro.sim.engine import SimulationError
from tests.mpi_helpers import run2, runN


def test_tiny_send_pool_blocks_then_recovers():
    """A send pool barely above the control reserve forces senders to wait
    for completions (vbufs free on the ACK, ~100 µs away on this rigged
    long-haul link) — no deadlock, all messages delivered."""
    cfg = TestbedConfig(nodes=2)
    cfg.mpi.send_pool_buffers = CONTROL_RESERVE + 2
    cfg.ib.link_prop_ns = 50_000  # stretch the ACK RTT

    def prog(mpi):
        n = 40
        if mpi.rank == 0:
            reqs = []
            for i in range(n):
                r = yield from mpi.isend(1, size=4, payload=i)
                reqs.append(r)
            yield from mpi.waitall(reqs)
        else:
            for i in range(n):
                st = yield from mpi.recv(source=0, capacity=64)
                assert st.payload == i

    r = run2(prog, config=cfg, prepost=50)
    ep = r.endpoints[0]
    # the pool was driven down to the control-reserve floor...
    assert ep.pool.min_free <= CONTROL_RESERVE + 1
    # ...which throttled the sender to roughly one ACK round trip per
    # usable buffer pair
    assert r.elapsed_ns > 15 * 100_000
    assert ep.pool.free == ep.pool.capacity  # and fully recovered


def test_min_free_tracks_pool_pressure():
    def prog(mpi):
        if mpi.rank == 0:
            reqs = []
            for i in range(20):
                r = yield from mpi.isend(1, size=4)
                reqs.append(r)
            yield from mpi.waitall(reqs)
        else:
            for i in range(20):
                yield from mpi.recv(source=0, capacity=64)

    r = run2(prog, prepost=50)
    ep = r.endpoints[0]
    assert ep.pool.min_free < ep.pool.capacity


def test_bytes_counters():
    def prog(mpi):
        if mpi.rank == 0:
            yield from mpi.send(1, size=1000, payload="x")
            yield from mpi.send(1, size=100_000, payload="y", buffer_id="b")
        else:
            yield from mpi.recv(source=0, capacity=200_000)
            yield from mpi.recv(source=0, capacity=200_000, buffer_id="r")

    r = run2(prog, finalize=False)  # the finalize barrier would add bytes
    assert r.endpoints[0].bytes_sent == 101_000
    assert r.endpoints[1].bytes_received == 101_000


@pytest.mark.parametrize("scheme", ["hardware", "static", "dynamic", "rdma-eager"])
def test_bytes_counters_late_posted_receive(scheme):
    """A message that waited in the unexpected queue is counted once, when
    the late receive copies it out — on the ring as on the send/recv
    channel (the ring arrival used to count it a second time)."""
    def prog(mpi):
        if mpi.rank == 0:
            for _ in range(5):
                yield from mpi.send(1, size=100)
        else:
            yield from mpi.compute(200_000)  # all five arrive unexpected
            for _ in range(5):
                yield from mpi.recv(source=0, capacity=100)

    r = run2(prog, scheme=scheme, audit=True)
    assert r.endpoints[0].bytes_sent == 504  # 5 x 100 + the finalize barrier
    assert r.endpoints[1].bytes_received == r.endpoints[0].bytes_sent


def test_wait_ns_accumulates():
    def prog(mpi):
        if mpi.rank == 1:
            yield from mpi.compute(500_000)
            yield from mpi.send(0, size=4)
        else:
            yield from mpi.recv(source=1, capacity=64)  # waits ~500 us

    r = run2(prog)
    assert r.endpoints[0].wait_ns > 400_000


def test_prepost_zero_rejected():
    with pytest.raises(MPIError):
        run2(lambda mpi: (yield from mpi.barrier()), prepost=0)


def test_job_result_fields():
    def prog(mpi):
        yield from mpi.barrier()
        return mpi.rank * 10

    r = runN(prog, 4, scheme="dynamic", prepost=7)
    assert r.scheme == "dynamic"
    assert r.nranks == 4
    assert r.prepost == 7
    assert r.rank_results == [0, 10, 20, 30]
    assert len(r.rank_finish_ns) == 4
    assert r.elapsed_ns == max(r.rank_finish_ns)
    assert r.elapsed_us == r.elapsed_ns / 1000
    assert r.elapsed_s == r.elapsed_ns / 1e9


def test_deadlock_detected_and_reported():
    """Two ranks both blocking-recv first: a real deadlock the runner must
    name rather than hang on."""

    def prog(mpi):
        peer = 1 - mpi.rank
        yield from mpi.recv(source=peer, capacity=64)  # nobody ever sends
        yield from mpi.send(peer, size=4)

    with pytest.raises(RuntimeError, match="deadlock"):
        run2(prog, finalize=False)


def test_cluster_launch_twice_rejected():
    from repro.core import make_scheme

    cluster = Cluster(TestbedConfig(nodes=2))
    cluster.launch(2, make_scheme("static"), prepost=5)
    with pytest.raises(RuntimeError):
        cluster.launch(2, make_scheme("static"), prepost=5)


def test_cluster_zero_ranks_rejected():
    from repro.core import make_scheme

    cluster = Cluster(TestbedConfig(nodes=2))
    with pytest.raises(ValueError):
        cluster.launch(0, make_scheme("static"), prepost=5)


def test_rank_placement_block_cyclic():
    cluster = Cluster(TestbedConfig(nodes=8))
    assert cluster.node_of_rank(0) == 0
    assert cluster.node_of_rank(7) == 7
    assert cluster.node_of_rank(8) == 0  # 16 ranks on 8 nodes: wraps
    assert cluster.node_of_rank(15) == 7


def test_sixteen_ranks_on_eight_nodes_loopback_traffic():
    """BT/SP placement: ranks r and r+8 share a node; their traffic takes
    the HCA loopback and is faster than cross-node."""

    def prog(mpi):
        if mpi.rank == 0:
            t0 = mpi.now
            yield from mpi.send(8, size=4, tag=0)   # same node
            yield from mpi.recv(source=8, capacity=64, tag=0)
            same = mpi.now - t0
            t0 = mpi.now
            yield from mpi.send(1, size=4, tag=1)   # other node
            yield from mpi.recv(source=1, capacity=64, tag=1)
            cross = mpi.now - t0
            return (same, cross)
        elif mpi.rank == 8:
            yield from mpi.recv(source=0, capacity=64, tag=0)
            yield from mpi.send(0, size=4, tag=0)
        elif mpi.rank == 1:
            yield from mpi.recv(source=0, capacity=64, tag=1)
            yield from mpi.send(0, size=4, tag=1)
        return None

    r = run_job(prog, 16, "static", prepost=10, config=TestbedConfig(nodes=8))
    same, cross = r.rank_results[0]
    assert same < cross


def test_compute_zero_and_negative():
    def prog(mpi):
        t0 = mpi.now
        yield from mpi.compute(0)
        yield from mpi.compute(-5)
        assert mpi.now == t0
        yield from mpi.barrier()

    run2(prog)


def test_compute_fractional_ns_fails_loudly():
    """A fractional duration is a calibration bug upstream; it used to be
    truncated (``compute(1.5)`` simulated 1 ns)."""
    def prog(mpi):
        yield from mpi.compute(1.5)

    with pytest.raises(SimulationError, match="non-integral delay 1.5"):
        run2(prog, finalize=False)


def test_compute_integral_float_ns_is_accepted():
    def prog(mpi):
        t0 = mpi.now
        yield from mpi.compute(2_000.0)
        return mpi.now - t0

    assert run2(prog).rank_results == [2_000, 2_000]


@pytest.mark.parametrize("call", ["isend", "irecv"])
@pytest.mark.parametrize("peer, message", [
    ("self", "self-sends are not supported"),
    (99, "rank 99 outside the world of 2"),
    (-2, "rank -2 outside the world of 2"),
    ("unconnected", "rank 0 has no connection to 1"),
])
def test_invalid_peers_are_rejected_by_isend_and_irecv(call, peer, message):
    """The peer check runs only for a peer with no connection — which is
    every invalid one."""
    def prog(mpi):
        if mpi.rank == 0:
            target = {"self": 0, "unconnected": 1}.get(peer, peer)
            if peer == "unconnected":
                mpi._connector = None  # a hand-built table without rank 1
            if call == "isend":
                yield from mpi.isend(target, size=4)
            else:
                yield from mpi.irecv(source=target, capacity=4)

    with pytest.raises(MPIError, match=message):
        run2(prog, finalize=False)


def test_trace_enabled_records_fabric_events():
    def prog(mpi):
        if mpi.rank == 0:
            yield from mpi.send(1, size=4)
        else:
            yield from mpi.recv(source=0, capacity=64)

    r = run_job(prog, 2, "static", prepost=10, config=TestbedConfig(nodes=2),
                trace=True)
    tracer = r.endpoints[0].tracer
    assert tracer.enabled
    assert tracer.records_of("fabric.tx")
