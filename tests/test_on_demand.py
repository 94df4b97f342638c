"""Tests for on-demand connection management (the paper's scalability
combination: dynamic flow control + lazy connection setup)."""

from repro.cluster import Cluster, TestbedConfig, run_job
from repro.core import DynamicScheme, make_scheme


def ring_program(mpi):
    """Each rank talks only to its ring neighbours."""
    nxt = (mpi.rank + 1) % mpi.world_size
    prv = (mpi.rank - 1) % mpi.world_size
    for i in range(5):
        rreq = yield from mpi.irecv(source=prv, capacity=64, tag=i)
        yield from mpi.send(nxt, size=4, tag=i, payload=(mpi.rank, i))
        st = yield from mpi.wait(rreq)
        assert st.payload == (prv, i)
    return "ok"


def test_on_demand_ring_establishes_only_used_pairs():
    r = run_job(ring_program, 8, "static", prepost=10, on_demand=True,
                finalize=False)
    assert r.rank_results == ["ok"] * 8
    # ring: 8 unordered neighbour pairs (the finalize barrier is off, so
    # only application traffic wires connections)
    assert r.connections_established == 8


def test_static_mesh_reports_no_cm():
    r = run_job(ring_program, 8, "static", prepost=10)
    assert r.connections_established is None


def test_on_demand_saves_posted_buffers():
    """The memory argument: ring on 8 ranks with pre-post 50 posts vastly
    fewer buffers on-demand than with the full mesh."""
    mesh = run_job(ring_program, 8, "static", prepost=50, finalize=False)
    lazy = run_job(ring_program, 8, "static", prepost=50, on_demand=True,
                   finalize=False)

    def posted(result):
        return result.memory.vbuf_posted_bytes

    assert posted(mesh) > 3 * posted(lazy)
    # mesh: 8*7 connections, however many the ring wired; lazy ring: 16
    # directed connections
    assert mesh.memory.connections == 56
    assert lazy.memory.connections == 16
    assert sum(len(ep.connections) for ep in lazy.endpoints) == 16


def test_on_demand_first_send_pays_setup_latency():
    def prog(mpi):
        if mpi.rank == 0:
            t0 = mpi.now
            yield from mpi.send(1, size=4, tag=0)
            first = mpi.now - t0
            t0 = mpi.now
            yield from mpi.send(1, size=4, tag=1)
            second = mpi.now - t0
            return (first, second)
        yield from mpi.recv(source=0, capacity=64, tag=0)
        yield from mpi.recv(source=0, capacity=64, tag=1)
        return None

    r = run_job(prog, 2, "static", prepost=10, on_demand=True,
                config=TestbedConfig(nodes=2))
    first, second = r.rank_results[0]
    assert first > second + 200_000  # the CM exchange (~250 us) paid once


def test_on_demand_concurrent_requests_deduplicated():
    """Both sides sending simultaneously must produce exactly one pair of
    QPs (the classic CM race)."""

    def prog(mpi):
        peer = 1 - mpi.rank
        rreq = yield from mpi.irecv(source=peer, capacity=64, tag=0)
        sreq = yield from mpi.isend(peer, size=4, tag=0, payload=mpi.rank)
        statuses = yield from mpi.waitall([rreq, sreq])
        assert statuses[0].payload == peer

    r = run_job(prog, 2, "static", prepost=10, on_demand=True,
                config=TestbedConfig(nodes=2))
    assert r.connections_established == 1


def test_on_demand_with_dynamic_scheme_and_collectives():
    """The paper's proposed combination survives an all-ranks workload:
    collectives force (at most) the algorithmic connection graph."""

    def prog(mpi):
        total = yield from mpi.allreduce(size=8, value=mpi.rank, op=lambda a, b: a + b)
        assert total == sum(range(mpi.world_size))
        yield from mpi.barrier()
        return total

    r = run_job(prog, 8, DynamicScheme(), prepost=1, on_demand=True)
    assert r.rank_results == [28] * 8
    # recursive doubling + dissemination barrier touch fewer pairs than
    # the full mesh of 28
    assert r.connections_established < 28


def test_on_demand_auto_threshold():
    """Above ``TestbedConfig.on_demand_threshold`` ranks, jobs go
    on-demand by default; below it they wire the full mesh; an explicit
    flag always wins."""
    cfg = TestbedConfig(nodes=8, on_demand_threshold=8)
    r = run_job(ring_program, 8, "static", prepost=10, config=cfg,
                finalize=False)
    assert r.connections_established == 8  # auto: 8 >= threshold
    below = run_job(ring_program, 8, "static", prepost=10,
                    config=TestbedConfig(nodes=8, on_demand_threshold=9),
                    finalize=False)
    assert below.connections_established is None  # auto: mesh
    forced = run_job(ring_program, 8, "static", prepost=10, config=cfg,
                     on_demand=False, finalize=False)
    assert forced.connections_established is None  # explicit beats auto


def test_stale_fired_memo_self_heals_on_next_request():
    """The CM keeps no fired exchange: a pair whose connections are gone
    runs a fresh one at its next request (a one-shot Signal cannot
    re-fire)."""
    cluster = Cluster(TestbedConfig(nodes=2))
    cluster.launch(2, make_scheme("static"), prepost=4, on_demand=True)
    cm = cluster.cm
    ep0 = cluster.endpoints[0]
    sig = cm.request(ep0, 1)
    cluster.sim.run(max_events=100_000)
    assert sig.fired and cm.established == 1

    cluster.endpoints[0].connections.pop(1)
    cluster.endpoints[1].connections.pop(0)
    sig2 = cm.request(ep0, 1)
    assert sig2 is not sig  # not the stale fired memo
    cluster.sim.run(max_events=100_000)
    assert sig2.fired and cm.established == 2
    assert 1 in cluster.endpoints[0].connections


def test_repeated_stale_memo_invalidations_accumulate():
    """Every time the same pair's connections are gone, its next request
    runs a fresh handshake, however many times it happens."""
    cluster = Cluster(TestbedConfig(nodes=2))
    cluster.launch(2, make_scheme("static"), prepost=4, on_demand=True)
    cm = cluster.cm
    ep0 = cluster.endpoints[0]
    sig = cm.request(ep0, 1)
    cluster.sim.run(max_events=100_000)
    assert sig.fired and cm.established == 1

    for n in (1, 2, 3):
        cluster.endpoints[0].connections.pop(1)
        cluster.endpoints[1].connections.pop(0)
        fresh = cm.request(ep0, 1)
        assert fresh is not sig
        cluster.sim.run(max_events=100_000)
        assert fresh.fired and cm.established == 1 + n
        sig = fresh
    assert 1 in cluster.endpoints[0].connections


def test_unused_peer_never_connected():
    def prog(mpi):
        if mpi.rank in (0, 1):
            if mpi.rank == 0:
                yield from mpi.send(1, size=4)
            else:
                yield from mpi.recv(source=0, capacity=64)
        else:
            yield from mpi.compute(1000)

    r = run_job(prog, 4, "static", prepost=10, on_demand=True, finalize=False)
    assert r.connections_established == 1
    assert len(r.endpoints[2].connections) == 0
    assert len(r.endpoints[3].connections) == 0
