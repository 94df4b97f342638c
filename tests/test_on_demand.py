"""Tests for on-demand connection management (the paper's scalability
combination: dynamic flow control + lazy connection setup)."""

import pytest

from repro.cluster import Cluster, TestbedConfig, run_job
from repro.core import DynamicScheme, make_scheme
from repro.faults import FaultPlan
from repro.recovery import RecoveryPolicy
from repro.sim.units import us


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


def _pair_program(tag):
    """Ranks 0 and 1 ping-pong one tagged message; others just compute.
    The pong leg keeps rank 0 polling its CQ (a lone buffered-eager send
    returns before any error completion lands), and distinct tags per run
    keep reused-cluster runs from cross-matching."""

    def prog(mpi):
        if mpi.rank == 0:
            yield from mpi.send(1, size=4, tag=tag, payload=tag)
            st = yield from mpi.recv(source=1, capacity=64, tag=tag)
            assert st.payload == tag
            return "pong"
        if mpi.rank == 1:
            st = yield from mpi.recv(source=0, capacity=64, tag=tag)
            assert st.payload == tag
            yield from mpi.send(0, size=4, tag=tag, payload=tag)
            return "ping"
        yield from mpi.compute(100)
        return None

    return prog


def test_recovery_teardown_then_reestablish_on_demand():
    """Regression (on-demand x recovery): the CM used to memoize the
    fired setup signal forever, so after recovery gave a pair up for dead
    the next send got a fired signal for a connection that no longer
    existed and hung.  Now ``RecoveryManager._fail`` tears the pair down
    through the CM and a later send re-runs the whole handshake."""
    cluster = Cluster(TestbedConfig(nodes=4))
    cluster.launch(4, make_scheme("static"), prepost=4, on_demand=True)
    cm = cluster.cm
    assert cm is not None

    # 1. healthy: first communication wires the pair lazily
    r1 = run_job(_pair_program(0), 4, "static", prepost=4, cluster=cluster,
                 finalize=False)
    assert r1.completed and cm.established == 1
    assert 1 in cluster.endpoints[0].connections

    # 2. permanent link loss at rank 1: the transport retry budget and
    #    then the recovery budget exhaust, and the manager dismantles the
    #    pair via the CM instead of leaving a zombie connection behind
    plan = (FaultPlan(seed=3, transport_timeout_ns=us(40),
                      transport_retry_limit=2)
            .link_flap(lid=1, at_ns=1,
                       duration_ns=10**12))
    policy = RecoveryPolicy(max_attempts=1, base_delay_ns=us(20),
                            max_delay_ns=us(100), jitter_ns=us(5))
    r2 = run_job(_pair_program(1), 4, "static", prepost=4, cluster=cluster,
                 finalize=False, faults=plan, recovery=policy)
    assert not r2.completed
    assert r2.failures[0].attempts == policy.max_attempts
    assert cm.torn_down == 1
    assert 1 not in cluster.endpoints[0].connections
    assert 0 not in cluster.endpoints[1].connections
    assert (0, 1) not in cm._pending  # no exchange kept once it fired

    # 3. the link is restored (run_job disarms the stale fault state on
    #    the reused cluster); a fresh-tag exchange re-runs the CM
    #    handshake end to end instead of trusting the dead memo
    r3 = run_job(_pair_program(2), 4, "static", prepost=4, cluster=cluster,
                 finalize=False)
    assert r3.completed
    assert r3.rank_results[:2] == ["pong", "ping"]
    assert cm.established == 2
    assert 1 in cluster.endpoints[0].connections


def test_teardown_destroys_both_qps():
    """Regression: ``teardown`` dropped the Connections but left both
    dead QPs in ``HCA._qps`` forever, where ``HCA.kill`` and the fault
    injector kept walking them — a long chaos campaign grew without
    bound.  Both ends are destroyed now (the one that never saw the loss
    is errored and flushed first), stragglers addressed to a destroyed
    QPN vanish, and the pair comes back on fresh QPs."""
    from repro.ib.qp import QPError, _Message
    from repro.ib.types import Opcode
    from repro.ib.wr import SendWR

    cluster = Cluster(TestbedConfig(nodes=4))
    cluster.launch(4, make_scheme("static"), prepost=4, on_demand=True)
    cm = cluster.cm
    hca0, hca1 = cluster.hcas[0], cluster.hcas[1]
    before = (len(hca0._qps), len(hca1._qps))

    ok = run_job(_pair_program(0), 4, "static", prepost=4, cluster=cluster,
                 finalize=False)
    assert ok.completed
    qp01 = cluster.endpoints[0].connections[1].qp
    qp10 = cluster.endpoints[1].connections[0].qp
    assert (len(hca0._qps), len(hca1._qps)) == (before[0] + 1, before[1] + 1)

    plan = (FaultPlan(seed=3, transport_timeout_ns=us(40),
                      transport_retry_limit=2)
            .link_flap(lid=1, at_ns=1,
                       duration_ns=10**12))
    policy = RecoveryPolicy(max_attempts=1, base_delay_ns=us(20),
                            max_delay_ns=us(100), jitter_ns=us(5))
    bad = run_job(_pair_program(1), 4, "static", prepost=4, cluster=cluster,
                  finalize=False, faults=plan, recovery=policy)
    assert not bad.completed and cm.torn_down == 1
    assert (len(hca0._qps), len(hca1._qps)) == before
    assert qp01.qp_num not in hca0._qps and qp10.qp_num not in hca1._qps
    hca0.destroy_qp(qp01)  # idempotent
    # nothing of the dead pair is left for the next job to trip over
    assert not any(not wc.ok for ep in cluster.endpoints[:2]
                   for wc in ep.cq._entries)
    assert all(ep.pool.in_use == 0 for ep in cluster.endpoints[:2])

    # a straggler from the old incarnation reaches the adapter late
    late = SendWR(wr_id=0, opcode=Opcode.SEND, length=4)
    late.msn = 0
    msg = _Message(qp01, late)
    delivered = qp10.messages_delivered
    hca1._rx_process(msg)  # silently dropped
    assert qp10.messages_delivered == delivered and len(hca1._qps) == before[1]

    again = run_job(_pair_program(2), 4, "static", prepost=4, cluster=cluster,
                    finalize=False)
    assert again.completed and again.rank_results[:2] == ["pong", "ping"]
    fresh = cluster.endpoints[0].connections[1].qp
    assert fresh is not qp01 and fresh.qp_num != qp01.qp_num
    assert (len(hca0._qps), len(hca1._qps)) == (before[0] + 1, before[1] + 1)
    with pytest.raises(QPError):
        hca0.destroy_qp(fresh)  # a live QP is not destroyable


def test_stale_fired_memo_self_heals_on_next_request():
    """A teardown path that bypasses ``cm.teardown`` leaves nothing stale:
    the CM drops an exchange once it fires, so the next request runs a
    fresh one (a one-shot Signal cannot re-fire)."""
    cluster = Cluster(TestbedConfig(nodes=2))
    cluster.launch(2, make_scheme("static"), prepost=4, on_demand=True)
    cm = cluster.cm
    ep0 = cluster.endpoints[0]
    sig = cm.request(ep0, 1)
    cluster.sim.run(max_events=100_000)
    assert sig.fired and cm.established == 1

    cluster.endpoints[0].connections.pop(1)  # rude teardown, no cm call
    cluster.endpoints[1].connections.pop(0)
    sig2 = cm.request(ep0, 1)
    assert sig2 is not sig  # not the stale fired memo
    cluster.sim.run(max_events=100_000)
    assert sig2.fired and cm.established == 2
    assert 1 in cluster.endpoints[0].connections


def test_repeated_teardown_of_same_pair_counts_each_loss():
    """The same pair failing permanently twice must tear down twice —
    the counters accumulate and the memo is fresh each cycle (a stale
    entry would hand the second failure a fired signal for a corpse)."""
    cluster = Cluster(TestbedConfig(nodes=4))
    cluster.launch(4, make_scheme("static"), prepost=4, on_demand=True)
    cm = cluster.cm
    policy = RecoveryPolicy(max_attempts=1, base_delay_ns=us(20),
                            max_delay_ns=us(100), jitter_ns=us(5))
    tag = 0
    for cycle in (1, 2):
        # heal: wire the pair fresh (tags keep runs from cross-matching)
        ok = run_job(_pair_program(tag), 4, "static", prepost=4,
                     cluster=cluster, finalize=False)
        tag += 1
        assert ok.completed
        assert cm.established == cycle
        # break it for good: outage outlives transport + recovery budgets
        plan = (FaultPlan(seed=cycle, transport_timeout_ns=us(40),
                          transport_retry_limit=2)
                .link_flap(lid=1, at_ns=1,
                           duration_ns=10**12))
        bad = run_job(_pair_program(tag), 4, "static", prepost=4,
                      cluster=cluster, finalize=False, faults=plan,
                      recovery=policy)
        tag += 1
        assert not bad.completed
        assert cm.torn_down == cycle
        assert 1 not in cluster.endpoints[0].connections
        assert (0, 1) not in cm._pending


def test_repeated_stale_memo_invalidations_accumulate():
    """Every rude teardown (bypassing ``cm.teardown``) of the same pair
    is followed by a fresh handshake, however many times it happens."""
    cluster = Cluster(TestbedConfig(nodes=2))
    cluster.launch(2, make_scheme("static"), prepost=4, on_demand=True)
    cm = cluster.cm
    ep0 = cluster.endpoints[0]
    sig = cm.request(ep0, 1)
    cluster.sim.run(max_events=100_000)
    assert sig.fired and cm.established == 1

    for n in (1, 2, 3):
        cluster.endpoints[0].connections.pop(1)  # no cm.teardown call
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
