"""Tests for the HCA engines: send-engine serialization, round-robin
fairness across QPs, and receive-engine pipelining."""

from repro.ib import HCA, Fabric, IBConfig, Opcode, RecvWR, SendWR
from repro.sim import Simulator
from tests.ib_helpers import connect_mesh


def test_send_engine_serialises_wqes():
    """Back-to-back small sends leave the HCA one engine-period apart."""
    cfg = IBConfig()
    sim = Simulator()
    fabric = Fabric(sim, cfg)
    hcas = [HCA(sim, fabric, lid) for lid in range(2)]
    cqs, qps = connect_mesh(sim, fabric, hcas)
    n = 10
    for i in range(n):
        qps[(1, 0)].post_recv(RecvWR(wr_id=i, capacity=64))
    arrivals = []
    orig = fabric.transmit

    def spy(src, dst, nbytes, msg):
        arrivals.append(sim.now)
        return orig(src, dst, nbytes, msg)

    fabric.transmit = spy
    for i in range(n):
        qps[(0, 1)].post_send(SendWR(wr_id=i, opcode=Opcode.SEND, length=8, payload=i))
    sim.run(max_events=100_000)
    gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
    period = cfg.hca_send_wqe_ns + cfg.dma_startup_ns
    assert all(g == period for g in gaps)


def _pair():
    sim = Simulator()
    fabric = Fabric(sim, IBConfig())
    hcas = [HCA(sim, fabric, lid) for lid in range(2)]
    cqs, qps = connect_mesh(sim, fabric, hcas)
    return sim, hcas[0], qps[(0, 1)]


def test_kick_with_nothing_to_send_adds_no_agenda_entry():
    sim, hca, qp = _pair()
    hca._kick(qp)  # the idle requester: nothing queued
    qp.post_send(SendWR(wr_id=0, opcode=Opcode.SEND, length=8))
    sim.run(until=500)  # injected; the ACK is still far away
    assert not qp._req._sq and qp._req._inflight
    before = sim._pending, sim._seq
    hca._kick(qp)  # allocated, drained
    assert (sim._pending, sim._seq) == before
    assert not hca._ready and not hca._pump_scheduled


def test_kick_with_the_pump_already_scheduled_adds_no_agenda_entry():
    sim, hca, qp = _pair()
    qp.post_send(SendWR(wr_id=0, opcode=Opcode.SEND, length=8))
    assert hca._pump_scheduled and list(hca._ready) == [qp]
    before = sim._pending, sim._seq
    hca._kick(qp)
    qp.post_send(SendWR(wr_id=1, opcode=Opcode.SEND, length=8))
    assert (sim._pending, sim._seq) == before
    assert list(hca._ready) == [qp]  # queued once, however often kicked


def test_kick_schedules_the_pump_at_the_engines_next_free_instant():
    sim, hca, qp = _pair()
    # idle engine: the pump is due at the current instant
    qp.post_send(SendWR(wr_id=0, opcode=Opcode.SEND, length=8))
    assert hca._pump_scheduled and sim.peek() == sim.now
    sim.run(until=0)
    assert hca._send_busy == hca._send_wqe_cost > 0 and not hca._pump_scheduled
    # busy engine: the pump waits for it
    fired = []
    pump = hca._pump
    hca._pump = lambda: (fired.append(sim.now), pump())
    qp.post_send(SendWR(wr_id=1, opcode=Opcode.SEND, length=8))
    assert hca._pump_scheduled and sim.peek() > sim.now
    sim.run(until=hca._send_busy)
    assert fired == [hca._send_wqe_cost]


def test_dead_adapter_ignores_kicks():
    sim, hca, qp = _pair()
    hca.dead = True
    qp._req._sq.append(SendWR(wr_id=0, opcode=Opcode.SEND, length=8))
    hca._kick(qp)
    assert not hca._ready and not hca._pump_scheduled and sim._pending == 0


def test_round_robin_across_qps():
    """Two QPs with queued work share the send engine alternately — one
    busy connection cannot starve another."""
    cfg = IBConfig()
    sim = Simulator()
    fabric = Fabric(sim, cfg)
    hcas = [HCA(sim, fabric, lid) for lid in range(3)]
    cqs, qps = connect_mesh(sim, fabric, hcas)
    order = []
    orig = fabric.transmit

    def spy(src, dst, nbytes, msg):
        order.append(dst)
        return orig(src, dst, nbytes, msg)

    fabric.transmit = spy
    for i in range(6):
        qps[(1, 0)].post_recv(RecvWR(wr_id=i, capacity=64))
        qps[(2, 0)].post_recv(RecvWR(wr_id=i, capacity=64))
    # queue 6 sends on each connection before the engine starts draining
    for i in range(6):
        qps[(0, 1)].post_send(SendWR(wr_id=i, opcode=Opcode.SEND, length=8))
        qps[(0, 2)].post_send(SendWR(wr_id=100 + i, opcode=Opcode.SEND, length=8))
    sim.run(max_events=100_000)
    # strict alternation after the first pick
    assert order[:6].count(1) >= 2 and order[:6].count(2) >= 2
    for a, b in zip(order, order[1:]):
        assert a != b, f"engine starved a QP: {order}"


def test_recv_engine_pipelines_at_engine_rate():
    """Arrivals faster than the engine rate queue in input buffering and
    complete exactly one engine-period apart — never RNR (the receiver
    software keeps re-posting)."""
    cfg = IBConfig()
    sim = Simulator()
    fabric = Fabric(sim, cfg)
    hcas = [HCA(sim, fabric, lid) for lid in range(2)]
    cqs, qps = connect_mesh(sim, fabric, hcas)
    n = 8
    for i in range(n):
        qps[(1, 0)].post_recv(RecvWR(wr_id=i, capacity=2048))
    completions = []
    orig = cqs[1].push

    def snoop(wc):
        completions.append(sim.now)
        orig(wc)

    cqs[1].push = snoop
    # Bypass the sender engine: deliver n messages simultaneously.
    from repro.ib.qp import _Message

    req = qps[(0, 1)]._req
    for i in range(n):
        wr = SendWR(wr_id=i, opcode=Opcode.SEND, length=8, payload=i)
        wr.msn = i
        req._inflight[i] = wr
        req._sends_inflight += 1
        msg = _Message(qps[(0, 1)], wr)
        sim.schedule(100, hcas[1]._deliver, msg)
    sim.run(max_events=100_000)
    assert len(completions) == n
    gaps = [b - a for a, b in zip(completions, completions[1:])]
    assert all(g == cfg.hca_recv_wqe_ns for g in gaps)
    assert qps[(1, 0)].rnr_naks_sent == 0


def test_rdma_rx_cheaper_than_send_rx():
    """Inbound RDMA writes skip WQE/CQE processing at the receive engine."""
    cfg = IBConfig()
    assert cfg.hca_rdma_rx_ns < cfg.hca_recv_wqe_ns
