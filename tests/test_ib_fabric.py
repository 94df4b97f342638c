"""Tests for the wire model: latency composition, bandwidth, contention,
loopback, and the CQ notification mechanism."""

import pytest

from repro.ib import CompletionQueue, Fabric, FabricError, HCA, IBConfig, LinkRate, Opcode, RecvWR, SendWR
from repro.sim import Simulator, Timeout
from repro.sim.units import mb_per_s
from tests.ib_helpers import build_pair, connect_mesh


def run(sim):
    sim.run(max_events=5_000_000)


def one_way_ns(cfg, nbytes):
    """Measure verbs-level one-way delivery time for a message."""
    sim, _, _, qp0, qp1, cq0, cq1 = build_pair(cfg)
    qp1.post_recv(RecvWR(wr_id="r", capacity=max(nbytes, 1)))
    qp0.post_send(SendWR(wr_id="s", opcode=Opcode.SEND, length=nbytes, payload="x"))
    arrival = {}
    orig = cq1.push

    def snoop(wc):
        arrival["t"] = sim.now
        orig(wc)

    cq1.push = snoop
    run(sim)
    return arrival["t"]


def test_small_message_latency_is_microseconds_scale():
    cfg = IBConfig()
    t = one_way_ns(cfg, 4)
    # Raw verbs send/recv latency of the era: ~5-7 us.
    assert 3_000 < t < 8_000


def test_latency_monotonic_in_size():
    cfg = IBConfig()
    sizes = [4, 256, 1024, 4096, 16384, 65536]
    times = [one_way_ns(cfg, s) for s in sizes]
    assert times == sorted(times)
    assert times[-1] > times[0] + 50_000  # 64 KB ≫ 4 B


def test_large_transfer_bandwidth_near_pci_limit():
    cfg = IBConfig()
    nbytes = 4 * 1024 * 1024
    t = one_way_ns(cfg, nbytes)
    bw = mb_per_s(t, nbytes)
    # PCI-X effective ~900 MB/s minus header overhead.
    assert 700 < bw < 920


def test_link_rate_1x_slower_than_4x():
    t_4x = one_way_ns(IBConfig(link_rate=LinkRate.X4), 1024 * 1024)
    t_1x = one_way_ns(IBConfig(link_rate=LinkRate.X1), 1024 * 1024)
    assert t_1x > 3 * t_4x  # 0.25 byte/ns vs 0.9 (pci-bound)


def test_wire_bytes_includes_per_packet_headers():
    cfg = IBConfig(mtu_bytes=1024, pkt_header_bytes=40)
    assert cfg.wire_bytes(0) == 40
    assert cfg.wire_bytes(1) == 1 + 40
    assert cfg.wire_bytes(1024) == 1024 + 40
    assert cfg.wire_bytes(1025) == 1025 + 80
    assert cfg.wire_bytes(10 * 1024) == 10 * 1024 + 400


def test_output_port_contention_serialises_two_senders():
    """Two HCAs blasting the same destination share its downlink: total
    time ≈ 2x a single sender's."""
    cfg = IBConfig()
    nbytes = 1024 * 1024

    def measure(n_senders):
        sim = Simulator()
        fabric = Fabric(sim, cfg)
        hcas = [HCA(sim, fabric, lid) for lid in range(n_senders + 1)]
        cqs, qps = connect_mesh(sim, fabric, hcas)
        dst = n_senders
        done = []
        for s in range(n_senders):
            qps[(dst, s)].post_recv(RecvWR(wr_id=s, capacity=nbytes))
        orig = cqs[dst].push

        def snoop(wc):
            done.append(sim.now)
            orig(wc)

        cqs[dst].push = snoop
        for s in range(n_senders):
            qps[(s, dst)].post_send(
                SendWR(wr_id=s, opcode=Opcode.SEND, length=nbytes, payload=s)
            )
        run(sim)
        assert len(done) == n_senders
        return max(done)

    t1 = measure(1)
    t2 = measure(2)
    assert t2 > 1.8 * t1 * 0.9  # roughly doubled (allow model slack)
    assert t2 < 2.6 * t1


def test_disjoint_pairs_do_not_contend():
    cfg = IBConfig()
    nbytes = 1024 * 1024
    sim = Simulator()
    fabric = Fabric(sim, cfg)
    hcas = [HCA(sim, fabric, lid) for lid in range(4)]
    cqs, qps = connect_mesh(sim, fabric, hcas)
    qps[(1, 0)].post_recv(RecvWR(wr_id=0, capacity=nbytes))
    qps[(3, 2)].post_recv(RecvWR(wr_id=0, capacity=nbytes))
    qps[(0, 1)].post_send(SendWR(wr_id=0, opcode=Opcode.SEND, length=nbytes, payload=0))
    qps[(2, 3)].post_send(SendWR(wr_id=0, opcode=Opcode.SEND, length=nbytes, payload=0))
    run(sim)
    t_pairwise = sim.now

    t_single = one_way_ns(cfg, nbytes)
    # Crossbar: two disjoint flows finish in about the single-flow time.
    assert t_pairwise < t_single * 1.4


def test_loopback_cheaper_than_switch_path():
    cfg = IBConfig()
    sim = Simulator()
    fabric = Fabric(sim, cfg)
    hca = HCA(sim, fabric, 0)
    cq = hca.create_cq()
    qp_a = hca.create_qp(cq)
    qp_b = hca.create_qp(cq)
    qp_a.connect(0, qp_b.qp_num)
    qp_b.connect(0, qp_a.qp_num)
    qp_b.post_recv(RecvWR(wr_id="r", capacity=64))
    qp_a.post_send(SendWR(wr_id="s", opcode=Opcode.SEND, length=4, payload="self"))
    arrival = {}
    orig = cq.push

    def snoop(wc):
        if wc.is_recv:
            arrival["t"] = sim.now
        orig(wc)

    cq.push = snoop
    run(sim)
    assert arrival["t"] < one_way_ns(cfg, 4)


def test_loopback_delivers_in_posting_order():
    """An adapter's loopback path is one FIFO: a 4 B message posted after
    an 80 KiB one arrives after it.  It used to overtake it, and on one QP
    the responder dropped the small SEND as out of order — never resent,
    since a healthy run arms no transport retry."""
    sim = Simulator()
    fabric = Fabric(sim, IBConfig())
    arrived = []

    class _Adapter:
        def _deliver(self, message):
            arrived.append((message, sim.now))

    fabric.attach(0, _Adapter())
    big = fabric.transmit(0, 0, 80 * 1024, "write")
    small = fabric.transmit(0, 0, 4, "send")
    run(sim)
    assert big < small
    assert arrived == [("write", big), ("send", small)]


def test_duplicate_lid_rejected():
    sim = Simulator()
    fabric = Fabric(sim, IBConfig())
    HCA(sim, fabric, 7)
    with pytest.raises(FabricError):
        HCA(sim, fabric, 7)


def test_transmit_to_unknown_lid_rejected():
    sim = Simulator()
    fabric = Fabric(sim, IBConfig())
    HCA(sim, fabric, 0)
    with pytest.raises(FabricError):
        fabric.transmit(0, 99, 8, object())


def test_fabric_counters():
    sim, fabric, _, qp0, qp1, cq0, cq1 = build_pair()
    qp1.post_recv(RecvWR(wr_id="r", capacity=2048))
    qp0.post_send(SendWR(wr_id="s", opcode=Opcode.SEND, length=100, payload="x"))
    run(sim)
    assert fabric.messages_sent == 1
    assert fabric.payload_bytes == 100
    assert fabric.wire_bytes > 100
    assert fabric.control_msgs >= 1  # the ACK


def test_cq_wait_blocks_until_completion():
    sim, _, _, qp0, qp1, cq0, cq1 = build_pair()
    qp1.post_recv(RecvWR(wr_id="r", capacity=64))
    events = []

    def receiver():
        yield cq1
        events.append(("recv", sim.now))
        wcs = cq1.poll()
        assert len(wcs) == 1

    def sender():
        yield Timeout(10_000)
        qp0.post_send(SendWR(wr_id="s", opcode=Opcode.SEND, length=4, payload="x"))

    sim.spawn(receiver())
    sim.spawn(sender())
    run(sim)
    assert events and events[0][1] > 10_000


def test_cq_wait_immediate_when_pending():
    sim, _, _, qp0, qp1, cq0, cq1 = build_pair()
    qp1.post_recv(RecvWR(wr_id="r", capacity=64))
    qp0.post_send(SendWR(wr_id="s", opcode=Opcode.SEND, length=4, payload="x"))
    run(sim)

    got = []

    def late_poller():
        yield cq1
        got.extend(cq1.poll())

    sim.spawn(late_poller())
    run(sim)
    assert len(got) == 1


def test_a_cq_parks_one_consumer():
    sim, _, _, _, _, _, cq1 = build_pair()

    def waiter():
        yield cq1

    sim.spawn(waiter(), name="first")
    sim.spawn(waiter(), name="second")
    with pytest.raises(RuntimeError, match="'second' waits while 'first' is parked"):
        run(sim)
