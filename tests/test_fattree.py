"""Tests for the fat-tree fabric and scaling experiments on it."""

import pytest

from repro.cluster import TestbedConfig, run_job
from repro.ib import IBConfig, Opcode, RecvWR, SendWR
from repro.ib.fabric import FabricError
from repro.ib.fattree import FatTreeFabric
from repro.ib.hca import HCA
from repro.sim import Simulator
from repro.workloads import latency_program


def build_tree(nodes=16, leaf_ports=8, spines=2, cfg=None):
    sim = Simulator()
    fabric = FatTreeFabric(sim, cfg or IBConfig(), leaf_ports=leaf_ports,
                           spines=spines)
    hcas = [HCA(sim, fabric, lid) for lid in range(nodes)]
    return sim, fabric, hcas


def one_way(sim, fabric, hcas, src, dst, nbytes=64):
    cq_s = hcas[src].create_cq()
    cq_d = hcas[dst].create_cq()
    qp_s = hcas[src].create_qp(cq_s)
    qp_d = hcas[dst].create_qp(cq_d)
    qp_s.connect(dst, qp_d.qp_num)
    qp_d.connect(src, qp_s.qp_num)
    qp_d.post_recv(RecvWR(wr_id="r", capacity=nbytes))
    t0 = sim.now
    qp_s.post_send(SendWR(wr_id="s", opcode=Opcode.SEND, length=nbytes, payload="x"))
    arrival = {}
    orig = cq_d.push

    def snoop(wc):
        arrival["t"] = sim.now
        orig(wc)

    cq_d.push = snoop
    sim.run(max_events=1_000_000)
    assert cq_d.poll()[0].ok
    return arrival["t"] - t0


def test_same_leaf_faster_than_cross_leaf():
    sim, fabric, hcas = build_tree()
    intra = one_way(sim, fabric, hcas, 0, 1)  # same leaf (0..7)
    sim2, fabric2, hcas2 = build_tree()
    inter = one_way(sim2, fabric2, hcas2, 0, 9)  # leaf 0 -> leaf 1
    assert inter > intra
    # two extra switch hops
    cfg = IBConfig()
    assert inter - intra >= 2 * cfg.switch_delay_ns


def test_leaf_of_and_spine_choice_deterministic():
    _, fabric, _ = build_tree(leaf_ports=4, spines=3)
    assert fabric.leaf_of(0) == 0
    assert fabric.leaf_of(3) == 0
    assert fabric.leaf_of(4) == 1
    assert fabric._spine_for(7) == 7 % 3
    assert fabric._spine_for(7) == fabric._spine_for(7)  # flow stays ordered


def test_cross_leaf_counter():
    sim, fabric, hcas = build_tree()
    one_way(sim, fabric, hcas, 0, 1)
    assert fabric.cross_leaf_msgs == 0
    sim2, fabric2, hcas2 = build_tree()
    one_way(sim2, fabric2, hcas2, 0, 15)
    assert fabric2.cross_leaf_msgs >= 1


def test_uplink_contention_serialises_cross_leaf_flows():
    """Two hosts on one leaf sending to hosts behind the same spine uplink
    share it; same-leaf traffic would not."""
    nbytes = 1 << 20
    sim, fabric, hcas = build_tree()
    done = []
    for src, dst in ((0, 8), (1, 10)):  # both cross leaf0 -> leaf1, spine 0
        cq_s = hcas[src].create_cq()
        cq_d = hcas[dst].create_cq()
        qp_s = hcas[src].create_qp(cq_s)
        qp_d = hcas[dst].create_qp(cq_d)
        qp_s.connect(dst, qp_d.qp_num)
        qp_d.connect(src, qp_s.qp_num)
        qp_d.post_recv(RecvWR(wr_id="r", capacity=nbytes))
        orig = cq_d.push

        def snoop(wc, orig=orig):
            done.append(sim.now)
            orig(wc)

        cq_d.push = snoop
        qp_s.post_send(SendWR(wr_id="s", opcode=Opcode.SEND, length=nbytes))
    sim.run(max_events=1_000_000)
    assert len(done) == 2
    ser = nbytes / IBConfig().effective_bytes_per_ns()
    # the second flow finishes roughly one serialisation later
    assert max(done) - min(done) > 0.8 * ser


def test_shared_uplink_is_one_queue_for_all_cross_leaf_flows():
    """Congestion model: every cross-leaf flow through the same spine
    shares ONE uplink PortQueue object — not one queue per flow — which
    is what makes PFC head-of-line blocking possible at all."""
    from repro.congestion import CongestionState, make_congestion_config

    sim, fabric, _ = build_tree(nodes=8, leaf_ports=4, spines=1)
    state = CongestionState(sim, fabric, make_congestion_config("pfc"))
    p04 = state.path_for(0, 4)  # leaf 0 -> leaf 1
    p15 = state.path_for(1, 5)  # different src AND different dst
    up04 = [p for p in p04 if p.key[0] == "up"]
    up15 = [p for p in p15 if p.key[0] == "up"]
    assert len(up04) == len(up15) == 1
    assert up04[0] is up15[0]  # the same object, not an equal twin
    assert up04[0].key == ("up", 0, 0)
    # ...while injection and final egress ports stay per-endpoint
    assert p04[0] is not p15[0]
    assert p04[-1] is not p15[-1]
    # same-leaf traffic never touches the uplink
    assert all(p.key[0] in ("hup", "down") for p in state.path_for(4, 5))


def test_multi_sender_uplink_contention_queues_at_the_uplink():
    """Three hot flows + a victim into one spine uplink: the shared
    uplink queue (interior port) is the depth hotspot, deeper than any
    destination's own egress queue."""
    from repro.cluster import run_job as run
    from repro.congestion import make_congestion_config
    from repro.faults import FaultPlan
    from repro.sim.units import us
    from repro.workloads import manyflows_program

    cfg = TestbedConfig(nodes=8, topology="fat-tree", leaf_ports=4, spines=1)
    cfg.ib.congestion = make_congestion_config("pfc")
    flows = [(0, 4, 20, 1024), (1, 4, 20, 1024), (2, 4, 20, 1024),
             (3, 5, 6, 1024)]
    r = run(manyflows_program(flows), 8, "hardware", prepost=8, config=cfg,
            faults=FaultPlan(seed=7, transport_timeout_ns=us(20_000)))
    assert r.completed
    cong = r.congestion
    assert cong.pause_frames > 0
    per_dest_peak = max(d["depth_peak_bytes"] for d in cong.per_dest.values())
    assert cong.depth_peak_bytes > per_dest_peak


def test_invalid_tree_params():
    with pytest.raises(FabricError):
        FatTreeFabric(Simulator(), IBConfig(), leaf_ports=0)
    with pytest.raises(ValueError):
        TestbedConfig(topology="hypercube")


@pytest.mark.parametrize("shape", [
    dict(leaf_ports=0), dict(spines=0), dict(leaf_ports=-4),
    dict(levels=3, pod_leaves=-1, cores=2), dict(levels=3, pod_leaves=2, cores=-3),
    dict(levels=3, pod_leaves=0, cores=2), dict(levels=3, pod_leaves=2),
], ids=str)
def test_a_bad_fat_tree_shape_is_a_config_error(shape):
    # refused where the shape is written, not later at Cluster() as a FabricError
    with pytest.raises(ValueError, match=r">= 1"):
        TestbedConfig(nodes=8, topology="fat-tree", **shape)


class Sink:  # stands in for an HCA: the fabric only calls _deliver
    _deliver = staticmethod(lambda message: None)


def test_a_lid_outside_the_unicast_range_is_refused():
    from repro.ib.fabric import Fabric

    for fabric in (Fabric(Simulator(), IBConfig()),
                   FatTreeFabric(Simulator(), IBConfig())):
        fabric.attach(0, Sink)
        fabric.attach(0xBFFF, Sink)  # the last unicast LID
        for lid in (-1, 0xC000, 1 << 16):
            with pytest.raises(FabricError, match="unicast"):
                fabric.attach(lid, Sink)


def three_level():
    """16 hosts: leaves of 2, pods of 2 leaves, 2 spines per pod, 2 cores."""
    sim = Simulator()
    fabric = FatTreeFabric(sim, IBConfig(), leaf_ports=2, spines=2, levels=3,
                           pod_leaves=2, cores=2)
    for lid in range(16):
        fabric.attach(lid, Sink)
    return sim, fabric


# (src, dst, switches on the path); None = the HCA loopback
PAIRS = [(3, 3, None), (0, 1, 1), (0, 2, 3), (0, 15, 5), (15, 0, 5)]


@pytest.mark.parametrize("ack_first", [True, False], ids=["ack-first", "data-first"])
@pytest.mark.parametrize("src, dst, switches", PAIRS, ids=str)
def test_the_cached_control_latency_is_the_models(src, dst, switches, ack_first):
    sim, fabric = three_level()
    cfg = fabric.config
    if switches is None:
        expected = cfg.loopback_ns
    else:  # every switch behind a link, one more link to the far HCA
        ack_ser = round(cfg.ack_bytes / cfg.link_rate.bytes_per_ns)
        expected = ((switches + 1) * cfg.link_prop_ns
                    + switches * cfg.switch_delay_ns + ack_ser)
    if not ack_first:  # the record is built by the data message instead
        fabric.transmit(src, dst, 64, "data")
        sim.run()
    for _ in range(2):  # the record's first use, then a table hit
        now = sim.now
        assert fabric.send_control(src, dst, lambda: None) - now == expected
        sim.run()
    assert fabric.control_path_ns(src, dst) == expected
    assert len(fabric.path_links(src, dst)) == (switches or 1) - 1


def test_per_pair_counts_reset_and_recount_on_one_table():
    sim, fabric = three_level()

    def traffic():
        for src, dst, _ in PAIRS:
            for _ in range(3):
                fabric.transmit(src, dst, 64, "data")
            fabric.send_control(dst, src, lambda: None)  # ACKs count nowhere
        sim.run()

    traffic()
    first = (fabric.link_msgs, fabric.cross_leaf_msgs, fabric.cross_pod_msgs)
    # the loopback is no link's; every other pair's 3 messages take both
    # host links and each interior link of its route
    assert first[1:] == (3 * 3, 3 * 2)
    assert first[0][("hup", 0)] == 3 * 3 and first[0][("down", 0)] == 3
    assert sum(first[0].values()) == 3 * (2 + 4 + 6 + 6)
    paths = {(s, d): fabric.path_links(s, d) for s, d, _ in PAIRS}

    fabric.reset_counters()
    assert fabric.link_msgs == {}
    assert fabric.cross_leaf_msgs == 0 == fabric.cross_pod_msgs
    traffic()
    assert (fabric.link_msgs, fabric.cross_leaf_msgs, fabric.cross_pod_msgs) == first
    assert all(fabric.path_links(s, d) is path for (s, d), path in paths.items())


def test_mpi_latency_on_fat_tree_cluster():
    cfg = TestbedConfig(nodes=16, topology="fat-tree", leaf_ports=8, spines=2)
    r = run_job(latency_program(4, iterations=20), 2, "static", prepost=50,
                config=cfg)
    # ranks 0 and 1 share leaf 0: latency ≈ the crossbar testbed's
    assert 6_000 < r.rank_results[0] < 9_000


def test_dynamic_scheme_on_64_rank_fat_tree():
    """The paper's scaling question: the dynamic scheme's buffer footprint
    on a larger cluster still tracks the communication graph (a ring),
    not the 64x63 connection mesh."""
    cfg = TestbedConfig(nodes=64, topology="fat-tree", leaf_ports=8, spines=4)

    def ring(mpi):
        nxt = (mpi.rank + 1) % mpi.world_size
        prv = (mpi.rank - 1) % mpi.world_size
        for i in range(3):
            rreq = yield from mpi.irecv(source=prv, capacity=2048, tag=i)
            yield from mpi.send(nxt, size=1024, tag=i)
            yield from mpi.wait(rreq)
        return "ok"

    r = run_job(ring, 64, "dynamic", prepost=1, config=cfg, on_demand=True,
                finalize=False)  # the finalize barrier would wire log-P extra pairs
    assert r.rank_results == ["ok"] * 64
    assert r.connections_established == 64  # ring pairs only, not 2016
    total_buffers = sum(
        c.recv_posted for ep in r.endpoints for c in ep.connections.values()
    )
    # 128 directed connections x (1 credit + headroom 3) = 512, vs a full
    # mesh's 64*63*4 = 16128 — the scalability headline.
    assert total_buffers <= 600
