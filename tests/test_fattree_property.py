"""Property tests for multi-level fat-tree routing.

Random seeded shapes x random flows, checked against an independent
reference enumeration of the d-mod-k path: per-flow in-order delivery,
route symmetry about the top of the tree, and exact per-link hop
accounting (``fabric.link_msgs``) — every traversed link counted exactly
once per data message, host access links included.
"""

import random

from repro.ib import IBConfig, Opcode, RecvWR, SendWR
from repro.ib.fattree import FatTreeFabric
from repro.ib.hca import HCA
from repro.sim import Simulator

TRIALS = 8
FLOWS_PER_TRIAL = 6
MSGS_PER_FLOW = 3


def reference_links(shape, src, dst):
    """Independent re-derivation of the d-mod-k interior links.

    Deliberately re-implemented from the routing spec (not calling into
    ``FatTreeFabric``), so a routing regression cannot hide by breaking
    both sides the same way.
    """
    leaf_ports, spines = shape["leaf_ports"], shape["spines"]
    src_leaf, dst_leaf = src // leaf_ports, dst // leaf_ports
    if src_leaf == dst_leaf:
        return []
    idx = dst % spines
    if shape["levels"] == 2:
        return [("up", src_leaf, idx), ("sdown", idx, dst_leaf)]
    pod_leaves = shape["pod_leaves"]
    src_pod, dst_pod = src_leaf // pod_leaves, dst_leaf // pod_leaves
    s_src = src_pod * spines + idx
    if src_pod == dst_pod:
        return [("up", src_leaf, s_src), ("sdown", s_src, dst_leaf)]
    core = dst % shape["cores"]
    s_dst = dst_pod * spines + idx
    return [("up", src_leaf, s_src), ("sup", s_src, core),
            ("cdown", core, s_dst), ("sdown", s_dst, dst_leaf)]


def random_shape(rng):
    levels = rng.choice((2, 3))
    leaf_ports = rng.randint(2, 4)
    spines = rng.randint(1, 3)
    if levels == 2:
        leaves = rng.randint(2, 4)
        return dict(levels=2, leaf_ports=leaf_ports, spines=spines,
                    pod_leaves=None, cores=None,
                    nodes=leaf_ports * leaves)
    pod_leaves = rng.randint(2, 3)
    pods = rng.randint(2, 3)
    return dict(levels=3, leaf_ports=leaf_ports, spines=spines,
                pod_leaves=pod_leaves, cores=rng.randint(1, 4),
                nodes=leaf_ports * pod_leaves * pods)


def build(shape):
    sim = Simulator()
    fabric = FatTreeFabric(
        sim, IBConfig(), leaf_ports=shape["leaf_ports"],
        spines=shape["spines"], levels=shape["levels"],
        pod_leaves=shape["pod_leaves"], cores=shape["cores"])
    hcas = [HCA(sim, fabric, lid) for lid in range(shape["nodes"])]
    return sim, fabric, hcas


def wire_flow(sim, hcas, src, dst, flow_id, delivered):
    """One QP pair carrying MSGS_PER_FLOW tagged messages, with the
    destination CQ snooped so arrival order is observable."""
    cq_s = hcas[src].create_cq()
    cq_d = hcas[dst].create_cq()
    qp_s = hcas[src].create_qp(cq_s)
    qp_d = hcas[dst].create_qp(cq_d)
    qp_s.connect(dst, qp_d.qp_num)
    qp_d.connect(src, qp_s.qp_num)
    orig = cq_d.push

    def snoop(wc, orig=orig):
        if wc.is_recv:
            delivered.setdefault(flow_id, []).append(wc.data)
        orig(wc)

    cq_d.push = snoop
    for seq in range(MSGS_PER_FLOW):
        qp_d.post_recv(RecvWR(wr_id=f"r{seq}", capacity=4096))
    for seq in range(MSGS_PER_FLOW):
        qp_s.post_send(SendWR(wr_id=f"s{seq}", opcode=Opcode.SEND,
                              length=64, payload=(flow_id, seq)))


def test_random_shapes_and_flows_route_in_order_with_exact_hop_accounting():
    rng = random.Random(20040426)  # IPPS'04 vintage
    for trial in range(TRIALS):
        shape = random_shape(rng)
        sim, fabric, hcas = build(shape)
        pairs = [(s, d) for s in range(shape["nodes"])
                 for d in range(shape["nodes"]) if s != d]
        flows = rng.sample(pairs, min(FLOWS_PER_TRIAL, len(pairs)))
        delivered = {}
        for fid, (src, dst) in enumerate(flows):
            wire_flow(sim, hcas, src, dst, fid, delivered)
        sim.run(max_events=5_000_000)

        # every message arrived, in per-flow order
        for fid in range(len(flows)):
            assert delivered[fid] == [
                (fid, seq) for seq in range(MSGS_PER_FLOW)
            ], f"trial {trial} flow {flows[fid]} out of order"

        # the fabric's path matches the reference enumeration
        expected = {}
        for src, dst in flows:
            ref = reference_links(shape, src, dst)
            assert list(fabric.path_links(src, dst)) == ref, \
                f"trial {trial} pair {(src, dst)}"
            for link in [("hup", src), *ref, ("down", dst)]:
                expected[link] = expected.get(link, 0) + MSGS_PER_FLOW
        # ...and every traversed link was counted exactly once per data
        # message (ACKs ride the control path, so they never show up here)
        assert fabric.link_msgs == expected, f"trial {trial}"


def test_routes_are_symmetric_about_the_top_of_the_tree():
    """d-mod-k ascends and descends through the *same* spine index: the
    tier sequence is palindromic (up/sdown, sup/cdown mirror) and the
    spine used on the way up equals the one used on the way down modulo
    the pod offset."""
    rng = random.Random(7)
    for _ in range(TRIALS):
        shape = random_shape(rng)
        _, fabric, _ = build(shape)
        n = shape["nodes"]
        for _ in range(24):
            src, dst = rng.randrange(n), rng.randrange(n)
            links = fabric.path_links(src, dst)
            tiers = tuple(k[0] for k in links)
            assert tiers in ((), ("up", "sdown"),
                             ("up", "sup", "cdown", "sdown"))
            if len(links) == 2:
                # turnaround spine: same switch up and down
                assert links[0][2] == links[1][1]
            elif len(links) == 4:
                spines = shape["spines"]
                up_spine, core_dn = links[0][2], links[1][2]
                assert links[2][1] == core_dn  # one core, in and out
                dn_spine = links[2][2]
                # same pod-local index either side of the core
                assert up_spine % spines == dn_spine % spines
                assert links[3][1] == dn_spine


def test_paths_are_destination_deterministic_and_memoized():
    """All routing choices depend only on the destination LID, so a
    flow's path never changes mid-stream (ordering), and repeated lookups
    return the memoized tuple."""
    rng = random.Random(11)
    shape = dict(levels=3, leaf_ports=2, spines=2, pod_leaves=2, cores=3,
                 nodes=12)
    _, fabric, _ = build(shape)
    for _ in range(50):
        src, dst = rng.randrange(12), rng.randrange(12)
        first = fabric.path_links(src, dst)
        assert fabric.path_links(src, dst) is first
        assert list(first) == reference_links(shape, src, dst)


def test_routes_that_cross_one_link_hold_one_key_object():
    """Every route that crosses a link holds the fabric's one key for it,
    not a copy of its own: at 1,024 ranks, 2,048 routes of four links."""
    rng = random.Random(5)
    for _ in range(TRIALS):
        shape = random_shape(rng)
        _, fabric, _ = build(shape)
        first, crossings = {}, 0
        for src in range(shape["nodes"]):
            for dst in range(shape["nodes"]):
                for link in fabric.path_links(src, dst):
                    assert first.setdefault(link, link) is link, (shape, src, dst)
                    crossings += 1
        assert crossings > len(first)  # some link is crossed twice


def test_cross_pod_counter_tracks_four_link_paths():
    shape = dict(levels=3, leaf_ports=2, spines=2, pod_leaves=2, cores=2,
                 nodes=16)
    sim, fabric, hcas = build(shape)
    delivered = {}
    wire_flow(sim, hcas, 0, 2, 0, delivered)    # cross-leaf, same pod
    wire_flow(sim, hcas, 0, 15, 1, delivered)   # pod 0 -> pod 3
    sim.run(max_events=1_000_000)
    assert fabric.cross_leaf_msgs == 2 * MSGS_PER_FLOW
    assert fabric.cross_pod_msgs == MSGS_PER_FLOW
