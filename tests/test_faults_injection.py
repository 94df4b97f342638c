"""Behavioural tests for fault injection: wire-loss recovery through the
transport ACK-timeout, bounded-retry failure, receiver stalls, and the
determinism contract (fixed seed -> bit-identical run)."""

import dataclasses
import json

import pytest

from repro.cluster import run_job
from repro.core import EXTENDED_SCHEMES
from repro.faults import FaultInjector, FaultInjectorError, FaultPlan
from repro.ib import Opcode, QPState, RecvWR, SendWR, WCStatus
from repro.ib.types import INFINITE_RETRY
from repro.sim.units import us
from tests.ib_helpers import build_pair


# ----------------------------------------------------------------------
# QP-level transport retry (the wire-loss recovery mechanism)
# ----------------------------------------------------------------------
class _ScriptedLoss:
    """A minimal FabricFaultState stand-in: drops the first ``data`` data
    messages and the first ``control`` control messages, passes the rest."""

    def __init__(self, data=0, control=0):
        self.data = data
        self.control = control

    def on_data(self, src_lid, dst_lid, payload_bytes):
        if self.data > 0:
            self.data -= 1
            return None
        return (0, 0)

    def on_control(self, src_lid, dst_lid):
        if src_lid != dst_lid and self.control > 0:
            self.control -= 1
            return None
        return 0


def test_transport_timeout_recovers_a_dropped_message():
    sim, fabric, _, qp0, qp1, cq0, cq1 = build_pair()
    fabric.fault = _ScriptedLoss(data=1)
    qp0.arm_transport((us(50), INFINITE_RETRY))
    qp1.post_recv(RecvWR(wr_id="r", capacity=2048))
    qp0.post_send(SendWR(wr_id="s", opcode=Opcode.SEND, length=64, payload="lost?"))
    sim.run(max_events=2_000_000)
    wcs = cq1.poll()
    assert len(wcs) == 1 and wcs[0].data == "lost?"
    assert cq0.poll()[0].ok
    assert qp0.retransmissions >= 1
    assert sim.now >= us(50)  # recovery needed at least one timeout period


def test_lost_ack_recovered_by_stale_reack():
    """The message arrives but its ACK dies; the replayed duplicate must be
    re-ACKed (not silently dropped) and delivered exactly once."""
    sim, fabric, _, qp0, qp1, cq0, cq1 = build_pair()
    fabric.fault = _ScriptedLoss(control=1)  # kills the first ACK
    # Both ends are armed (as FaultInjector does): the requester needs the
    # timeout timer, the responder needs stale-duplicate re-ACKing.
    qp0.arm_transport((us(50), INFINITE_RETRY))
    qp1.arm_transport((us(50), INFINITE_RETRY))
    qp1.post_recv(RecvWR(wr_id="r", capacity=2048))
    qp0.post_send(SendWR(wr_id="s", opcode=Opcode.SEND, length=64, payload="once"))
    sim.run(max_events=2_000_000)
    assert [wc.data for wc in cq1.poll()] == ["once"]  # exactly once
    assert cq0.poll()[0].ok  # sender did complete eventually
    assert qp0.retransmissions >= 1


def test_bounded_transport_retry_errors_out():
    sim, fabric, _, qp0, qp1, cq0, cq1 = build_pair()
    fabric.fault = _ScriptedLoss(data=10**9)  # black hole
    qp0.arm_transport((us(50), 2))
    qp1.post_recv(RecvWR(wr_id="r", capacity=2048))
    qp0.post_send(SendWR(wr_id="dead", opcode=Opcode.SEND, length=64, payload="x"))
    sim.run(max_events=2_000_000)
    wcs = cq0.poll()
    assert len(wcs) == 1
    assert wcs[0].status is WCStatus.RETRY_EXCEEDED
    assert qp0.state is QPState.ERROR
    assert cq1.poll() == []  # nothing ever got through


def test_go_back_n_replay_preserves_order_exactly_once():
    sim, fabric, _, qp0, qp1, cq0, cq1 = build_pair()
    fabric.fault = _ScriptedLoss(data=3)  # first three messages vanish
    qp0.arm_transport((us(50), INFINITE_RETRY))
    for i in range(8):
        qp1.post_recv(RecvWR(wr_id=i, capacity=2048))
    for i in range(8):
        qp0.post_send(SendWR(wr_id=i, opcode=Opcode.SEND, length=32, payload=i))
    sim.run(max_events=2_000_000)
    assert [wc.data for wc in cq1.poll()] == list(range(8))
    assert [wc.wr_id for wc in cq0.poll()] == list(range(8))
    assert qp0.retransmissions >= 3


# ----------------------------------------------------------------------
# job-level injection (run_job(..., faults=...))
# ----------------------------------------------------------------------
def _flood(msgs, size=1024):
    def program(mpi):
        if mpi.rank == 0:
            reqs = []
            for _ in range(msgs):
                req = yield from mpi.isend(1, size=size)
                reqs.append(req)
            yield from mpi.waitall(reqs)
        else:
            for _ in range(msgs):
                yield from mpi.recv(0, capacity=size)
        return mpi.now

    return program


def _snapshot(result):
    return {
        "elapsed_ns": result.elapsed_ns,
        "fc": dataclasses.asdict(result.fc),
        "counters": result.tracer.summary(),
    }


def test_receiver_stall_starves_hardware_but_not_static():
    plan = lambda: (FaultPlan(seed=1)
                    .receiver_stall(rank=1, at_ns=us(5), duration_ns=us(1000)))
    hw = run_job(_flood(7), 2, "hardware", prepost=4, faults=plan())
    st = run_job(_flood(7), 2, "static", prepost=4, faults=plan())
    assert hw.fc.rnr_naks > 0 and hw.fc.retransmissions > 0
    assert st.fc.rnr_naks == 0 and st.fc.retransmissions == 0
    assert st.fc.backlog_max >= 1  # the overflow sat in the backlog queue
    # Both outlive the fault window.
    assert hw.elapsed_ns > us(1000) and st.elapsed_ns > us(1000)


def test_dict_spec_path_equals_builder_path():
    spec = {
        "seed": 3,
        "events": [{"kind": "receiver_stall", "at_ns": us(5),
                    "duration_ns": us(500), "rank": 1}],
    }
    built = (FaultPlan(seed=3)
             .receiver_stall(rank=1, at_ns=us(5), duration_ns=us(500)))
    a = _snapshot(run_job(_flood(7), 2, "static", prepost=4, faults=spec))
    b = _snapshot(run_job(_flood(7), 2, "static", prepost=4, faults=built))
    assert a == b


def test_fixed_seed_is_bit_identical_and_seeds_differ():
    plan = lambda seed: (FaultPlan(seed=seed)
                         .drop_window(at_ns=us(10), duration_ns=us(300),
                                      probability=0.3))
    runs = [
        _snapshot(run_job(_flood(60), 2, "dynamic", prepost=8, faults=plan(7)))
        for _ in range(2)
    ]
    assert json.dumps(runs[0], sort_keys=True) == json.dumps(runs[1], sort_keys=True)
    assert runs[0]["counters"].get("faults.wire_drop", 0) > 0
    other = _snapshot(run_job(_flood(60), 2, "dynamic", prepost=8, faults=plan(8)))
    # A different seed draws a different loss pattern (same probability).
    assert other != runs[0]


def test_link_flap_recovers_via_transport_replay():
    plan = (FaultPlan(seed=5)
            .link_flap(lid=1, at_ns=us(20), duration_ns=us(150)))
    r = run_job(_flood(40), 2, "static", prepost=8, faults=plan)
    assert r.tracer.summary().get("faults.link_drop", 0) > 0
    assert r.fc.retransmissions >= 1
    assert r.elapsed_ns > us(170)  # outlived the outage


def _numbered_flood(mpi):
    """30 x 1 KB, each carrying its index; rank 1 returns what it got."""
    if mpi.rank == 0:
        reqs = []
        for i in range(30):
            reqs.append((yield from mpi.isend(1, size=1024, payload=i)))
        yield from mpi.waitall(reqs)
        return None
    got = []
    for _ in range(30):
        st = yield from mpi.recv(0, capacity=1024)
        got.append((st.source, st.size, st.payload))
    return got


@pytest.mark.parametrize("scheme", [s.value for s in EXTENDED_SCHEMES])
def test_hca_pause_delays_without_losing_anything(scheme):
    # the receiver's adapter freezes for 300 us from 5 us: a pure delay
    plan = FaultPlan(seed=1).hca_pause(lid=1, at_ns=us(5), duration_ns=us(300))
    plain = run_job(_numbered_flood, 2, scheme, prepost=4)
    paused = run_job(_numbered_flood, 2, scheme, prepost=4, faults=plan, audit=True)
    assert paused.rank_results == plain.rank_results
    assert len(plain.rank_results[1]) == 30
    assert paused.report()["faults"]["faults.hca_pause"] == 1
    assert paused.audit.violations == []
    assert paused.elapsed_ns > plain.elapsed_ns


def test_injector_rejects_targets_outside_cluster():
    bad_lid = FaultPlan().link_flap(lid=99, at_ns=0, duration_ns=1)
    with pytest.raises(FaultInjectorError):
        run_job(_flood(2), 2, "static", prepost=4, faults=bad_lid)
    bad_rank = FaultPlan().receiver_stall(rank=5, at_ns=0, duration_ns=1)
    with pytest.raises(FaultInjectorError):
        run_job(_flood(2), 2, "static", prepost=4, faults=bad_rank)


def test_double_install_rejected():
    from repro.cluster.builder import Cluster
    from repro.core import make_scheme

    cluster = Cluster(None)
    cluster.launch(2, make_scheme("static"), prepost=4)
    injector = FaultInjector(FaultPlan(seed=1))
    injector.arm(cluster)
    with pytest.raises(FaultInjectorError):
        injector.arm(cluster)
    with pytest.raises(FaultInjectorError):
        FaultInjector(FaultPlan(seed=2)).arm(cluster)
