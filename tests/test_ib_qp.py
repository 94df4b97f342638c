"""Unit tests for the RC queue-pair state machine (repro.ib.qp)."""

import pytest

from repro.ib import (
    INFINITE_RETRY,
    IBConfig,
    Opcode,
    QPError,
    QPState,
    RecvWR,
    SendWR,
    WCStatus,
)
from tests.ib_helpers import build_pair


def run(sim):
    sim.run(max_events=2_000_000)


def test_send_delivers_payload_to_recv_wqe():
    sim, fabric, hcas, qp0, qp1, cq0, cq1 = build_pair()
    qp1.post_recv(RecvWR(wr_id="r0", capacity=2048))
    qp0.post_send(SendWR(wr_id="s0", opcode=Opcode.SEND, length=100, payload="hello"))
    run(sim)
    recv = cq1.poll()
    assert len(recv) == 1
    assert recv[0].ok and recv[0].is_recv
    assert recv[0].data == "hello"
    assert recv[0].byte_len == 100
    send = cq0.poll()
    assert len(send) == 1
    assert send[0].ok and send[0].wr_id == "s0"


def _fields(wc):
    return {name: getattr(wc, name) for name in type(wc).__slots__}


def test_both_completions_of_a_send_carry_every_field():
    """The per-message completions are built positionally: every field of
    both, with values that tell any two of them apart."""
    sim, _, hcas, qp0, qp1, cq0, cq1 = build_pair()
    payload = object()
    qp1.post_recv(RecvWR(wr_id="r0", capacity=2048))
    qp0.post_send(SendWR(wr_id="s0", opcode=Opcode.SEND, length=100, payload=payload))
    run(sim)
    (recv,), (send,) = cq1.poll(), cq0.poll()
    assert _fields(recv) == {
        "wr_id": "r0", "status": WCStatus.SUCCESS, "opcode": Opcode.SEND,
        "byte_len": 100, "data": payload, "qp_num": qp1.qp_num,
        "peer": hcas[0].lid, "is_recv": True,
    }
    assert _fields(send) == {
        "wr_id": "s0", "status": WCStatus.SUCCESS, "opcode": Opcode.SEND,
        "byte_len": 100, "data": None, "qp_num": qp0.qp_num,
        "peer": hcas[1].lid, "is_recv": False,
    }
    assert qp0.qp_num != qp1.qp_num != 100  # no two ints coincide
    assert (qp0.messages_sent, qp1.messages_delivered) == (1, 1)


def test_every_send_wr_field_reaches_the_wire_message():
    sim, fabric, hcas, qp0, qp1, cq0, cq1 = build_pair()
    mr = hcas[1].reg_mr(4096)
    seen = []
    transmit = fabric.transmit
    fabric.transmit = lambda *args: (seen.append(args), transmit(*args))[1]
    payload = object()
    qp1.post_recv(RecvWR(wr_id="r", capacity=64))
    qp0.post_send(SendWR("s", Opcode.SEND, 24, payload))
    qp0.post_send(SendWR("w", Opcode.RDMA_WRITE, 48, payload, mr.addr + 64, mr.rkey))
    run(sim)
    (_, _, len0, send), (src, dst, len1, write) = seen
    assert (src, dst, len0, len1) == (hcas[0].lid, hcas[1].lid, 24, 48)
    for msg, opcode, msn, length, addr, rkey in (
        (send, Opcode.SEND, 0, 24, 0, 0),
        (write, Opcode.RDMA_WRITE, 1, 48, mr.addr + 64, mr.rkey),
    ):
        assert {name: getattr(msg, name) for name in type(msg).__slots__} == {
            "src_lid": hcas[0].lid, "src_qpn": qp0.qp_num,
            "dst_lid": hcas[1].lid, "dst_qpn": qp1.qp_num,
            "opcode": opcode, "msn": msn, "length": length, "payload": payload,
            "remote_addr": addr, "rkey": rkey,
        }
    assert qp0.messages_sent == 2 and mr.load(mr.addr + 64) is payload
    assert [wc.wr_id for wc in cq0.poll()] == ["s", "w"]


def test_send_into_an_empty_receive_queue_naks_and_completes_nothing():
    cfg = IBConfig()
    sim, _, _, qp0, qp1, cq0, cq1 = build_pair(cfg)
    qp0.post_send(SendWR(wr_id="s", opcode=Opcode.SEND, length=8, payload="x"))
    sim.run(until=cfg.rnr_timer_ns // 2)  # NAKed, timer not yet expired
    assert (qp1.rnr_naks_sent, qp0.rnr_naks_received) == (1, 1)
    assert len(cq0) == 0 and len(cq1) == 0
    assert qp1.messages_delivered == 0 and qp1._expected_msn == 0
    assert qp1.posted_recvs == 0 and qp0._req._rnr_waiting
    assert qp0.outstanding_sends == 1  # still owed, replayed by the timer


def test_sends_complete_in_posting_order():
    sim, _, _, qp0, qp1, cq0, cq1 = build_pair()
    for i in range(20):
        qp1.post_recv(RecvWR(wr_id=i, capacity=2048))
    for i in range(20):
        qp0.post_send(SendWR(wr_id=i, opcode=Opcode.SEND, length=64, payload=i))
    run(sim)
    recv_order = [wc.data for wc in cq1.poll()]
    assert recv_order == list(range(20))
    send_order = [wc.wr_id for wc in cq0.poll()]
    assert send_order == list(range(20))


def test_recv_wqes_consumed_fifo():
    sim, _, _, qp0, qp1, cq0, cq1 = build_pair()
    qp1.post_recv(RecvWR(wr_id="first", capacity=2048))
    qp1.post_recv(RecvWR(wr_id="second", capacity=2048))
    qp0.post_send(SendWR(wr_id=0, opcode=Opcode.SEND, length=8, payload="a"))
    qp0.post_send(SendWR(wr_id=1, opcode=Opcode.SEND, length=8, payload="b"))
    run(sim)
    wcs = cq1.poll()
    assert [(wc.wr_id, wc.data) for wc in wcs] == [("first", "a"), ("second", "b")]


def test_rnr_nak_then_retry_delivers_after_timer():
    cfg = IBConfig()
    sim, _, _, qp0, qp1, cq0, cq1 = build_pair(cfg)
    qp0.post_send(SendWR(wr_id="s", opcode=Opcode.SEND, length=8, payload="late"))
    # Post the receive buffer well after the first attempt has NAKed (the
    # RNR decision happens at recv-engine service time, ~6 us in).
    sim.schedule(30_000, qp1.post_recv, RecvWR(wr_id="r", capacity=2048))
    run(sim)
    wcs = cq1.poll()
    assert len(wcs) == 1 and wcs[0].data == "late"
    assert qp0.rnr_naks_received >= 1
    assert qp1.rnr_naks_sent >= 1
    assert qp0.retransmissions >= 1
    # Delivery happened only after at least one RNR timer period.
    assert sim.now >= cfg.rnr_timer_ns


def test_rnr_retries_repeatedly_until_buffer_posted():
    cfg = IBConfig()
    sim, _, _, qp0, qp1, cq0, cq1 = build_pair(cfg)
    qp0.post_send(SendWR(wr_id="s", opcode=Opcode.SEND, length=8, payload="x"))
    # Buffer appears only after 5 RNR periods.
    sim.schedule(5 * cfg.rnr_timer_ns + 1000, qp1.post_recv, RecvWR(wr_id="r", capacity=2048))
    run(sim)
    assert cq1.poll()[0].ok
    assert qp0.rnr_naks_received >= 4


def test_finite_rnr_retry_count_errors_out():
    cfg = IBConfig(rnr_retry_count=3)
    sim, _, _, qp0, qp1, cq0, cq1 = build_pair(cfg)
    qp0.post_send(SendWR(wr_id="dead", opcode=Opcode.SEND, length=8, payload="x"))
    run(sim)
    wcs = cq0.poll()
    assert len(wcs) == 1
    assert wcs[0].status is WCStatus.RNR_RETRY_EXCEEDED
    assert qp0.state is QPState.ERROR


def test_qp_error_flushes_pending_sends():
    cfg = IBConfig(rnr_retry_count=1)
    sim, _, _, qp0, qp1, cq0, cq1 = build_pair(cfg)
    for i in range(3):
        qp0.post_send(SendWR(wr_id=i, opcode=Opcode.SEND, length=8, payload=i))
    run(sim)
    wcs = cq0.poll()
    statuses = {wc.wr_id: wc.status for wc in wcs}
    assert statuses[0] is WCStatus.RNR_RETRY_EXCEEDED
    assert statuses[1] is WCStatus.WR_FLUSH_ERROR
    assert statuses[2] is WCStatus.WR_FLUSH_ERROR


def test_infinite_retry_constant():
    cfg = IBConfig()
    assert cfg.rnr_retry_count == INFINITE_RETRY


def test_ordering_preserved_across_rnr_replay():
    """Messages 0..9 with a buffer shortage in the middle still arrive in
    order exactly once (RC exactly-once, in-order semantics)."""
    cfg = IBConfig()
    sim, _, _, qp0, qp1, cq0, cq1 = build_pair(cfg)
    for i in range(3):
        qp1.post_recv(RecvWR(wr_id=i, capacity=2048))
    for i in range(10):
        qp0.post_send(SendWR(wr_id=i, opcode=Opcode.SEND, length=8, payload=i))
    # Trickle in the remaining buffers over several RNR periods.
    for k in range(7):
        sim.schedule(
            (k + 1) * cfg.rnr_timer_ns + 777 * k,
            qp1.post_recv,
            RecvWR(wr_id=3 + k, capacity=2048),
        )
    run(sim)
    received = [wc.data for wc in cq1.poll()]
    assert received == list(range(10))
    sends = [wc.wr_id for wc in cq0.poll()]
    assert sends == list(range(10))


def test_post_send_without_connect_raises():
    from repro.ib import HCA, Fabric
    from repro.sim import Simulator

    sim = Simulator()
    fabric = Fabric(sim, IBConfig())
    hca = HCA(sim, fabric, 0)
    cq = hca.create_cq()
    qp = hca.create_qp(cq)
    with pytest.raises(QPError):
        qp.post_send(SendWR(wr_id=0, opcode=Opcode.SEND, length=8))


def test_send_queue_overflow_raises():
    cfg = IBConfig(sq_depth=4)
    sim, _, _, qp0, qp1, cq0, cq1 = build_pair(cfg)
    with pytest.raises(QPError):
        for i in range(10):
            qp0.post_send(SendWR(wr_id=i, opcode=Opcode.SEND, length=8))


def test_message_longer_than_recv_capacity_is_an_error():
    sim, _, _, qp0, qp1, cq0, cq1 = build_pair()
    qp1.post_recv(RecvWR(wr_id="small", capacity=16))
    qp0.post_send(SendWR(wr_id="big", opcode=Opcode.SEND, length=1000, payload="x"))
    run(sim)
    recv = cq1.poll()
    assert recv[0].status is WCStatus.LOCAL_LENGTH_ERROR
    assert (recv[0].wr_id, recv[0].byte_len, recv[0].is_recv) == ("small", 1000, True)
    assert recv[0].data is None  # nothing landed in the short buffer
    send = cq0.poll()
    assert send[0].status is WCStatus.REMOTE_ACCESS_ERROR
    assert (send[0].wr_id, send[0].is_recv) == ("big", False)
    assert qp0.state is QPState.ERROR and qp1.state is QPState.ERROR
    assert qp1.messages_delivered == 0


def test_negative_length_wr_rejected():
    with pytest.raises(ValueError):
        SendWR(wr_id=0, opcode=Opcode.SEND, length=-1)
    with pytest.raises(ValueError):
        RecvWR(wr_id=0, capacity=-1)


def test_rdma_wr_requires_rkey():
    with pytest.raises(ValueError):
        SendWR(wr_id=0, opcode=Opcode.RDMA_WRITE, length=8)


def test_credit_gate_limits_probes_when_starved():
    """With an initial credit estimate of 0, the requester keeps a single
    probe in flight instead of blasting the window into NAK storms."""
    cfg = IBConfig()
    sim, _, _, qp0, qp1, cq0, cq1 = build_pair(cfg)
    qp0.set_initial_credit_estimate(0)
    for i in range(10):
        qp0.post_send(SendWR(wr_id=i, opcode=Opcode.SEND, length=8, payload=i))
    # Let several RNR periods elapse with no buffers.
    sim.run(until=5 * cfg.rnr_timer_ns)
    # Only the probe message ever hit the wire per period: NAKs counted per
    # period, not per queued message.
    assert qp1.rnr_naks_sent <= 6
    for i in range(10):
        qp1.post_recv(RecvWR(wr_id=i, capacity=2048))
    run(sim)
    assert [wc.data for wc in cq1.poll()] == list(range(10))


def test_zero_length_send_works():
    sim, _, _, qp0, qp1, cq0, cq1 = build_pair()
    qp1.post_recv(RecvWR(wr_id="r", capacity=0))
    qp0.post_send(SendWR(wr_id="s", opcode=Opcode.SEND, length=0, payload=None))
    run(sim)
    assert cq1.poll()[0].ok
    assert cq0.poll()[0].ok


# ----------------------------------------------------------------------
# the receive queue: a FIFO of descriptors, whatever holds them
# ----------------------------------------------------------------------
def test_distinct_recv_descriptors_complete_in_post_order():
    """Batched and single posts interleave; each completion carries the
    ``wr_id`` of the descriptor at its position, and the length check
    reads that descriptor's ``capacity`` (not a neighbour's)."""
    sim, _, _, qp0, qp1, cq0, cq1 = build_pair()
    a, b, c = (RecvWR(wr_id="a", capacity=2048), RecvWR(wr_id="b", capacity=64),
               RecvWR(wr_id="c", capacity=2048))
    qp1.post_recv(a, 2)
    qp1.post_recv(b)
    qp1.post_recv(c, 2)
    assert [wr.wr_id for wr in qp1._rq] == ["a", "a", "b", "c", "c"]
    for i, length in enumerate((100, 100, 64, 100)):
        qp0.post_send(SendWR(wr_id=i, opcode=Opcode.SEND, length=length, payload=i))
    run(sim)
    assert [(wc.wr_id, wc.data, wc.byte_len) for wc in cq1.poll()] == [
        ("a", 0, 100), ("a", 1, 100), ("b", 2, 64), ("c", 3, 100)]
    assert qp1.posted_recvs == 1 and qp1._rq[0] is c

    # 65 bytes fit "a" and "c" but not "b", and only at b's position
    sim, _, _, qp0, qp1, cq0, cq1 = build_pair()
    qp1.post_recv(a)
    qp1.post_recv(b)
    for i in range(2):
        qp0.post_send(SendWR(wr_id=i, opcode=Opcode.SEND, length=65, payload=i))
    run(sim)
    assert [(wc.wr_id, wc.status) for wc in cq1.poll()] == [
        ("a", WCStatus.SUCCESS), ("b", WCStatus.LOCAL_LENGTH_ERROR)]


def test_post_recv_overflows_at_exactly_rq_depth_and_posts_nothing_partial():
    sim, _, _, qp0, qp1, cq0, cq1 = build_pair(IBConfig(rq_depth=8))
    wr = RecvWR(wr_id="r", capacity=64)
    qp1.post_recv(wr, 5)
    with pytest.raises(QPError, match="overflow"):
        qp1.post_recv(wr, 4)  # 9 > 8: none of the four is posted
    assert qp1.posted_recvs == 5
    qp1.post_recv(wr, 3)  # exactly full
    assert qp1.posted_recvs == 8 and qp1.check_invariants() == []
    with pytest.raises(QPError, match="overflow"):
        qp1.post_recv(wr)
    assert qp1.posted_recvs == 8


def test_flush_completes_every_posted_recv_in_order_and_the_queue_is_reusable():
    sim, _, _, qp0, qp1, cq0, cq1 = build_pair()
    qp1.post_recv(RecvWR(wr_id="x", capacity=64), 2)
    qp1.post_recv(RecvWR(wr_id="y", capacity=64))
    qp1.force_error()
    wcs = cq1.poll()
    assert [(wc.wr_id, wc.status, wc.is_recv) for wc in wcs] == [
        (name, WCStatus.WR_FLUSH_ERROR, True) for name in ("x", "x", "y")]
    assert qp1.posted_recvs == 0 and not qp1._rq
    with pytest.raises(QPError):
        qp1.post_recv(RecvWR(wr_id="z", capacity=64))  # ERROR state
    qp0.force_error()
    qp0, qp1 = _successors(qp0, qp1)  # the pair comes back on new QPs
    cq0.poll(), cq1.poll()
    qp1.post_recv(RecvWR(wr_id="again", capacity=64), 2)
    qp0.post_send(SendWR(wr_id="s", opcode=Opcode.SEND, length=8, payload="p"))
    run(sim)
    assert [(wc.wr_id, wc.data, wc.ok) for wc in cq1.poll()] == [("again", "p", True)]
    assert qp1.posted_recvs == 1


def test_ack_advertises_the_posted_count_after_the_consume():
    sim, fabric, _, qp0, qp1, cq0, cq1 = build_pair()
    seen = []
    send_control = fabric.send_control

    def spy(src, dst, fn, *args):
        if fn == qp0._on_ack:
            seen.append((args[1], qp1.posted_recvs))  # (advertised, posted now)
        return send_control(src, dst, fn, *args)

    fabric.send_control = spy
    qp1.post_recv(RecvWR(wr_id="r", capacity=64), 3)
    assert qp1.posted_recvs == 3
    for i in range(3):
        qp0.post_send(SendWR(wr_id=i, opcode=Opcode.SEND, length=8))
    run(sim)
    assert seen == [(2, 2), (1, 1), (0, 0)]
    assert qp1.posted_recvs == 0


def _successors(qp0, qp1):
    """Both (dead) ends replaced by successors connected to each other."""
    new0, new1 = qp0.successor(), qp1.successor()
    new0.connect(new1.hca.lid, new1.qp_num)
    new1.connect(new0.hca.lid, new0.qp_num)
    return new0, new1


# ----------------------------------------------------------------------
# a QP that never sent: the error paths touch only its own requester
# ----------------------------------------------------------------------
def test_a_qp_that_never_sent_survives_the_error_paths_without_allocating():
    from repro.ib.qp import Requester

    sim, _, _, qp0, qp1, cq0, cq1 = build_pair()
    req, req1 = qp0._req, qp1._req  # each QP's own, built with it
    assert type(req) is Requester and req is not req1
    qp1.post_recv(RecvWR(wr_id="r", capacity=64), 2)  # a responder only
    qp0._on_ack(0, 5)  # nothing was ever sent: ignored
    qp0._on_rnr_nak(0)
    qp0._on_remote_error(0, WCStatus.REMOTE_ACCESS_ERROR)
    assert qp0.state is QPState.READY and len(cq0) == 0
    assert qp0.check_invariants() == [] and qp0.outstanding_sends == 0
    for qp in (qp0, qp1):
        qp.force_error()  # _flush on a requester that holds nothing
        assert qp.check_invariants() == []
    dead0 = qp0
    qp0, qp1 = _successors(qp0, qp1)
    assert dead0._req is req  # the dead QP keeps its flushed requester ...
    assert qp0._req is not req and qp1._req is not req1  # ... a successor builds its own
    assert qp0.epoch == qp1.epoch == 1
    assert len(cq0) == 0 and len(cq1) == 2  # only qp1's two posted receives
    cq1.poll()
    dead0._on_ack(0, 5)  # the dead incarnation's object: flushed, ignored
    qp0._on_ack(0, 5)  # the successor: still nothing sent
    req = qp0._req
    assert (req.messages_sent, req._next_msn, req._inflight, req._sq) == (0, 0, {}, [])

    qp1.post_recv(RecvWR(wr_id="r", capacity=64))
    qp0.post_send(SendWR(wr_id="s", opcode=Opcode.SEND, length=8, payload="p"))
    assert qp0._req is req
    run(sim)
    assert [wc.wr_id for wc in cq0.poll()] == ["s"]
    assert [wc.data for wc in cq1.poll()] == ["p"]
    assert qp0.check_invariants() == [] and qp1.check_invariants() == []
    assert (qp0.messages_sent, req._next_msn, qp1.messages_sent) == (1, 1, 0)
    # a successor starts afresh but keeps what the job counted and how the
    # QP was configured
    qp0.arm_transport((50_000, 3))
    qp0.force_error()
    qp1.force_error()
    qp0, qp1 = _successors(qp0, qp1)
    req = qp0._req
    assert qp0.epoch == 2 and qp0.outstanding_sends == 0
    assert (req.messages_sent, req._next_msn, req._credit_est) == (1, 0, None)
    assert (req._xport_enabled, req._xport_timeout_ns, req._xport_limit) == (True, 50_000, 3)
    with pytest.raises(AttributeError):
        qp0.messages_sent = 1  # a QP's requester counters are read-only views


# ----------------------------------------------------------------------
# a successor QP: the dead incarnation's traffic goes nowhere
# ----------------------------------------------------------------------
def test_a_successor_takes_a_new_number_and_keeps_what_was_set_on_the_old_qp():
    sim, _, hcas, qp0, qp1, cq0, cq1 = build_pair()
    qp0.set_initial_credit_estimate(4)
    qp0.arm_transport((50_000, 3))
    qp1.post_recv(RecvWR(wr_id="r", capacity=64))
    qp0.post_send(SendWR(wr_id="s", opcode=Opcode.SEND, length=8))
    run(sim)
    assert (qp0.messages_sent, qp1.messages_delivered, qp0._req._credit_est) == (1, 1, 0)
    qp0.force_error()
    with pytest.raises(QPError):
        qp1.successor()  # a live QP is not replaced ...
    assert hcas[1].qp(qp1.qp_num) is qp1 and len(hcas[1]._qps) == 1  # ... nor added to
    new = qp0.successor()
    assert new.state is QPState.RESET and new.qp_num > qp0.qp_num
    assert hcas[0].qp(qp0.qp_num) is None and hcas[0].qp(new.qp_num) is new
    assert (new.send_cq, new.recv_cq, new.epoch) == (cq0, cq0, 1)
    req = new._req
    assert (req._credit_est, req._credit_seed) == (4, 4)  # the e2e seed, not what was left
    assert (req._xport_enabled, req._xport_timeout_ns, req._xport_limit) == (True, 50_000, 3)
    assert (new.messages_sent, new.retry_counts()) == (1, (0, 0))
    assert (req._next_msn, req._inflight, req._sq, new.posted_recvs) == (0, {}, [], 0)


def test_the_dead_incarnations_traffic_leaves_the_successor_unchanged():
    from repro.ib.qp import _Message

    sim, _, hcas, qp0, qp1, cq0, cq1 = build_pair()
    dead0, dead1 = qp0, qp1
    qp0.force_error()
    qp1.force_error()
    cq0.poll(), cq1.poll()
    qp0, qp1 = _successors(qp0, qp1)
    qp1.post_recv(RecvWR(wr_id="r", capacity=64))
    qp0.post_send(SendWR(wr_id="s", opcode=Opcode.SEND, length=8))
    sim.run(until=sim.now + 1)  # MSN 0 injected, not yet ACKed
    req = qp0._req
    assert list(req._inflight) == [0] and req._sends_inflight == 1

    # a packet of the old incarnation, addressed to the old QP number
    stale = SendWR(wr_id="old", opcode=Opcode.SEND, length=8, payload="stale")
    stale.msn = 0
    hcas[1]._deliver(_Message(dead0, stale))
    # control from the old incarnation is bound to the old, flushed objects
    dead0._on_ack(0, 5)
    dead0._on_rnr_nak(0)
    dead0._on_remote_error(0, WCStatus.REMOTE_ACCESS_ERROR)
    dead1._on_ack(0, 5)
    assert list(req._inflight) == [0] and len(cq0) == 0
    assert (qp1._expected_msn, qp1.posted_recvs, len(cq1)) == (0, 1, 0)
    run(sim)
    # only the successor's own message was delivered and ACKed
    assert [(wc.wr_id, wc.ok) for wc in cq0.poll()] == [("s", True)]
    assert [(wc.wr_id, wc.data) for wc in cq1.poll()] == [("r", None)]
    assert qp1.messages_delivered == 1 and qp0.state is QPState.READY
    assert (dead0.state, dead1.state) == (QPState.ERROR, QPState.ERROR)


# ----------------------------------------------------------------------
# every entry into ERROR flushes, and a flush retires what it completes
# ----------------------------------------------------------------------
def test_a_length_error_flushes_the_responder():
    """The responder's length error is an entry into ERROR like any other:
    its other posted receive and its own sends complete, flushed."""
    sim, _, _, qp0, qp1, cq0, cq1 = build_pair()
    qp1.post_recv(RecvWR(wr_id="r0", capacity=4))
    qp1.post_recv(RecvWR(wr_id="r1", capacity=4))
    for i in range(2):
        qp1.post_send(SendWR(wr_id=f"s{i}", opcode=Opcode.SEND, length=8, payload=i))
    qp0.post_send(SendWR(wr_id="big", opcode=Opcode.SEND, length=64, payload="x"))
    run(sim)
    got = {(wc.wr_id, wc.is_recv): wc.status for wc in cq1.poll()}
    assert got == {("r0", True): WCStatus.LOCAL_LENGTH_ERROR,
                   ("r1", True): WCStatus.WR_FLUSH_ERROR,
                   ("s0", False): WCStatus.WR_FLUSH_ERROR,
                   ("s1", False): WCStatus.WR_FLUSH_ERROR}
    assert [(wc.wr_id, wc.status) for wc in cq0.poll()] == [
        ("big", WCStatus.REMOTE_ACCESS_ERROR)]
    assert (qp1.posted_recvs, qp1.outstanding_sends) == (0, 0)
    assert qp0.check_invariants() == [] and qp1.check_invariants() == []


def test_force_error_retires_the_send_in_flight():
    sim, _, _, qp0, qp1, cq0, cq1 = build_pair()
    qp0.post_send(SendWR(wr_id="s", opcode=Opcode.SEND, length=8, payload="x"))
    sim.run(until=IBConfig().rnr_timer_ns // 2)  # NAKed: in flight, frozen
    assert qp0._req._sends_inflight == 1
    qp0.force_error()
    assert [(wc.wr_id, wc.status) for wc in cq0.poll()] == [("s", WCStatus.WR_FLUSH_ERROR)]
    assert qp0._req._sends_inflight == 0 and qp0.check_invariants() == []


def test_a_remote_error_retires_every_send_in_flight():
    sim, _, _, qp0, qp1, cq0, cq1 = build_pair()
    qp1.post_recv(RecvWR(wr_id="small", capacity=4))
    for i in range(3):
        qp0.post_send(SendWR(wr_id=i, opcode=Opcode.SEND, length=64, payload=i))
    run(sim)
    assert [(wc.wr_id, wc.status) for wc in cq0.poll()] == [
        (0, WCStatus.REMOTE_ACCESS_ERROR), (1, WCStatus.WR_FLUSH_ERROR),
        (2, WCStatus.WR_FLUSH_ERROR)]
    assert qp0._req._sends_inflight == 0 and qp0.check_invariants() == []
