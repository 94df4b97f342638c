"""Tests for memory semantics: RDMA write and protection checks."""

import pytest

from repro.ib import IBConfig, Opcode, QPState, RecvWR, SendWR, WCStatus
from repro.ib.mr import MRError, RemoteAccessError
from tests.ib_helpers import build_pair


def run(sim):
    sim.run(max_events=2_000_000)


def test_rdma_write_lands_in_remote_mr_without_recv_wqe():
    sim, _, hcas, qp0, qp1, cq0, cq1 = build_pair()
    mr = hcas[1].reg_mr(4096)
    qp0.post_send(
        SendWR(
            wr_id="w",
            opcode=Opcode.RDMA_WRITE,
            length=1024,
            payload="zero-copy!",
            remote_addr=mr.addr + 100,
            rkey=mr.rkey,
        )
    )
    run(sim)
    assert cq0.poll()[0].ok
    assert cq1.poll() == []  # one-sided: transparent at the target
    assert mr.load(mr.addr + 100) == "zero-copy!"
    assert qp1.posted_recvs == 0


def test_rdma_write_bad_rkey_is_remote_access_error():
    sim, _, hcas, qp0, qp1, cq0, cq1 = build_pair()
    hcas[1].reg_mr(4096)
    qp0.post_send(
        SendWR(
            wr_id="w",
            opcode=Opcode.RDMA_WRITE,
            length=64,
            payload="x",
            remote_addr=0xDEAD,
            rkey=999_999_999,
        )
    )
    run(sim)
    wc = cq0.poll()[0]
    assert wc.status is WCStatus.REMOTE_ACCESS_ERROR
    assert qp0.state is QPState.ERROR


def test_rdma_write_out_of_bounds_rejected():
    sim, _, hcas, qp0, qp1, cq0, cq1 = build_pair()
    mr = hcas[1].reg_mr(1000)
    qp0.post_send(
        SendWR(
            wr_id="w",
            opcode=Opcode.RDMA_WRITE,
            length=500,
            payload="x",
            remote_addr=mr.addr + 600,  # 600+500 > 1000
            rkey=mr.rkey,
        )
    )
    run(sim)
    assert cq0.poll()[0].status is WCStatus.REMOTE_ACCESS_ERROR


def test_send_and_rdma_interleave_in_order():
    """SEND after RDMA_WRITE on the same QP must observe the written data
    (ordered RC channel) — the property the zero-copy rendezvous FIN
    message relies on."""
    sim, _, hcas, qp0, qp1, cq0, cq1 = build_pair()
    mr = hcas[1].reg_mr(65536)
    qp1.post_recv(RecvWR(wr_id="fin", capacity=64))
    observed = {}

    qp0.post_send(
        SendWR(
            wr_id="data",
            opcode=Opcode.RDMA_WRITE,
            length=32768,
            payload="payload",
            remote_addr=mr.addr,
            rkey=mr.rkey,
        )
    )
    qp0.post_send(SendWR(wr_id="fin", opcode=Opcode.SEND, length=16, payload="FIN"))

    # Snapshot MR content at the instant the FIN arrives.
    orig_push = cq1.push

    def snoop(wc):
        if wc.is_recv:
            observed["at_fin"] = mr.load(mr.addr)
        orig_push(wc)

    cq1.push = snoop
    run(sim)
    assert observed["at_fin"] == "payload"


def test_deregistered_mr_rejects_rdma():
    sim, _, hcas, qp0, qp1, cq0, cq1 = build_pair()
    mr = hcas[1].reg_mr(4096)
    hcas[1].dereg_mr(mr)
    qp0.post_send(
        SendWR(
            wr_id="w",
            opcode=Opcode.RDMA_WRITE,
            length=8,
            payload="x",
            remote_addr=mr.addr,
            rkey=mr.rkey,
        )
    )
    run(sim)
    assert cq0.poll()[0].status is WCStatus.REMOTE_ACCESS_ERROR


def test_double_deregistration_raises():
    sim, _, hcas, *_ = build_pair()
    mr = hcas[0].reg_mr(4096)
    hcas[0].dereg_mr(mr)
    with pytest.raises(MRError):
        hcas[0].dereg_mr(mr)


def test_registration_accounting():
    sim, _, hcas, *_ = build_pair()
    t = hcas[0].mrs
    base = t.registered_bytes
    mr1 = hcas[0].reg_mr(10_000)
    mr2 = hcas[0].reg_mr(20_000)
    assert t.registered_bytes == base + 30_000
    assert t.peak_registered_bytes >= base + 30_000
    hcas[0].dereg_mr(mr1)
    assert t.registered_bytes == base + 20_000
    hcas[0].dereg_mr(mr2)
    assert t.registered_bytes == base


def test_registration_cost_scales_with_pages():
    cfg = IBConfig()
    one_page = cfg.registration_ns(100)
    many_pages = cfg.registration_ns(100 * cfg.page_bytes)
    assert many_pages > one_page
    assert many_pages - one_page == 99 * cfg.reg_per_page_ns


def test_check_remote_raises_for_unknown_rkey():
    sim, _, hcas, *_ = build_pair()
    with pytest.raises(RemoteAccessError):
        hcas[0].mrs.check_remote(123456, 0, 8)


def test_register_zero_bytes_rejected():
    sim, _, hcas, *_ = build_pair()
    with pytest.raises(MRError):
        hcas[0].reg_mr(0)
