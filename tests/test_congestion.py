"""Tests for the switch congestion subsystem (repro.congestion).

The acceptance criteria of the congestion ISSUE, as assertions:

* PFC produces nonzero pause frames under incast and the victim flow is
  measurably head-of-line blocked;
* ECN rate-limits the hot flows individually, so the victim rides
  through with (almost) no slowdown and nothing is dropped;
* a finite buffer with neither PFC nor ECN tail-drops, and the transport
  ACK-timeout retry recovers every drop (the run still completes);
* with ``IBConfig.congestion is None`` (the default) the fabric is
  bit-identity inert (``tests/test_inertness.py``);
* the invariant auditor's congestion hooks (pause conservation, queue
  depth <= buffer, drained-at-finalize) stay green on a real incast.
"""

import json

import pytest

from repro.cluster import TestbedConfig, run_job
from repro.congestion import CongestionConfig, make_congestion_config
from repro.workloads import manyflows_program

#: 8-to-1 incast into rank 0 plus a victim flow 1 -> 9 that shares
#: sender 1's injection port (and the switch) but targets an idle rank.
INCAST_FLOWS = tuple(
    [(s, 0, 25, 1024) for s in range(1, 9)] + [(1, 9, 8, 1024)]
)
VICTIM_RANK = 9


def _incast(congestion=None, audit=False, flows=INCAST_FLOWS, nranks=10):
    cfg = TestbedConfig(nodes=nranks)
    cfg.ib.congestion = congestion
    # no fault plan: a tail drop arms the transport retry by itself
    return run_job(manyflows_program(flows), nranks, "dynamic", prepost=8,
                   config=cfg, audit=audit)


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
def test_config_validates_pfc_thresholds():
    with pytest.raises(ValueError, match="xon < xoff"):
        CongestionConfig(xon_bytes=20_000, xoff_bytes=10_000)
    with pytest.raises(ValueError, match="xon < xoff"):
        CongestionConfig(buffer_bytes=10_000, xoff_bytes=16_384)
    with pytest.raises(ValueError, match="buffer_bytes"):
        CongestionConfig(buffer_bytes=0, pfc=False)


def test_config_validates_ecn_knobs():
    with pytest.raises(ValueError, match="rate_decrease_factor"):
        CongestionConfig(pfc=False, ecn=True, rate_decrease_factor=1.5)
    with pytest.raises(ValueError, match="min_rate"):
        CongestionConfig(pfc=False, ecn=True, min_rate=0.0)


def test_make_congestion_config_modes():
    assert make_congestion_config("pfc").pfc
    assert not make_congestion_config("pfc").ecn
    ecn = make_congestion_config("ecn")
    assert ecn.ecn and not ecn.pfc
    both = make_congestion_config("both")
    assert both.pfc and both.ecn
    with pytest.raises(ValueError, match="unknown congestion mode"):
        make_congestion_config("hope")


# ----------------------------------------------------------------------
# PFC: pause frames and head-of-line blocking
# ----------------------------------------------------------------------
def test_pfc_pauses_and_hol_blocks_the_victim():
    base = _incast(None)
    r = _incast(make_congestion_config("pfc"))
    cong = r.congestion
    assert cong is not None
    assert cong.pause_frames > 0
    assert cong.resume_frames == cong.pause_frames  # every pause released
    assert cong.xoff_events == cong.xon_events > 0
    assert cong.drops == 0  # XOFF headroom keeps the fabric lossless
    # The victim flow shares sender 1's injection port with a hot flow:
    # when the sink's egress queue pauses that port, the victim stalls
    # behind traffic it shares nothing else with.
    victim_base = base.rank_results[VICTIM_RANK]
    victim_pfc = r.rank_results[VICTIM_RANK]
    assert victim_pfc > 1.2 * victim_base
    assert "9" in cong.per_dest  # the victim's own egress port is observed


def test_ecn_rate_limits_without_collateral_damage():
    r = _incast(make_congestion_config("ecn"))
    cong = r.congestion
    assert cong.ecn_marks > 0
    assert cong.cnps > 0
    assert cong.min_flow_rate < 1.0  # some flow actually got cut
    assert cong.pause_frames == 0  # no PFC in this mode
    assert cong.drops == 0  # the big ECN buffer is effectively lossless
    # Per-flow throttling (unlike port-level pause) barely touches the
    # victim: it must stay well under the PFC victim's finish time.
    pfc = _incast(make_congestion_config("pfc"))
    assert r.rank_results[VICTIM_RANK] < pfc.rank_results[VICTIM_RANK]


def test_both_mode_combines_pause_and_marking():
    r = _incast(make_congestion_config("both"))
    cong = r.congestion
    assert cong.pause_frames > 0
    assert cong.ecn_marks > 0


def test_tiny_buffer_tail_drops_and_transport_retry_recovers():
    cfg = CongestionConfig(pfc=False, ecn=False, buffer_bytes=4096)
    r = _incast(cfg)
    assert r.completed
    assert r.congestion.drops > 0
    # every dropped message was retransmitted and delivered — the
    # program's waitall returned on all ranks (run_job would have
    # raised a deadlock otherwise) and the retry counter shows wire loss
    assert r.fc.retransmissions >= r.congestion.drops


def test_a_dead_incarnations_tail_drop_arms_nothing():
    """A message still crossing the switch when its QP was replaced (a
    recovered pair) names a destroyed QP number: its drop is owed no
    replay, so it neither raises nor arms a transport retry."""
    from repro.cluster import Cluster
    from repro.congestion.switch import _Transit
    from repro.core import make_scheme
    from repro.ib import Opcode, SendWR
    from repro.ib.qp import _Message

    cfg = TestbedConfig(nodes=2)
    cfg.ib.congestion = CongestionConfig(pfc=False, ecn=False, buffer_bytes=4096)
    cluster = Cluster(cfg)
    eps = cluster.launch(2, make_scheme("static"), 4)
    cluster.wire(eps[0], 1)
    cong = cluster.fabric.congestion
    quiet = []
    cong.observer = type("Obs", (), {"on_quiet": lambda self, t: quiet.append(t)})()
    port = cong._build_path(0, 1)[-1]
    port.depth = cong.cfg.buffer_bytes  # full: the next message is tail-dropped

    def drop(qp):
        msg = _Message(qp, SendWR(wr_id=0, opcode=Opcode.SEND, length=64))
        port.admit(_Transit(msg, 1, 64, 0, 0, ()))

    conns = [eps[0].connections[1], eps[1].connections[0]]
    dead = conns[0].qp
    for conn in conns:
        conn.qp.force_error()
    cluster.reset_pair(0, 1)
    drop(dead)
    assert port.drops == 1 and quiet == []
    assert not any(qp._req._xport_enabled for qp in eps[0].hca._qps.values())
    drop(conns[0].qp)  # the live incarnation's drop arms its retry
    assert port.drops == 2 and len(quiet) == 1
    assert conns[0].qp._req._xport_enabled


@pytest.mark.parametrize("mode", ["pfc", "both"])
def test_lu_drops_recover_without_a_fault_plan(mode):
    """8-rank LU's 85 KB planes overflow the 64 KB PFC buffer.  No fault
    plan arms the ACK timeout here: the first drop must arm it on the
    affected QP (this used to end in a deadlock), and the auditor's
    progress watchdog must sit out the 20 ms retry periods."""
    from repro.workloads.nas import lu

    plain = run_job(lu.build(1), 8, "static", 100,
                    config=TestbedConfig(nodes=8))
    cfg = TestbedConfig(nodes=8)
    cfg.ib.congestion = make_congestion_config(mode)
    r = run_job(lu.build(1), 8, "static", 100, config=cfg, audit=True)
    assert r.completed
    assert r.congestion.drops > 0
    assert r.fc.retransmissions >= r.congestion.drops
    assert r.fc.data_msgs == plain.fc.data_msgs


# ----------------------------------------------------------------------
# auditor hooks
# ----------------------------------------------------------------------
def test_auditor_congestion_invariants_hold_under_incast():
    r = _incast(make_congestion_config("both"), audit=True)
    aud = r.audit
    assert aud is not None
    assert aud.xoff_total == r.congestion.xoff_events > 0
    assert aud.xon_total == aud.xoff_total  # pause conservation held


def test_reused_cluster_resets_congestion_counters():
    from repro.cluster.builder import Cluster
    from repro.core import make_scheme

    cfg = TestbedConfig(nodes=10)
    cfg.ib.congestion = make_congestion_config("pfc")
    cluster = Cluster(cfg)
    cluster.launch(10, make_scheme("static"), 8)
    a = run_job(manyflows_program(INCAST_FLOWS), 10, "static", 8,
                cluster=cluster)
    b = run_job(manyflows_program(INCAST_FLOWS), 10, "static", 8,
                cluster=cluster)
    assert a.congestion.pause_frames > 0
    # the second job's report covers the second job only — reset_counters
    # wiped the first job's pause/mark/drop/peak numbers in between
    # (static flow control is stateless across quiescent jobs, so the
    # two reports must be identical, not cumulative)
    assert b.congestion.to_dict() == a.congestion.to_dict()


def test_congestion_report_is_deterministic():
    a = _incast(make_congestion_config("both"))
    b = _incast(make_congestion_config("both"))
    assert json.dumps(a.congestion.to_dict(), sort_keys=True) == \
        json.dumps(b.congestion.to_dict(), sort_keys=True)
    assert a.elapsed_ns == b.elapsed_ns
