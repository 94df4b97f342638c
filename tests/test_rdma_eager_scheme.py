"""Tests for the rdma-eager scheme: the RDMA-write ring-buffer eager
channel promoted to a first-class fourth flow-control scheme, plus the
eager-path bugfix sweep that rode along (two-flag slot layout, control
vs data stats split, actionable ``make_scheme`` errors).
"""

from types import SimpleNamespace

import pytest

from repro.check import Auditor, InvariantViolation
from repro.check import fuzz
from repro.cli import main
from repro.cluster import Cluster, TestbedConfig, run_job
from repro.core import (
    DEFAULT_RECLAIM_WATERMARK,
    EXTENDED_SCHEMES,
    HardwareScheme,
    RdmaEagerScheme,
    make_scheme,
)
from repro.core.memory import (
    mesh_pinned_bytes,
    predicted_connection_bytes,
    qp_state_bytes,
)
from repro.faults import FaultPlan, scenario_job
from repro.ib import CompletionQueue
from repro.mpi import MPIError
from repro.mpi.protocol import Header, MsgKind
from repro.mpi.rdma_channel import (
    SLOT_OVERHEAD_BYTES,
    RDMAChannel,
    encode_slot,
    slot_message_ready,
)
from repro.recovery import RecoveryPolicy
from repro.sim.units import to_us, us
from repro.workloads import bandwidth_program, latency_program


# ----------------------------------------------------------------------
# registry: the fourth scheme is first-class
# ----------------------------------------------------------------------
def test_make_scheme_builds_rdma_eager():
    scheme = make_scheme("rdma-eager")
    assert isinstance(scheme, RdmaEagerScheme)
    assert scheme.name.value == "rdma-eager"
    assert scheme.uses_ring and scheme.uses_credits
    assert scheme.fallback_window > 0  # a slot-starved backlog falls back
    assert scheme.reclaim_watermark == DEFAULT_RECLAIM_WATERMARK


def test_extended_schemes_cover_all_four():
    assert [s.value for s in EXTENDED_SCHEMES] == [
        "hardware", "static", "dynamic", "rdma-eager"
    ]
    for name in EXTENDED_SCHEMES:
        assert make_scheme(name).name is name


def test_rdma_eager_rejects_bad_watermark():
    with pytest.raises(ValueError):
        RdmaEagerScheme(reclaim_watermark=0)


def test_make_scheme_unknown_names_the_valid_set():
    # Satellite bugfix: the bare ValueError told the caller nothing.
    with pytest.raises(ValueError, match="valid schemes"):
        make_scheme("teleport")
    try:
        make_scheme("teleport")
    except ValueError as err:
        for name in ("hardware", "static", "dynamic", "rdma-eager"):
            assert name in str(err)


def test_cli_rejects_unknown_scheme_with_exit_2(capsys):
    assert main(["latency", "--schemes", "teleport"]) == 2
    assert "invalid choice" in capsys.readouterr().err


def test_cli_runs_rdma_eager_end_to_end(capsys):
    rc = main(["latency", "--sizes", "4", "--iterations", "5",
               "--schemes", "rdma-eager"])
    assert rc == 0
    assert "rdma-eager" in capsys.readouterr().out


# ----------------------------------------------------------------------
# the two-flag slot layout (satellite bugfix: tail-byte polling missed
# zero-length and NUL-tailed messages)
# ----------------------------------------------------------------------
def _eager(size, payload=None, seq=0):
    return Header(kind=MsgKind.EAGER, src=0, dst=1, size=size,
                  payload=payload, seq=seq)


def test_slot_layout_detects_zero_length_message():
    h = _eager(0)
    slot = encode_slot(h)
    assert len(slot) == SLOT_OVERHEAD_BYTES
    assert slot_message_ready(slot)  # no trailing payload byte to poll


def test_slot_layout_detects_nul_tailed_payload():
    h = _eager(4, payload=b"ab\x00\x00")
    assert slot_message_ready(encode_slot(h))  # a NUL tail still reads "arrived"


def test_slot_layout_rejects_partial_write():
    slot = encode_slot(_eager(8, payload=b"x" * 8))
    assert slot_message_ready(slot)
    assert not slot_message_ready(slot[:-1])  # tail flag not landed yet
    assert not slot_message_ready(b"")
    assert not slot_message_ready(slot[1:])  # head flag not landed yet


def test_zero_byte_and_nul_tail_deliver_over_the_ring():
    """End-to-end regression: both shapes a trailing-byte poll would
    miss cross the ring."""

    def prog(mpi):
        if mpi.rank == 0:
            yield from mpi.send(1, size=0, tag=0, payload=b"")
            yield from mpi.send(1, size=5, tag=1, payload=b"data\x00")
        else:
            a = yield from mpi.recv(source=0, capacity=64, tag=0)
            b = yield from mpi.recv(source=0, capacity=64, tag=1)
            assert a.size == 0
            assert b.payload == b"data\x00"

    r = run_job(prog, 2, "rdma-eager", prepost=4,
                config=TestbedConfig(nodes=2))
    ch = r.endpoints[1].connections[0].ring
    assert ch.messages >= 2


# ----------------------------------------------------------------------
# satellite bugfix: control-plane sends split out of the data stats
# ----------------------------------------------------------------------
def test_rendezvous_control_messages_are_not_data():
    def prog(mpi):
        if mpi.rank == 0:
            yield from mpi.send(1, size=100_000, payload="big", buffer_id="b")
            yield from mpi.send(1, size=8, payload="small")
        else:
            yield from mpi.recv(source=0, capacity=200_000, buffer_id="r")
            yield from mpi.recv(source=0, capacity=64)

    r = run_job(prog, 2, "static", prepost=10, config=TestbedConfig(nodes=2),
                finalize=False)
    fc = r.fc
    # one rendezvous handshake (RTS + CTS + FIN) and two data messages:
    # the rendezvous RDMA transfer itself plus the small eager send
    assert fc.control_msgs == 3
    assert fc.data_msgs == 2
    assert fc.control_msgs + fc.data_msgs + fc.ecm_msgs == fc.total_msgs
    assert 0.0 < fc.control_fraction < 1.0
    d = r.fc_dict()
    assert d["control_msgs"] == 3 and d["control_backlogged"] == 0


def test_eager_only_workload_has_zero_control_messages():
    r = run_job(latency_program(4, iterations=10), 2, "static", prepost=100,
                config=TestbedConfig(nodes=2))
    assert r.fc.control_msgs == 0
    assert r.fc.control_fraction == 0.0


# ----------------------------------------------------------------------
# scheme semantics: slot == credit, watermark ACK fallback, rendezvous
# ----------------------------------------------------------------------
def test_ring_full_blocks_sender_without_rnr_naks():
    """A flooded busy receiver: the slot accounting throttles the sender
    (backlog, not loss) and the ring never produces an RNR NAK."""

    def prog(mpi):
        if mpi.rank == 0:
            reqs = []
            for i in range(80):
                r_ = yield from mpi.isend(1, size=4, payload=i)
                reqs.append(r_)
            yield from mpi.waitall(reqs)
        else:
            for i in range(80):
                yield from mpi.recv(source=0, capacity=64)
                yield from mpi.compute(8_000)

    r = run_job(prog, 2, "rdma-eager", prepost=4, config=TestbedConfig(nodes=2))
    assert r.fc.rnr_naks == 0
    assert r.fc.backlogged_msgs > 0


def test_one_way_flood_reclaims_via_watermark_ecm():
    """No reverse traffic to piggyback on: the low-watermark explicit ACK
    is the only way slots come home, so it must fire."""

    def prog(mpi):
        n = 40
        if mpi.rank == 0:
            for i in range(n):
                yield from mpi.send(1, size=4, payload=i)
        else:
            for i in range(n):
                yield from mpi.recv(source=0, capacity=64)

    r = run_job(prog, 2, "rdma-eager", prepost=8, config=TestbedConfig(nodes=2))
    assert r.fc.ecm_msgs > 0
    # the explicit ACKs must carry real slot reclaims home; the only
    # reverse traffic is the rendezvous-fallback control plane (CTS/FIN),
    # whose piggybacks alone cannot sustain the flood
    assert r.fc.ecm_credits > 0


def test_ping_pong_reclaims_by_piggyback():
    r = run_job(latency_program(4, iterations=30), 2, "rdma-eager",
                prepost=8, config=TestbedConfig(nodes=2))
    assert r.fc.piggybacked_credits > 0


def test_larger_than_slot_messages_take_rendezvous():
    def prog(mpi):
        if mpi.rank == 0:
            yield from mpi.send(1, size=8, tag=1, payload="small")
            yield from mpi.send(1, size=100_000, tag=1, payload="big",
                                buffer_id="b")
            yield from mpi.send(1, size=8, tag=1, payload="small2")
        else:
            a = yield from mpi.recv(source=0, capacity=200_000, tag=1)
            b = yield from mpi.recv(source=0, capacity=200_000, tag=1,
                                    buffer_id="r")
            c = yield from mpi.recv(source=0, capacity=200_000, tag=1)
            assert (a.payload, b.payload, c.payload) == ("small", "big",
                                                         "small2")

    r = run_job(prog, 2, "rdma-eager", prepost=10, config=TestbedConfig(nodes=2))
    assert r.fc.control_msgs >= 3  # the big message's RTS/CTS/FIN


def test_small_message_latency_beats_send_recv_schemes():
    """The ICS'03 headline the scheme exists for: no receive WQE/CQE on
    the critical path."""
    ring = run_job(latency_program(4, iterations=50), 2, "rdma-eager",
                   prepost=100, config=TestbedConfig(nodes=2))
    base = run_job(latency_program(4, iterations=50), 2, "static",
                   prepost=100, config=TestbedConfig(nodes=2))
    assert to_us(int(ring.rank_results[0])) < to_us(int(base.rank_results[0])) - 0.3


# ----------------------------------------------------------------------
# one owner: a connection has a ring iff the scheme owns one
# ----------------------------------------------------------------------
def test_a_ring_without_credits_cannot_be_configured():
    """Nothing but a slot token per write keeps a sender inside the ring;
    a scheme object (public input to ``run_job``) that asks for a ring and
    no credits used to flood 201 messages through 4 slots and report it."""

    class Overrun(HardwareScheme):
        uses_ring = True  # uses_credits stays False

    cluster = Cluster(TestbedConfig(nodes=2))
    with pytest.raises(MPIError, match="uses_ring needs uses_credits"):
        cluster.launch(2, Overrun(), 4)
    with pytest.raises(MPIError, match="Overrun"):
        run_job(latency_program(4, iterations=2), 2, Overrun(), prepost=4,
                config=TestbedConfig(nodes=2))


def _ring_exchange(mpi):
    right, left = (mpi.rank + 1) % mpi.world_size, (mpi.rank - 1) % mpi.world_size
    req = yield from mpi.irecv(source=left, capacity=64)
    yield from mpi.send(right, size=4)
    yield from mpi.wait(req)


@pytest.mark.parametrize("on_demand", [False, True], ids=["mesh", "on-demand"])
def test_a_connection_has_a_ring_iff_the_scheme_owns_one(on_demand):
    def conns(scheme):
        r = run_job(_ring_exchange, 3, scheme, prepost=2,
                    config=TestbedConfig(nodes=3), on_demand=on_demand)
        assert all(len(ep.connections) == 2 for ep in r.endpoints)
        return r.endpoints

    for scheme in ("hardware", "static", "dynamic"):
        assert all(conn.ring is None
                   for ep in conns(scheme) for conn in ep.connections.values())
    eps = conns("rdma-eager")
    for ep in eps:
        for peer, conn in ep.connections.items():
            ch = conn.ring
            assert isinstance(ch, RDMAChannel) and ch.ring.slots == 2
            # the sender half aims at the ring the peer polls for us
            theirs = eps[peer].connections[ep.rank].ring.ring
            assert (ch.tx_addr, ch.tx_rkey, ch.tx_slots) == (
                theirs.mr.addr, theirs.mr.rkey, theirs.slots)


def test_the_retired_knobs_are_unknown_fields():
    from repro.ib import IBConfig
    from repro.mpi import MPIConfig

    with pytest.raises(TypeError):
        MPIConfig(use_rdma_channel=True)
    with pytest.raises(TypeError):
        IBConfig(e2e_credit_updates=True)


# ----------------------------------------------------------------------
# auditor: ring-slot conservation / FIFO / leak
# ----------------------------------------------------------------------
def test_audited_rdma_eager_runs_clean():
    for seed in (11, 12, 13):
        auditor = Auditor()
        run_job(scheme="rdma-eager",
                **scenario_job(fuzz.generate_spec(seed), seed, audit=auditor))
        assert auditor.violations == []
        assert auditor.hook_calls > 0


def test_out_of_order_slot_free_is_a_fifo_violation():
    aud = Auditor(strict=False)
    aud._sim = SimpleNamespace(now=0)
    channel = SimpleNamespace(peer=1, endpoint=SimpleNamespace(rank=0),
                              ring=SimpleNamespace(slots=4))
    h1, h2 = _eager(4, seq=1), _eager(4, seq=2)
    aud.on_ring_deposit(channel, h1)
    aud.on_ring_deposit(channel, h2)
    aud.on_ring_free(channel, h2)  # rings must free in order
    aud.on_ring_free(channel, h1)
    assert any(v.invariant == "ring-slot-fifo" for v in aud.violations)


def test_overfull_ring_is_a_conservation_violation():
    aud = Auditor(strict=False)
    aud._sim = SimpleNamespace(now=0)  # not attached: no scheme consulted
    channel = SimpleNamespace(peer=1, endpoint=SimpleNamespace(rank=0),
                              ring=SimpleNamespace(slots=2))
    for seq in (1, 2, 3):  # three deposits into a two-slot ring
        aud.on_ring_deposit(channel, _eager(4, seq=seq))
    assert any(v.invariant == "ring-slot-conservation"
               for v in aud.violations)


def test_out_of_order_deposit_is_an_order_violation():
    aud = Auditor(strict=False)
    aud._sim = SimpleNamespace(now=0)
    channel = SimpleNamespace(peer=1, endpoint=SimpleNamespace(rank=0),
                              ring=SimpleNamespace(slots=4))
    for seq in (1, 2):
        aud.on_ring_deposit(channel, _eager(4, seq=seq))
    assert aud.violations == []
    aud.on_ring_deposit(channel, _eager(4, seq=2))  # not strictly increasing
    other = SimpleNamespace(peer=2, endpoint=SimpleNamespace(rank=0),
                            ring=SimpleNamespace(slots=4))
    aud.on_ring_deposit(other, _eager(4, seq=0))  # per directed pair
    assert [v.invariant for v in aud.violations] == ["ring-deposit-order"]


def test_swapped_ring_arrivals_are_caught_at_the_deposit(monkeypatch):
    """Mutant: the second ring write becomes visible before the first.
    The channel keeps its arrivals in a FIFO because one RC QP delivers in
    order; were that ever false the head would block the drain for good,
    so the auditor names it at the deposit."""
    real_deposit = RDMAChannel.deposit
    held = []

    def swapping_deposit(self, header):
        if header.seq == 0 and self.endpoint.rank == 1:
            held.append(header)  # hold the first write back ...
            return
        real_deposit(self, header)
        if held:
            real_deposit(self, held.pop())  # ... behind the second

    monkeypatch.setattr(RDMAChannel, "deposit", swapping_deposit)

    def prog(mpi):
        if mpi.rank == 0:
            reqs = []
            for i in range(3):
                reqs.append((yield from mpi.isend(1, size=4, payload=i)))
            yield from mpi.waitall(reqs)
        else:
            for _ in range(3):
                yield from mpi.recv(source=0, capacity=64)

    with pytest.raises(InvariantViolation) as exc:
        run_job(prog, 2, "rdma-eager", prepost=8,
                config=TestbedConfig(nodes=2), audit=True)
    assert exc.value.invariant == "ring-deposit-order"


def test_ring_slot_leak_is_caught_at_final_check(monkeypatch):
    """Mutant: the receiver processes a message but never reclaims its
    slot.  The credit ledger stays balanced (the grant is a separate
    act), so only the ring-slot-leak final check can catch this."""
    real_free = Auditor.on_ring_free
    leaked = []

    def leaky_free(self, channel, h):
        if not leaked:
            leaked.append(h.seq)  # silently forget the first slot
            return
        real_free(self, channel, h)

    # the endpoint reports a reclaimed slot through this hook alone
    monkeypatch.setattr(Auditor, "on_ring_free", leaky_free)
    with pytest.raises(InvariantViolation) as exc:
        run_job(latency_program(4, iterations=5), 2, "rdma-eager",
                prepost=8, config=TestbedConfig(nodes=2), audit=True)
    assert exc.value.invariant == "ring-slot-leak"


# ----------------------------------------------------------------------
# differential fuzzing: the fourth scheme joins the delivery-equivalence
# matrix under every fault scenario
# ----------------------------------------------------------------------
def test_differential_fuzz_all_four_schemes_all_scenarios():
    summary = fuzz.run_fuzz(
        seed=3, runs=4, schemes=fuzz.EXTENDED_SCHEMES,
        scenarios=fuzz.SCENARIOS,  # none, stall, lossy, link-down
        out_dir="", log=None,
    )
    assert summary["failures"] == []
    assert len(summary["digests"]) == 4


@pytest.mark.parametrize("scenario", [None, "receiver-stall"])
def test_rdma_eager_matches_static_delivery(scenario):
    spec = fuzz.generate_spec(17, scenario)
    comparison = fuzz.compare_schemes(spec, ("static", "rdma-eager"))
    assert comparison["failure"] is None
    assert (comparison["results"]["rdma-eager"]["delivered"]
            == comparison["results"]["static"]["delivered"])


# ----------------------------------------------------------------------
# recovery: the rings keep their regions, the cursors restart, replays land
# ----------------------------------------------------------------------
def test_link_down_recovery_reestablishes_rings():
    plan = (FaultPlan(seed=5, transport_timeout_ns=us(40),
                      transport_retry_limit=3)
            .link_flap(lid=1, at_ns=us(30), duration_ns=us(500)))

    def prog(mpi):
        peer = 1 - mpi.rank
        n = 30
        if mpi.rank == 0:
            for i in range(n):
                yield from mpi.send(peer, size=16, tag=i % 4, payload=i)
        else:
            got = set()
            for i in range(n):
                st = yield from mpi.recv(source=peer, capacity=64,
                                         tag=i % 4)
                got.add(st.payload)
            assert got == set(range(n))

    cluster = Cluster(TestbedConfig(nodes=2))
    eps = cluster.launch(2, make_scheme("rdma-eager"), 4)
    cluster.wire(eps[0], 1)
    chans = [ep.connections[1 - ep.rank].ring for ep in eps]
    rings = [ch.ring for ch in chans]
    qps = [ep.connections[1 - ep.rank].qp for ep in eps]
    cursors = []
    reset_pair = cluster.reset_pair

    def spy(a, b):  # each sender's cursor right after the bring-up
        flushed = reset_pair(a, b)
        cursors.append([ch.tx_next for ch in chans])
        return flushed

    cluster.reset_pair = spy
    r = run_job(prog, 2, "rdma-eager", prepost=4, cluster=cluster, faults=plan,
                recovery=RecoveryPolicy(max_attempts=12, seed=5), audit=True)
    assert r.completed
    assert r.recovery.recoveries_completed >= 1
    assert cursors == [[0, 0]] * r.recovery.recoveries_completed
    for ep, ch, ring, qp in zip(eps, chans, rings, qps):
        conn = ep.connections[1 - ep.rank]
        # the same channel polls the same region; only the QP is new
        assert conn.ring is ch and ch.ring is ring and conn.qp is not qp
    for tx, rx in ((chans[0], rings[1]), (chans[1], rings[0])):
        assert (tx.tx_addr, tx.tx_rkey) == (rx.mr.addr, rx.mr.rkey)
    assert r.audit.violations == []


@pytest.mark.parametrize("seed", [5, 7])
def test_link_down_recovery_matches_fault_free_delivery(seed):
    spec = fuzz.generate_spec(seed, "link-down")
    faulty = fuzz.run_spec(spec, "rdma-eager")
    clean = fuzz.run_spec({**spec, "faults": None,
                           "arming": {**spec["arming"], "recovery": False}}, "rdma-eager")
    assert clean["ok"], clean
    assert faulty["ok"], faulty
    assert faulty["violations"] == 0
    assert faulty["delivered"] == clean["delivered"]


# ----------------------------------------------------------------------
# memory accounting: ring bytes are pinned, measured == predicted
# ----------------------------------------------------------------------
def test_ring_memory_is_pinned_and_matches_closed_form():
    prepost = 6
    r = run_job(latency_program(4, iterations=5), 2, "rdma-eager",
                prepost=prepost, config=TestbedConfig(nodes=2))
    mem = r.memory
    cfg = TestbedConfig(nodes=2)
    mpi, ib = cfg.mpi, cfg.ib
    assert mem.ring_bytes == 2 * 2 * prepost * mpi.vbuf_bytes  # 2 conns x 2 rings
    # measured per-connection (pinned + qp + ring) == the closed form the
    # conservation story rests on
    per_conn = (mem.vbuf_pinned_bytes + mem.qp_bytes + mem.ring_bytes) // 2
    assert per_conn == predicted_connection_bytes("rdma-eager", prepost,
                                                  mpi, ib)
    assert mem.ring_bytes > 0
    assert mem.total_bytes >= mem.ring_bytes


def test_send_recv_schemes_pin_no_ring_bytes():
    r = run_job(latency_program(4, iterations=5), 2, "static", prepost=6,
                config=TestbedConfig(nodes=2))
    assert r.memory.ring_bytes == 0


def test_mesh_model_is_ring_aware():
    mpi = TestbedConfig().mpi
    ring = mesh_pinned_bytes(64, "rdma-eager", 1, mpi)
    plain = mesh_pinned_bytes(64, "hardware", 1, mpi)
    # control reserve + both ring halves per connection vs one vbuf
    assert ring == 64 * 63 * (mpi.rdma_control_bufs + 2) * mpi.vbuf_bytes
    assert plain == 64 * 63 * mpi.vbuf_bytes
    assert qp_state_bytes(TestbedConfig().ib) > 0


# ----------------------------------------------------------------------
# a blocked rank waits on one thing, its CQ: a ring deposit wakes it
# ----------------------------------------------------------------------
@pytest.mark.parametrize("blocking, elapsed_ns", [(False, 6_730_202), (True, 5_769_838)])
def test_a_blocked_rank_leaves_no_dead_waiter(monkeypatch, blocking, elapsed_ns):
    """A wait on two waitables leaves the process parked on the one that
    lost, and every later wait parks it again beside the stale entry: each
    wakeup would then dispatch dead ones.  One waitable a wait, so no CQ
    ever holds more than one parked process."""
    most = 0
    real_block = CompletionQueue._block

    def block(self, sim, process):
        nonlocal most
        most = max(most, (self._waiter is not None) + (not self._entries))
        real_block(self, sim, process)

    monkeypatch.setattr(CompletionQueue, "_block", block)
    r = run_job(bandwidth_program(4, 100, repetitions=10, blocking=blocking),
                2, "rdma-eager", prepost=10, config=TestbedConfig(nodes=2))
    assert r.elapsed_ns == elapsed_ns
    assert most == 1


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def test_rdma_eager_runs_are_bit_identical():
    def once():
        return run_job(latency_program(64, iterations=20), 2, "rdma-eager",
                       prepost=8, config=TestbedConfig(nodes=2))

    a, b = once(), once()
    assert a.elapsed_ns == b.elapsed_ns
    assert a.endpoints[0].sim.events_executed == b.endpoints[0].sim.events_executed
