"""The connection-recovery subsystem (repro.recovery).

Matrix (the ISSUE acceptance grid): three schemes x three fatal modes
(RNR retry budget, transport retry budget, permanent link loss) x
recovery {on, off}.  With recovery on and a *healing* fault, every
scheme finishes with a delivered multiset identical to the fault-free
run (reusing the differential fuzzer's comparator) under the runtime
auditor; with recovery off — or a fault that never heals — the job
reports structured :class:`ConnectionFailure` records promptly instead
of hanging until the progress watchdog.

Plus the satellite units: the error-completion dispatch path, the
recovery-aware repost path, the adaptive RNR backoff ladder, and the
zero-cost-when-disabled guarantee.
"""

import random

import pytest

from repro.check import fuzz
from repro.cluster import Cluster, TestbedConfig
from repro.cluster.job import run_job
from repro.core import make_scheme
from repro.faults import FaultPlan, scenario_job
from repro.ib import IBConfig, Opcode, QPState, SendWR, WCStatus
from repro.recovery import ConnectionFailure, RecoveryPolicy
from repro.recovery.policy import pair_rng
from repro.sim.units import us
from tests.ib_helpers import build_pair

SCHEMES = ("hardware", "static", "dynamic")

#: Progress-watchdog bound (5 ms): a "prompt" failure must beat this by
#: a wide margin, or the old hang-until-watchdog behaviour is back.
WATCHDOG_NS = 5_000_000


def _link_down_spec(seed: int, heal: bool = True) -> dict:
    """A fuzz spec whose link outage exhausts the transport retry budget
    (RETRY_EXCEEDED mid-stream).  ``heal=False`` makes the outage outlive
    any reconnect budget as well."""
    spec = fuzz.generate_spec(seed, "link-down")
    if not heal:
        spec = dict(spec)
        spec["faults"] = dict(spec["faults"])
        spec["faults"]["events"] = [
            dict(ev, duration_ns=10**12) for ev in spec["faults"]["events"]
        ]
    return spec


def _on_own_nodes(scenario: str, **arming) -> dict:
    """The chaos scenario's job on a testbed of one node per rank."""
    job = scenario_job(scenario, **arming)
    job["config"].nodes = job["nranks"]
    return job


def _fault_free(spec: dict) -> dict:
    return {**spec, "faults": None, "arming": {**spec["arming"], "recovery": False}}


# ----------------------------------------------------------------------
# the matrix: recovery ON, healing faults -> fault-free delivery
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("seed", [5, 7])  # seed 5 is the 3-rank
# rendezvous-heavy regression that caught the credit-less backlog stall
def test_link_down_recovery_matches_fault_free_delivery(scheme, seed):
    spec = _link_down_spec(seed)
    faulty = fuzz.run_spec(spec, scheme)
    clean = fuzz.run_spec(_fault_free(spec), scheme)
    assert clean["ok"], clean
    assert faulty["ok"], faulty  # auditor armed inside run_spec
    assert faulty["violations"] == 0
    # run_spec returns the delivered multiset in canonical sorted order,
    # so list equality IS multiset equality.
    assert faulty["delivered"] == clean["delivered"]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_rnr_budget_recovery_matches_fault_free_delivery(scheme):
    # The RNR axis: a descheduled receiver against a finite RNR retry
    # count.  Only the hardware scheme actually goes fatal (credits spare
    # the user-level schemes), but the matrix runs all three.
    clean = run_job(scheme=scheme, **{**_on_own_nodes("retry-budget"), "faults": None})
    cured = run_job(scheme=scheme, **scenario_job("retry-budget", recovery=True))
    assert clean.completed and cured.completed
    if scheme == "hardware":
        assert cured.recovery.recoveries_completed >= 1
        assert cured.recovery.messages_replayed >= 1


# ----------------------------------------------------------------------
# the matrix: recovery OFF -> prompt structured failure, never a hang
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", SCHEMES)
def test_link_down_without_recovery_fails_promptly(scheme):
    # The regression for the original bug: a fatal completion used to be
    # swallowed by the MPI completion loop, leaking the vbuf and hanging
    # the job until the progress watchdog called it "deadlock".  The
    # dispatch path must now surface the real WC status, fast.
    result = run_job(scheme=scheme, **_on_own_nodes("link-down-permanent"))
    assert not result.completed
    assert result.failures
    f = result.failures[0]
    assert isinstance(f, ConnectionFailure)
    assert f.cause == WCStatus.RETRY_EXCEEDED.value  # the *real* cause
    assert {f.rank, f.peer} == {0, 1}
    assert f.attempts == 0  # no recovery manager -> nothing was attempted
    assert f.to_dict()["cause"] == f.cause  # JSON-ready record
    # Promptness: the transport ladder exhausts within a few hundred us;
    # anything near the watchdog bound means we hung first.
    assert result.elapsed_ns < WATCHDOG_NS // 2


def test_rnr_budget_without_recovery_fails_with_rnr_cause():
    result = run_job(scheme="hardware", **scenario_job("retry-budget"))
    assert not result.completed
    assert result.failures[0].cause == WCStatus.RNR_RETRY_EXCEEDED.value
    assert result.elapsed_ns < WATCHDOG_NS


# ----------------------------------------------------------------------
# the matrix: permanent loss -> recovery budget exhausts structurally
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", SCHEMES)
def test_permanent_link_down_exhausts_recovery_budget(scheme):
    plan = (FaultPlan(seed=7, transport_timeout_ns=us(40),
                      transport_retry_limit=4)
            .link_flap(lid=1, at_ns=us(100), duration_ns=10**12))
    policy = RecoveryPolicy(max_attempts=3, base_delay_ns=us(20),
                            max_delay_ns=us(200), jitter_ns=us(5))
    job = _on_own_nodes("link-down-permanent", recovery=policy)
    result = run_job(scheme=scheme, **{**job, "faults": plan})
    assert not result.completed
    f = result.failures[0]
    assert f.attempts == policy.max_attempts  # the budget, not the watchdog
    assert result.recovery.summary()["failed_pairs"] >= 1


@pytest.mark.parametrize("scheme", SCHEMES)
def test_permanent_link_down_fuzz_spec_reports_connection_failure(scheme):
    # Same axis through the fuzz harness (auditor armed): a never-healing
    # outage must come back as a structured connection-failure record,
    # not an invariant violation or a livelock.
    res = fuzz.run_spec(_link_down_spec(7, heal=False), scheme)
    assert not res["ok"]
    assert res["kind"] == "connection-failure", res


# ----------------------------------------------------------------------
# satellite: the repost path is recovery-aware
# ----------------------------------------------------------------------
def test_refill_recv_buffers_tolerates_error_qp():
    cluster = Cluster(TestbedConfig(nodes=2))
    cluster.launch(2, make_scheme("static"), prepost=5)
    ep0, ep1 = cluster.endpoints[0], cluster.endpoints[1]
    cluster.wire(ep0, 1)
    conn01, conn10 = ep0.connections[1], ep1.connections[0]
    population = conn01.recv_posted
    assert population > 0

    conn01.qp.force_error()
    assert conn01.qp.state is QPState.ERROR
    # The old repost path called qp.post_recv unconditionally, which
    # raises in ERROR state; the recovery-aware gate returns 0 instead.
    assert conn01.refill_recv_buffers() == 0

    # Reclaim the flushed completions the way the manager does, then
    # re-arm the pair: the population comes back to the full budget.
    for wc in ep0.cq.poll():
        if not wc.ok:
            ep0._reclaim_error_wc(wc)
    conn10.qp.force_error()
    for wc in ep1.cq.poll():
        if not wc.ok:
            ep1._reclaim_error_wc(wc)
    for conn, peer_conn in ((conn01, conn10), (conn10, conn01)):
        conn.qp.reset()
    conn01.qp.connect(ep1.hca.lid, conn10.qp.qp_num)
    conn10.qp.connect(ep0.hca.lid, conn01.qp.qp_num)
    assert conn01.refill_recv_buffers() > 0
    assert conn01.recv_posted == population


def test_error_wc_without_recovery_reclaims_send_pool():
    # The other half of the original bug: the fatal send's vbuf must be
    # released on the error path (it used to leak).
    from repro.ib import WC
    from repro.mpi.protocol import Header, MsgKind
    from repro.recovery import ConnectionFailedError

    cluster = Cluster(TestbedConfig(nodes=2))
    cluster.launch(2, make_scheme("static"), prepost=5)
    ep = cluster.endpoints[0]
    cluster.wire(ep, 1)
    conn = ep.connections[1]
    header = Header(kind=MsgKind.EAGER, src=0, dst=1, size=4)
    ep._emit(conn, header)  # stages it in a pool vbuf and posts the SEND
    in_use = ep.pool.in_use
    assert in_use == 1 and ep._sends_open == 1
    # the completion the QP pushes on retry exhaustion: the send's record
    # (its header) rides back as wr_id
    wc = WC(wr_id=header, status=WCStatus.RETRY_EXCEEDED,
            opcode=Opcode.SEND, qp_num=conn.qp.qp_num, peer=conn.peer)
    with pytest.raises(ConnectionFailedError) as err:
        ep._handle_error_wc(wc)
    assert err.value.failure.cause == WCStatus.RETRY_EXCEEDED.value
    assert err.value.failure.peer == 1
    assert ep.pool.in_use == in_use - 1  # vbuf released, not leaked
    assert ep._sends_open == 0


# ----------------------------------------------------------------------
# satellite: adaptive RNR backoff (ib.types knobs)
# ----------------------------------------------------------------------
def _time_to_rnr_fatal(factor: float, cap_ns: int) -> int:
    cfg = IBConfig(rnr_retry_count=3, rnr_backoff_factor=factor,
                   rnr_backoff_max_ns=cap_ns)
    sim, _, _, qp0, qp1, cq0, cq1 = build_pair(cfg)
    # No receive buffer at qp1: every attempt RNR-NAKs until the budget
    # (3 retries) is spent and the WR completes RNR_RETRY_EXCEEDED.
    qp0.post_send(SendWR(wr_id="s", opcode=Opcode.SEND, length=64, payload=0))
    sim.run(max_events=100_000)
    (wc,) = cq0.poll()
    assert wc.status is WCStatus.RNR_RETRY_EXCEEDED
    return sim.now


def test_rnr_backoff_ladder_stretches_time_to_fatal():
    base = IBConfig().rnr_timer_ns
    flat = _time_to_rnr_fatal(1.0, cap_ns=us(100_000))
    doubling = _time_to_rnr_fatal(2.0, cap_ns=us(100_000))
    # Waits: flat = b + b + b; doubling = b + 2b + 4b  ->  exactly +4b
    # (the NAK round-trips are identical, and the sim is deterministic).
    assert doubling - flat == 4 * base


def test_rnr_backoff_cap_clamps_to_base_timer():
    flat = _time_to_rnr_fatal(1.0, cap_ns=us(100_000))
    base = IBConfig().rnr_timer_ns
    capped = _time_to_rnr_fatal(2.0, cap_ns=base)  # cap == base: no-op
    assert capped == flat


def test_rnr_backoff_resets_after_delivery():
    cfg = IBConfig(rnr_backoff_factor=2.0, rnr_backoff_max_ns=us(100_000))
    sim, _, _, qp0, qp1, cq0, cq1 = build_pair(cfg)
    from repro.ib import RecvWR

    qp0.post_send(SendWR(wr_id="a", opcode=Opcode.SEND, length=64, payload=0))
    # Let two NAK cycles escalate the wait, then post the buffer.
    sim.schedule(2 * cfg.rnr_timer_ns + us(1), qp1.post_recv,
                 RecvWR(wr_id="r0", capacity=2048))
    sim.run(max_events=100_000)
    assert cq0.poll()[0].ok
    escalated_naks = qp0.rnr_naks_received
    assert escalated_naks >= 2

    # A fresh message starts back at the base timer: one NAK cycle plus
    # the base wait delivers it, with no residue from the first ladder
    # (the buffer appears mid-wait, well after arrival, so exactly one
    # NAK fires and the retry waits the *base* timer, not 8x it).
    start = sim.now
    qp0.post_send(SendWR(wr_id="b", opcode=Opcode.SEND, length=64, payload=1))
    sim.schedule(cfg.rnr_timer_ns // 2, qp1.post_recv,
                 RecvWR(wr_id="r1", capacity=2048))
    sim.run(max_events=100_000)
    assert cq0.poll()[0].ok
    assert qp0.rnr_naks_received == escalated_naks + 1
    assert sim.now - start < 2 * cfg.rnr_timer_ns


def test_recovery_failures_are_deterministic():
    def once():
        r = run_job(scheme="dynamic", **_on_own_nodes("link-down-permanent"))
        return [f.to_dict() for f in r.failures], r.elapsed_ns

    assert once() == once()


@pytest.mark.parametrize("seed, a, b, attempt", [
    (0, 0, 1, 1), (7, 2, 5, 3), (123, 0, 1023, 5), (2**31, 4, 6, 12), (1, 9, 3, 40),
])
def test_backoff_and_pair_rng_are_the_schedule_and_key_they_replaced(seed, a, b, attempt):
    # the two spellings RecoveryManager._begin and ConnectionManager._attempt
    # kept of one schedule, and the one RNG key three subsystems wrote out
    for policy in (RecoveryPolicy(seed=seed),
                   RecoveryPolicy(base_delay_ns=us(7), backoff_factor=1.0),
                   RecoveryPolicy(base_delay_ns=us(3), backoff_factor=3.0,
                                  max_delay_ns=us(900))):
        delay = policy.base_delay_ns
        if policy.backoff_factor != 1.0 and attempt > 1:
            delay = int(delay * policy.backoff_factor ** (attempt - 1))
        assert policy.backoff_ns(attempt) == min(delay, policy.max_delay_ns) == min(
            policy.max_delay_ns,
            int(policy.base_delay_ns * policy.backoff_factor ** (attempt - 1)))
    old = random.Random(seed * 1_000_003 + a * 1009 + b * 131 + attempt)
    new = pair_rng(seed, a, b, attempt)
    assert [new.random() for _ in range(4)] == [old.random() for _ in range(4)]
