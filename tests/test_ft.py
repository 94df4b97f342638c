"""Rank-failure tolerance (repro.ft): heartbeat detection, ULFM-style
error propagation, control-plane chaos, and the zero-cost-when-disabled
contract.

The detector's claims under test:

- a dead rank becomes a structured :class:`RankFailure` (never a hang),
  within the configured detection budget, via either the heartbeat path
  (infinite transport retry) or transport retry exhaustion (finite);
- every pending request toward the corpse completes with a
  ``PROC_FAILED`` status, and survivors keep communicating among
  themselves (revoke/shrink continue a degraded workload);
- with ft disabled the same death is caught by the progress watchdog —
  the pre-ft failure mode — and with no plan armed the subsystem is
  bit-identical off.
"""

import json

import pytest

from repro.check.auditor import Auditor, InvariantViolation
from repro.cluster import Cluster, TestbedConfig, run_job
from repro.cluster.on_demand import SetupChaos
from repro.core import make_scheme
from repro.faults import SCENARIOS, FaultPlan, scenario_job
from repro.ft import FTConfig, PROC_FAILED, RankFailure
from repro.mpi.comm import CommRevokedError, MPIError, world
from repro.recovery import RecoveryPolicy
from repro.recovery.failures import ConnectionFailure
from repro.sim.engine import SimulationError
from repro.sim.units import us

from tests.test_quiescence import _ring

DEATH = SCENARIOS["rank-death"]
VICTIM = DEATH["workload"]["victim"]  # rank 2 of 4 (one rank per node by default)

ALL_SCHEMES = ("static", "dynamic", "hardware", "rdma-eager")


def _death_plan(seed=7, **kw):
    """The rank-death scenario's plan, plan fields overridden by ``kw``."""
    return FaultPlan.from_spec({**DEATH["faults"], "seed": seed, **kw})


def _run_death(scheme="static", plan=None, **kw):
    job = scenario_job("rank-death", ft=True, **kw)  # the scenario audits
    return run_job(scheme=scheme,
                   **{**job, "faults": plan if plan is not None else job["faults"]})


# ----------------------------------------------------------------------
# detection
# ----------------------------------------------------------------------
def test_rank_death_yields_structured_failure_within_budget():
    r = _run_death("static")
    assert len(r.failures) == 1
    f = r.failures[0]
    assert isinstance(f, RankFailure)
    assert f.rank == VICTIM
    assert f.detected_by != VICTIM
    assert f.died_ns == us(40)
    assert f.detected_ns > f.died_ns
    assert f.detection_latency_ns == f.detected_ns - f.died_ns
    assert f.detection_latency_ns <= FTConfig().detection_budget_ns
    assert f.suspect_rounds >= 1
    assert f.dedup_key() == ("rank", VICTIM)
    d = f.to_dict()
    assert d["kind"] == "rank-death"
    assert d["detection_latency_ns"] == f.detection_latency_ns


def test_infinite_retry_detects_via_heartbeat():
    """With the default (infinite) transport retry the transport never
    confirms anything — detection is the heartbeat detector's alone."""
    f = _run_death("static").failures[0]
    assert f.cause == "heartbeat-timeout"


def test_finite_retry_detects_via_transport_exhaustion_and_faster():
    slow = _run_death("static").failures[0]
    fast = _run_death(
        "static", plan=_death_plan(transport_retry_limit=3)
    ).failures[0]
    assert fast.cause == "transport-retry-exceeded"
    assert fast.detected_ns < slow.detected_ns


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_with_recovery_armed_too_a_dead_peer_is_declared_not_recovered(scheme):
    """ft's row of the failure table comes first: a finite retry against
    the dead adapter is the detection, and no recovery ever begins."""
    r = _run_death(scheme, plan=_death_plan(transport_retry_limit=3), recovery=True)
    (f,) = r.failures
    assert isinstance(f, RankFailure) and f.cause == "transport-retry-exceeded"
    assert r.recovery.summary()["recoveries"] == 0


def test_heartbeat_only_detection_when_transport_is_silent():
    """Survivors only *receive* from the victim: no transport traffic
    toward the corpse, so explicit pings are the only liveness probe."""

    def prog(ep):
        if ep.rank == VICTIM:
            yield from ep.compute(us(10_000))  # killed long before this
            return None
        req = yield from ep.irecv(source=VICTIM, capacity=64)
        st = yield from ep.wait(req)
        return st.error

    r = run_job(prog, 4, "static", 8, faults=_death_plan(),
                audit=True, ft=True)
    f = r.failures[0]
    assert f.cause == "heartbeat-timeout"
    assert r.ft.pings_sent > 0
    survivors = [x for i, x in enumerate(r.rank_results) if i != VICTIM]
    assert survivors == [PROC_FAILED] * 3


def test_ft_stats_exposed_on_job_result():
    r = _run_death("dynamic")
    stats = r.ft.summary()
    assert stats == r.report()["ft"]
    assert "failures" not in stats  # the records are JobResult.failures
    assert stats["dead"] == [VICTIM]
    assert stats["suspicions"] >= 1
    assert stats["proc_failed_requests"] >= 1


# ----------------------------------------------------------------------
# ULFM propagation: PROC_FAILED, zero hung ranks, revoke/shrink
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_no_rank_hangs_and_pending_requests_fail(scheme):
    r = _run_death(scheme)
    assert len(r.failures) == 1
    for rank, res in enumerate(r.rank_results):
        if rank == VICTIM:
            assert res is None  # killed, returned nothing
            continue
        # sends and recvs aimed at the corpse completed with PROC_FAILED;
        # the survivor-only ring completed cleanly
        assert res["send_error"] == PROC_FAILED
        assert res["recv_error"] == PROC_FAILED
        assert res["ring_error"] is None


@pytest.mark.parametrize("on_demand", [False, True], ids=["mesh", "on-demand"])
@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_a_death_on_a_shared_adapter_cuts_off_the_rank_beside_it(scheme, on_demand):
    """Eight ranks on four adapters: rank 6 shares rank 2's, which dies
    with it.  Rank 6 is cut off with the adapter and reported dead too;
    the survivors finish.  It used to exceed the reaping run's event
    budget on a mesh (rank 6's flushed connection ended the job with the
    heartbeat still on the agenda) and to livelock on demand (rank 6,
    silent to itself, declared rank 5 dead, and rank 5 replayed toward the
    dead adapter forever)."""
    r = run_job(_ring, 8, scheme, 2, config=TestbedConfig(nodes=4), ft=True,
                on_demand=on_demand,
                faults=FaultPlan(seed=7).rank_death(rank=2, at_ns=us(30)))
    assert sorted(f.rank for f in r.failures) == [2, 6]
    assert all(isinstance(f, RankFailure) for f in r.failures)
    assert [r.rank_finish_ns[rank] > 0 for rank in range(8)] == [
        rank not in (2, 6) for rank in range(8)]


@pytest.mark.parametrize("ft", [False, True], ids=["no-ft", "ft"])
def test_the_victims_process_is_finished_from_the_death_on(ft):
    """A rank death kills the rank's process at the death event: from then
    on it is finished, not parked, and no flushed completion resumes it.
    Under ft rank 6, on the same adapter, goes with it; without ft it runs
    on until its flushed connection ends the job."""
    cluster = Cluster(TestbedConfig(nodes=4))
    cluster.launch(8, make_scheme("static"), 2)
    seen = []
    cluster.sim.call_at(us(30) + 1, lambda: seen.extend(
        (p.alive, p.killed) for p in cluster.procs))
    r = run_job(_ring, 8, "static", 2, cluster=cluster, ft=ft,
                faults=FaultPlan(seed=7).rank_death(rank=2, at_ns=us(30)))
    dead = (2, 6) if ft else (2,)
    assert seen == [(False, True) if rank in dead else (True, False)
                    for rank in range(8)]
    assert [rank for rank, p in enumerate(cluster.procs) if p.killed] == list(dead)
    assert r.rank_results[2] is None and r.rank_finish_ns[2] == 0


def _victim_polls_at_30us(ep):
    """Rank 2 is in ``wait`` with its poll landing on 30 µs exactly, after
    the fault plan's event at that instant; ranks 0 and 1 ping-pong."""
    if ep.rank == 2:
        req = yield from ep.irecv(source=1, capacity=64)
        yield from ep.compute(us(30) - ep._t_poll.delay - ep.sim.now)
        yield from ep.wait(req)
    elif ep.rank in (0, 1):
        for _ in range(5):
            if ep.rank == 0:
                yield from ep.send(1, 64)
                yield from ep.recv(source=1, capacity=64)
            else:
                yield from ep.recv(source=0, capacity=64)
                yield from ep.send(0, 64)
    return ep.rank


@pytest.mark.parametrize("arm", [{}, {"recovery": True}, {"ft": True},
                                 {"ft": True, "recovery": True}],
                         ids=["plain", "recovery", "ft", "ft+recovery"])
def test_a_wakeup_due_at_the_death_instant_does_not_resume_the_victim(arm):
    """The kill takes effect inside the death event: a wakeup of the victim
    due at the same nanosecond is dropped, so it never polls its flushed
    completions and reports no connection failure (nor starts a recovery)
    toward a live peer.  Without ft the victim simply never finishes."""
    cluster = Cluster(TestbedConfig(nodes=4))
    cluster.launch(4, make_scheme("static"), 2)
    job = dict(cluster=cluster, finalize=False,
               faults=FaultPlan(seed=7).rank_death(rank=2, at_ns=us(30)), **arm)
    if "ft" not in arm:
        with pytest.raises(RuntimeError, match=r"\['rank2'\] never finished"):
            run_job(_victim_polls_at_30us, 4, "static", 2, **job)
    else:
        r = run_job(_victim_polls_at_30us, 4, "static", 2, **job)
        assert r.failures == []
        assert r.rank_results == [0, 1, None, 3]
    assert [p.killed for p in cluster.procs] == [False, False, True, False]


@pytest.mark.parametrize("on_demand", [False, True], ids=["mesh", "on-demand"])
def test_a_connection_failure_after_a_death_ends_the_job_there(on_demand):
    """Rank 2 dies, then rank 5's link stays down past a finite retry
    limit: the first connection failure stops the simulation, and the job
    ends there with both records.  Reaping the dead rank used to run the
    simulation on, and the next connection failure escaped ``run_job``."""
    plan = (FaultPlan(seed=7, transport_timeout_ns=us(20), transport_retry_limit=2)
            .rank_death(rank=2, at_ns=us(30))
            .link_flap(lid=5, at_ns=us(31), duration_ns=us(100_000)))
    r = run_job(_ring, 8, "static", 2, config=TestbedConfig(nodes=8), ft=True,
                on_demand=on_demand, faults=plan)
    assert sorted(type(f).__name__ for f in r.failures) == [
        ConnectionFailure.__name__, RankFailure.__name__]


def test_revoke_shrink_and_degraded_continuation():
    """After detection the survivors revoke the world communicator,
    shrink it, and finish a collective on the survivor group."""

    def prog(ep):
        comm = world(ep)
        if ep.rank == VICTIM:
            yield from ep.compute(us(10_000))
            return None
        req = yield from ep.isend(VICTIM, 50_000)
        st = yield from ep.wait(req)
        assert st.error == PROC_FAILED
        comm.revoke()
        assert comm.revoked
        try:
            yield from comm.isend((ep.rank + 1) % 4, 4)
            revoked_raise = False
        except CommRevokedError:
            revoked_raise = True
        assert comm.failed_ranks() == [VICTIM]
        shrunk = comm.shrink()
        assert shrunk.size == 3 and VICTIM not in shrunk.group
        total = yield from shrunk.allreduce(size=8, value=1,
                                            op=lambda a, b: a + b)
        return (revoked_raise, total)

    r = run_job(prog, 4, "static", 8, faults=_death_plan(),
                audit=True, ft=True)
    for rank, res in enumerate(r.rank_results):
        if rank != VICTIM:
            assert res == (True, 3)


def test_shrink_without_ft_keeps_full_group():
    def prog(ep):
        comm = world(ep)
        assert comm.failed_ranks() == []
        shrunk = comm.shrink()
        assert shrunk.group == comm.group
        yield from ep.compute(10)

    run_job(prog, 2, "static", 4, config=TestbedConfig(nodes=2))


# ----------------------------------------------------------------------
# the no-ft contrast: same plan, pre-ft failure modes
# ----------------------------------------------------------------------
def test_without_ft_the_watchdog_catches_the_death():
    with pytest.raises(InvariantViolation, match="progress-watchdog"):
        run_job(scheme="static", **scenario_job("rank-death"))


def test_without_ft_or_audit_the_hung_check_catches_it():
    plan = _death_plan(transport_retry_limit=3)

    def prog(ep):
        if ep.rank == VICTIM:
            yield from ep.compute(us(10_000))
            return None
        # recv-only: no error completion ever reaches a survivor, so
        # nothing raises and the agenda simply drains with live ranks
        st = yield from ep.recv(source=VICTIM, capacity=64)
        return st.error

    with pytest.raises(RuntimeError, match="deadlock"):
        run_job(prog, 4, "static", 8, faults=plan)


@pytest.mark.xfail(strict=True, raises=SimulationError, reason=(
    "open: under the plan's default unlimited transport retry, with neither "
    "ft nor an auditor armed, the survivors retransmit to the dead adapter "
    "until the event ceiling; a retry limit of 3 or an auditor ends the "
    "same job"))
def test_without_ft_or_audit_a_death_under_unlimited_retry_ends_structurally():
    for scheme in ALL_SCHEMES:
        r = run_job(_ring, 8, scheme, 4, config=TestbedConfig(nodes=8),
                    max_events=100_000,
                    faults=FaultPlan(seed=7).rank_death(rank=2, at_ns=us(30)))
        assert not r.completed and r.failures, scheme


def _send_after_the_death(ep):
    if ep.rank == 0:
        yield from ep.compute(us(200))
        yield from ep.send(1, size=4)
    else:
        yield from ep.compute(us(1_000))  # killed at 100 us


@pytest.mark.xfail(strict=True, raises=SimulationError, reason=(
    "open: an eager send to a rank already dead completes when it is "
    "emitted, so the detector watches nothing, no ping goes out and the "
    "unlimited transport retry never ends"))
@pytest.mark.parametrize("on_demand", [False, True], ids=["mesh", "on-demand"])
def test_an_eager_send_to_a_rank_already_dead_detects_it(on_demand):
    r = run_job(_send_after_the_death, 2, "static", 4, ft=True, on_demand=on_demand,
                max_events=100_000,
                faults=FaultPlan(seed=7).rank_death(rank=1, at_ns=us(100)))
    assert [(type(f), f.rank) for f in r.failures] == [(RankFailure, 1)]


# ----------------------------------------------------------------------
# dedup (satellite: O(n^2) failure collection -> dedup_key set)
# ----------------------------------------------------------------------
def test_rank_failure_recorded_once_despite_many_observers():
    """Every survivor observes the same death (failed requests, failed
    pending signals, the manager's own record): JobResult.failures must
    still carry exactly one record per dead rank."""
    r = _run_death("hardware")
    assert len(r.failures) == 1
    assert r.ft.proc_failed >= 3  # many observations, one record


def test_cm_exhaustion_failure_deduped_across_both_waiters():
    """Both ends of the pair wait on the same doomed CM signal; the
    shared ConnectionFailure must be recorded once, not per waiter."""

    def prog(ep):
        peer = 1 - ep.rank
        rreq = yield from ep.irecv(source=peer, capacity=64)
        sreq = yield from ep.isend(peer, 4)
        yield from ep.waitall([rreq, sreq])

    policy = RecoveryPolicy(max_attempts=3, base_delay_ns=us(50),
                            max_delay_ns=us(2000), jitter_ns=us(10))
    r = run_job(prog, 2, "static", 4, config=TestbedConfig(nodes=2),
                on_demand=True,
                cm_chaos={"loss_prob": 0.999, "policy": policy, "seed": 1})
    assert not r.completed
    assert len(r.failures) == 1
    f = r.failures[0]
    assert f.cause == "cm-setup-timeout"
    assert f.attempts == policy.max_attempts
    assert f.dedup_key() == ("connection", 0, 1, 0)


# ----------------------------------------------------------------------
# control-plane chaos
# ----------------------------------------------------------------------
def _cm_chaos_job(tag, cluster=None, **chaos):
    def prog(ep):
        peer = 1 - ep.rank
        rreq = yield from ep.irecv(source=peer, capacity=64, tag=tag)
        yield from ep.send(peer, 4, tag=tag, payload=ep.rank)
        st = yield from ep.wait(rreq)
        return st.payload

    return run_job(prog, 2, "static", 4, config=TestbedConfig(nodes=2),
                   on_demand=True, cm_chaos=chaos or None, cluster=cluster)


def test_cm_chaos_lossy_setup_retries_then_connects():
    # seed 2: the pair's first exchange draw is ~0.086 < 0.9 -> lost
    r = _cm_chaos_job(0, loss_prob=0.9, delay_ns=us(100), seed=2)
    assert r.completed
    assert r.rank_results == [1, 0]
    s = r.tracer.summary()
    assert s.get("cm.setup_lost", 0) >= 1
    assert s.get("cm.setup_retry", 0) >= 1


def test_cm_chaos_is_deterministic():
    a = _cm_chaos_job(0, loss_prob=0.5, delay_ns=us(120), seed=9)
    b = _cm_chaos_job(0, loss_prob=0.5, delay_ns=us(120), seed=9)
    assert a.elapsed_ns == b.elapsed_ns
    assert json.dumps(a.tracer.summary(), sort_keys=True) == \
        json.dumps(b.tracer.summary(), sort_keys=True)


def test_cm_chaos_needs_on_demand():
    def prog(ep):
        yield from ep.compute(10)

    with pytest.raises(ValueError, match="on-demand"):
        run_job(prog, 2, "static", 4, config=TestbedConfig(nodes=2),
                cm_chaos={"loss_prob": 0.1})


def test_cm_chaos_rejects_bad_parameters():
    with pytest.raises(ValueError):
        SetupChaos(loss_prob=1.0)
    with pytest.raises(ValueError):
        SetupChaos(delay_ns=-1)


# ----------------------------------------------------------------------
# watchdog grace during recovery backoff (satellite)
# ----------------------------------------------------------------------
def test_watchdog_tolerates_long_recovery_backoff():
    """A backoff window longer than the watchdog's quiet bound must not
    false-trip it: the auditor now treats an active RecoveryManager
    window as progress-pending-by-design."""

    def prog(ep):
        if ep.rank == 0:
            yield from ep.compute(us(50))  # send lands mid-outage
            yield from ep.send(1, 4, tag=0, payload=0)
            st = yield from ep.recv(source=1, capacity=64, tag=0)
            return st.payload
        st = yield from ep.recv(source=0, capacity=64, tag=0)
        yield from ep.send(0, 4, tag=0, payload=1)
        return st.payload

    # outage outlives the transport budget; the reconnect backoff (6 ms)
    # dwarfs the watchdog quiet bound (5 ms)
    plan = (FaultPlan(seed=3, transport_timeout_ns=us(40),
                      transport_retry_limit=2)
            .link_flap(lid=1, at_ns=us(30), duration_ns=us(8000)))
    policy = RecoveryPolicy(max_attempts=6, base_delay_ns=us(6000),
                            backoff_factor=2.0, max_delay_ns=us(20000),
                            jitter_ns=us(10), seed=0)
    r = run_job(prog, 2, "static", 4, config=TestbedConfig(nodes=2),
                faults=plan, audit=True, recovery=policy)
    assert r.completed
    assert r.recovery.summary()["completed"] >= 1


# ----------------------------------------------------------------------
# FTConfig validation
# ----------------------------------------------------------------------
def test_ft_config_validates():
    with pytest.raises(ValueError):
        FTConfig(heartbeat_interval_ns=0).validate()
    with pytest.raises(ValueError):
        FTConfig(confirmations=-1).validate()
    cfg = FTConfig()
    assert cfg.detection_budget_ns > cfg.suspect_timeout_ns


def test_rank_death_plan_spec_roundtrip():
    plan = _death_plan()
    again = FaultPlan.from_spec(plan.to_spec())
    ev = again.events[0]
    assert ev.kind == "rank_death" and ev.rank == VICTIM
    assert ev.at_ns == us(40)
