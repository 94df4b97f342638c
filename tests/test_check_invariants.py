"""Property-based tests for the runtime invariant auditor (repro.check).

Seeded stdlib-``random`` workloads (no new dependencies) run under every
scheme with the auditor armed in strict mode: any credit-conservation,
buffer-lease, backlog-FIFO, matching-order or watchdog violation raises.
The ECM threshold sweep {1, 5, 16} covers the paper's explicit-credit
paths: threshold 1 makes every grant an ECM, 16 forces piggyback-only
credit return on small workloads.

The mutation tests at the bottom are the auditor's own acceptance check: an
intentionally injected credit leak (the scheme silently drops one received
credit) must be caught as a ``credit-conservation`` violation, and the
fuzz driver must shrink it to a minimized replay artifact.  Each mutant's
first violation is pinned to the event that caused it — invariant, pair
and simulated time — and so is the hook accounting fuzz artifacts embed.
"""

import __future__
import inspect
import json
import textwrap
from dataclasses import replace

import pytest

from repro.check import Auditor, InvariantViolation
from repro.check import fuzz
from repro.cluster import Cluster, TestbedConfig, run_job
from repro.congestion import CongestionConfig
from repro.congestion.switch import PortQueue
from repro.core import DynamicScheme, credit, make_scheme
from repro.faults import scenario_job
from repro.ib import transport
from repro.mpi.endpoint import Endpoint
from repro.mpi.matching import MatchingEngine
from repro.mpi.protocol import MsgKind
from repro.recovery import RecoveryPolicy

from tests.test_quiescence import _ring

SCHEMES = ("hardware", "static", "dynamic")
ECM_THRESHOLDS = (1, 5, 16)


def _run_audited(seed, scheme_name, ecm_threshold, scenario=None):
    """One seeded random workload under a strict auditor (and the recovery
    manager, when the scenario asks for it, as the fuzzer arms it)."""
    spec = fuzz.generate_spec(seed, scenario)
    kwargs = ({"ecm_threshold": ecm_threshold}
              if scheme_name in ("static", "dynamic") else {})
    recovery = (RecoveryPolicy(max_attempts=12, seed=spec["seed"])
                if spec["arming"].get("recovery") else False)
    auditor = Auditor()
    run_job(scheme=make_scheme(scheme_name, **kwargs),
            **scenario_job(spec, spec["seed"], audit=auditor, recovery=recovery))
    return auditor


@pytest.mark.parametrize("ecm_threshold", ECM_THRESHOLDS)
@pytest.mark.parametrize("scheme_name", SCHEMES)
def test_invariants_hold_on_random_workloads(scheme_name, ecm_threshold):
    for seed in (11, 12, 13):
        auditor = _run_audited(seed, scheme_name, ecm_threshold)
        assert auditor.violations == []
        assert auditor.hook_calls > 0
        s = auditor.summary()
        assert s["messages_sent"] == s["messages_matched"] > 0


@pytest.mark.parametrize("scheme_name", SCHEMES)
def test_invariants_hold_under_receiver_stall(scheme_name):
    auditor = _run_audited(21, scheme_name, 1, scenario="receiver-stall")
    assert auditor.violations == []


def test_pool_release_counter_balances():
    r = run_job(scheme="dynamic", **scenario_job(fuzz.generate_spec(6, None), 6, audit=True))
    for ep in r.endpoints:
        assert ep.pool.releases == ep.pool.acquisitions


def test_qp_check_invariants_clean_and_dirty():
    r = run_job(scheme="static", **scenario_job(fuzz.generate_spec(8, None), 8))
    qp = next(iter(r.endpoints[0].connections.values())).qp
    assert qp.check_invariants() == []
    qp._req._sends_inflight += 1  # corrupt the counter
    assert any("_sends_inflight" in p for p in qp.check_invariants())


# ----------------------------------------------------------------------
# the credit-leak mutation test (ISSUE acceptance criterion)
# ----------------------------------------------------------------------
def _leaky_receive(scheme, conn, n, real_receive=credit.receive):
    """Mutant ``credit.receive``: silently drop a job's first received
    credit (a classic bookkeeping bug — e.g. folding piggyback credits
    before the ECM path, losing one)."""
    if n and not getattr(scheme, "_leaked", False):
        scheme._leaked = True
        n -= 1
    real_receive(scheme, conn, n)


def _grant_without_return(self, conn, n):
    """Mutant ``Endpoint._grant``: the grant is announced but never lands
    in ``pending_credit_return`` (the credit vanishes at the receiver)."""
    if self.observer is not None:
        self.observer.on_grant(conn, n)
    if credit.grant(self.scheme, conn, 0):  # the ECM decision alone
        return self._emit_ecm(conn)
    return 0


def _emit_dropping_piggyback(real_emit):
    """Mutant ``Endpoint._emit``: a data or control message loses the
    credits that should ride it back (explicit credit messages keep theirs)."""
    def emit(self, conn, header, ref=None, replay=False):
        if header.kind is not MsgKind.CREDIT:
            conn.pending_credit_return = 0
        return real_emit(self, conn, header, ref, replay)
    return emit


def _first_violation(ecm_threshold):
    with pytest.raises(InvariantViolation) as exc:
        _run_audited(31, "static", ecm_threshold)
    v = exc.value
    return v.invariant, v.pair, v.time_ns


def test_credit_leak_is_caught_inline(monkeypatch):
    monkeypatch.setattr(credit, "receive", _leaky_receive)
    # at the delivery whose credits the scheme short-changed
    assert _first_violation(1) == ("credit-conservation", (0, 1), 69540)


def test_lost_grant_is_caught_at_the_grant(monkeypatch):
    monkeypatch.setattr(Endpoint, "_grant", _grant_without_return)
    assert _first_violation(1) == ("credit-conservation", (0, 1), 36200)


def test_dropped_piggyback_is_caught_inline(monkeypatch):
    monkeypatch.setattr(Endpoint, "_emit", _emit_dropping_piggyback(Endpoint._emit))
    # ECM threshold 5: grants accumulate and ride data (1 ships each as an ECM)
    assert _first_violation(5) == ("credit-conservation", (0, 1), 39704)


@pytest.mark.parametrize("scheme_name, hook_calls", [
    ("hardware", 493), ("static", 643), ("dynamic", 633), ("rdma-eager", 720),
])
def test_hook_accounting_is_pinned(scheme_name, hook_calls):
    """Fuzz failure artifacts embed ``hook_calls``: one link-down workload
    with recovery per scheme (resync hooks included) pins what it counts."""
    s = _run_audited(3, scheme_name, 5, scenario="link-down").summary()
    assert (s["violations"], s["hook_calls"], s["messages_sent"],
            s["messages_matched"]) == ([], hook_calls, 36, 36)


# ----------------------------------------------------------------------
# backlog mutants: the endpoint's own source with one edit each
# ----------------------------------------------------------------------
def _mutant(cls, name, old, new):
    """``cls.name`` recompiled from its shipped source with ``old`` -> ``new``."""
    fn = getattr(cls, name)
    src = textwrap.dedent(inspect.getsource(fn))
    assert src.count(old) == 1, old
    scope = {}
    exec(compile(src.replace(old, new), inspect.getsourcefile(fn), "exec",
                 flags=__future__.annotations.compiler_flag, dont_inherit=True),
         vars(inspect.getmodule(fn)), scope)
    return scope[name]


def _burst(mpi):
    """Eight eager sends against one pre-posted buffer: all but the first
    wait in the backlog for the credits the receives return."""
    if mpi.rank == 0:
        reqs = []
        for _ in range(8):
            reqs.append((yield from mpi.isend(1, size=4)))
        yield from mpi.waitall(reqs)
    else:
        for _ in range(8):
            yield from mpi.recv(source=0, capacity=64)


@pytest.mark.parametrize("method, old, new, first", [
    # the drain sends the backlog's tail, not its head
    ("_drain", "conn.backlog.popleft()", "conn.backlog.pop()",
     ("backlog-fifo", (0, 1), 16232)),
    # every send claims it went through the backlog, queued or not
    ("isend", "0, False, True, mode", "0, True, True, mode",
     ("backlog-feedback-bit", (0, 1), 550)),
    # a send joins the backlog unannounced, so the drain's dequeue finds
    # the auditor's shadow of it empty
    ("_enqueue_backlog", "self.observer.on_backlog_enqueue(conn, pending.header)", "pass",
     ("backlog-fifo", (0, 1), 1752)),
], ids=["backlog-fifo", "backlog-feedback-bit", "backlog-fifo-unannounced"])
def test_a_backlog_mutant_is_caught_at_its_first_wrong_step(monkeypatch, method, old, new,
                                                            first):
    monkeypatch.setattr(Endpoint, method, _mutant(Endpoint, method, old, new))
    with pytest.raises(InvariantViolation) as exc:
        run_job(_burst, 2, "static", prepost=1, config=TestbedConfig(nodes=2), audit=True)
    v = exc.value
    assert (v.invariant, v.pair, v.time_ns) == first, v


def test_the_backlog_program_runs_clean_on_the_shipped_endpoint():
    r = run_job(_burst, 2, "static", prepost=1, config=TestbedConfig(nodes=2), audit=True)
    assert r.report()["fc"]["backlog_max"] > 1  # the drain had a head to choose


# ----------------------------------------------------------------------
# transport mutant: the RC transport's own source with one edit
# ----------------------------------------------------------------------
def test_a_transport_mutant_is_caught_by_the_job_end_sweep(monkeypatch):
    # the ACK retire forgets the SEND it retired: the requester's count of
    # SENDs in flight only grows, which the static scheme never reads, so
    # the job completes and only the queue pairs' own audit can tell
    monkeypatch.setattr(transport, "retire", _mutant(
        transport, "retire", "req._sends_inflight -= 1", "pass"))
    with pytest.raises(InvariantViolation) as exc:
        run_job(_burst, 2, "static", prepost=1, config=TestbedConfig(nodes=2), audit=True)
    v = exc.value
    assert (v.invariant, v.pair, v.time_ns) == ("qp-state", (0, 1), 1_000_000), v
    assert "_sends_inflight=15 but 0 SEND WRs are inflight" in str(v)  # all it sent


# ----------------------------------------------------------------------
# matching mutant: the engine's own source with one edit
# ----------------------------------------------------------------------
def _three_sizes(mpi):
    """Three blocking eager sends of growing size on one tag reach a
    receiver busy computing: all three wait unexpected for its receives,
    which must take them oldest first."""
    if mpi.rank == 0:
        for size in (4, 8, 16):
            yield from mpi.send(1, size=size, tag=3)
    else:
        yield from mpi.compute(50_000)
        for _ in range(3):
            yield from mpi.recv(source=0, capacity=64, tag=3)


def _run_three_sizes(scheme_name):
    return run_job(_three_sizes, 2, scheme_name, prepost=10, config=TestbedConfig(nodes=2),
                   audit=True)


@pytest.mark.parametrize("scheme_name, time_ns", [("static", 52352), ("rdma-eager", 54766)])
def test_a_matching_mutant_is_caught_at_its_first_wrong_match(monkeypatch, scheme_name,
                                                              time_ns):
    # a late receive scans the unexpected queue from its tail
    monkeypatch.setattr(MatchingEngine, "post_recv", _mutant(
        MatchingEngine, "post_recv", "enumerate(self._unexpected)",
        "reversed(list(enumerate(self._unexpected)))"))
    with pytest.raises(InvariantViolation) as exc:
        _run_three_sizes(scheme_name)
    v = exc.value
    assert (v.invariant, v.pair, v.time_ns) == ("matching-order", (0, 1), time_ns), v
    assert "match #1 is 16 bytes, send #1 was 8 bytes" in str(v)


@pytest.mark.parametrize("scheme_name", SCHEMES + ("rdma-eager",))
def test_the_matching_program_runs_clean_on_the_shipped_engine(scheme_name):
    r = _run_three_sizes(scheme_name)
    assert r.endpoints[1].matching.total_unexpected == 3  # every match was a late one


def _one_late_send(mpi):
    """One eager send that waits unexpected for its receive."""
    if mpi.rank == 0:
        yield from mpi.send(1, size=4)
    else:
        yield from mpi.compute(50_000)
        yield from mpi.recv(source=0, capacity=64)


def test_an_unannounced_match_is_pending_work_for_the_watchdog(monkeypatch):
    # a late receive matches without telling the auditor: the send is
    # never matched as far as it knows, which keeps the watchdog armed, so
    # the watchdog — not a job-end completeness sweep — reports it
    monkeypatch.setattr(Endpoint, "irecv", _mutant(
        Endpoint, "irecv", "self.observer.on_match(h)", "pass"))
    with pytest.raises(InvariantViolation) as exc:
        run_job(_one_late_send, 2, "static", prepost=4, config=TestbedConfig(nodes=2),
                audit=True)
    v = exc.value
    assert (v.invariant, v.pair, v.time_ns) == ("progress-watchdog", None, 6_000_000), v


# ----------------------------------------------------------------------
# switch-model mutants: the port queue's own source with one edit each
# ----------------------------------------------------------------------
PFC_ONLY = CongestionConfig(pfc=True, ecn=False)
TAIL_DROP = CongestionConfig(pfc=False, ecn=False, buffer_bytes=4096)


def _incast(scheme, congestion):
    """The 8-to-1 incast chaos scenario under ``congestion``, audited."""
    job = scenario_job("incast-n1", 7, audit=True)
    job["config"] = replace(job["config"], ib=replace(job["config"].ib,
                                                      congestion=congestion))
    return run_job(scheme=scheme, **job)


@pytest.mark.parametrize("method, old, new, congestion, first, detail", [
    # a draining port announces its XON twice
    ("_lower_xoff", "state.observer.on_xon(self.key)",
     "state.observer.on_xon(self.key); state.observer.on_xon(self.key)", PFC_ONLY,
     ("pause-conservation", None, 25966),
     "port ('down', 0): XON without a standing XOFF"),
    # admission tail-drops only past twice the configured buffer
    ("admit", "self.depth + wire > cfg.buffer_bytes",
     "self.depth + wire > 2 * cfg.buffer_bytes", TAIL_DROP,
     ("congestion-buffer", None, 5198),
     "queue depth 4672 B exceeds the configured 4096 B buffer"),
], ids=["pause-conservation", "congestion-buffer"])
def test_a_switch_mutant_is_caught_at_its_first_wrong_step(monkeypatch, method, old, new,
                                                           congestion, first, detail):
    monkeypatch.setattr(PortQueue, method, _mutant(PortQueue, method, old, new))
    with pytest.raises(InvariantViolation) as exc:
        _incast("static", congestion)
    v = exc.value
    assert (v.invariant, v.pair, v.time_ns) == first, v
    assert detail in str(v)


def test_a_port_that_keeps_its_depth_is_caught_at_the_job_end_drain(monkeypatch):
    # a served message leaves its bytes counted in the port's depth: one
    # eager send stays under every threshold, so only the job-end drain
    # check sees the port that never emptied
    config = TestbedConfig(nodes=2)
    config = replace(config, ib=replace(config.ib, congestion=TAIL_DROP))
    shipped = run_job(_one_late_send, 2, "static", prepost=4, config=config, audit=True)
    assert shipped.report()["congestion"]["depth_peak_bytes"] == 108
    monkeypatch.setattr(PortQueue, "_complete", _mutant(
        PortQueue, "_complete", "self.depth -= item.wire", "pass"))
    with pytest.raises(InvariantViolation) as exc:
        run_job(_one_late_send, 2, "static", prepost=4, config=config, audit=True)
    v = exc.value
    assert (v.invariant, v.pair, v.time_ns) == ("congestion-drain", None, 1_000_000), v
    assert "port ('down', 0): 108 B (0 message(s)) still queued" in str(v)


@pytest.mark.parametrize("scheme_name, drops", [
    ("hardware", 215), ("static", 66), ("dynamic", 66), ("rdma-eager", 66),
])
def test_the_incast_runs_clean_on_the_shipped_switch(scheme_name, drops):
    assert _incast(scheme_name, PFC_ONLY).report()["congestion"]["pause_frames"] > 0
    assert _incast(scheme_name, TAIL_DROP).report()["congestion"]["drops"] == drops


# ----------------------------------------------------------------------
# decay contraction: a swallowed credit is decay debt repaid, not a leak
# ----------------------------------------------------------------------
def _burst_then_quiet(mpi):
    """The decay ablation's program (benchmarks/test_ablation_growth.py): a
    200-message burst grows rank 1's target, 400 ping-pongs let it decay,
    and the over-full population swallows the credits still circulating."""
    peer = 1 - mpi.rank
    if mpi.rank == 0:
        reqs = []
        for _ in range(200):
            reqs.append((yield from mpi.isend(peer, size=4, tag=0)))
        yield from mpi.waitall(reqs)
        for _ in range(400):
            yield from mpi.send(peer, size=4, tag=1)
            yield from mpi.recv(source=peer, capacity=64, tag=1)
    else:
        for _ in range(200):
            yield from mpi.recv(source=peer, capacity=64, tag=0)
        for _ in range(400):
            yield from mpi.recv(source=peer, capacity=64, tag=1)
            yield from mpi.send(peer, size=4, tag=1)


def _run_decay(monkeypatch, after_swallow=lambda conn: None):
    """The decay program under a strict auditor; returns it and the
    connections that swallowed, one entry per credit."""
    swallowed = []
    real = Auditor.on_swallow

    def on_swallow(self, conn):
        swallowed.append(conn)
        real(self, conn)
        after_swallow(conn)

    monkeypatch.setattr(Auditor, "on_swallow", on_swallow)
    auditor = Auditor()
    run_job(_burst_then_quiet, 2, DynamicScheme(decay_enabled=True, decay_idle_messages=64),
            prepost=1, config=TestbedConfig(nodes=2), audit=auditor)
    return auditor, swallowed


def test_decay_contraction_swallows_without_a_violation(monkeypatch):
    auditor, swallowed = _run_decay(monkeypatch)
    assert len(swallowed) > 0
    assert auditor.violations == []


def test_a_swallowed_credit_granted_anyway_is_caught(monkeypatch):
    # Mutant: the receiver swallows the credit, then grants it regardless
    with pytest.raises(InvariantViolation) as exc:
        _run_decay(monkeypatch, lambda conn: conn.endpoint._grant(conn, 1))
    assert exc.value.invariant == "credit-conservation"


def test_arming_binds_the_pairs_an_earlier_job_wired():
    """Pairs wired before the job (``Cluster.wire``, as ``MPI_Init`` would
    have) are audited from the job's first hook, so a credit mutated
    before the job is caught on the pair it was mutated on."""
    cluster = Cluster(TestbedConfig(nodes=6))
    cluster.launch(6, make_scheme("static"), prepost=2, on_demand=False)
    for ep in cluster.endpoints:  # the ring's pairs
        cluster.wire(ep, (ep.rank + 1) % 6)
    cluster.endpoints[0].connections[1].credits += 1
    with pytest.raises(InvariantViolation) as exc:
        run_job(_ring, 6, "static", prepost=2, cluster=cluster, audit=True)
    assert (exc.value.invariant, exc.value.pair) == ("credit-conservation", (0, 1))


def test_credit_leak_yields_minimized_replay_artifact(monkeypatch, tmp_path):
    monkeypatch.setattr(credit, "receive", _leaky_receive)
    out = tmp_path / "fuzz-failures"
    summary = fuzz.run_fuzz(
        seed=31, runs=1, schemes=("static",), scenarios=(None,),
        out_dir=str(out), max_shrink=60, log=None,
    )
    assert len(summary["failures"]) == 1
    failure = summary["failures"][0]
    assert failure["kind"] == "violation"
    artifact_path = failure["artifact"]
    assert artifact_path is not None

    with open(artifact_path) as fh:
        artifact = json.load(fh)
    # minimized: the shrinker removed messages from the original workload
    kept = len(artifact["spec"]["workload"]["messages"])
    assert 1 <= kept <= artifact["original_message_count"]
    assert artifact["failure"]["kind"] == "violation"
    assert "credit-conservation" in artifact["failure"]["detail"]

    # the artifact reproduces deterministically while the bug is present
    comparison = fuzz.replay(artifact, log=None)
    assert comparison["failure"] is not None
    assert comparison["failure"]["kind"] == "violation"

    # ... and passes once the mutation is reverted
    monkeypatch.undo()
    comparison = fuzz.replay(artifact, log=None)
    assert comparison["failure"] is None
