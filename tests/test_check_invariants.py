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

import json

import pytest

from repro.check import Auditor, InvariantViolation
from repro.check import fuzz
from repro.cluster import Cluster, TestbedConfig, run_job
from repro.core import DynamicScheme, credit, make_scheme
from repro.mpi.endpoint import Endpoint
from repro.mpi.protocol import MsgKind
from repro.recovery import RecoveryPolicy

from tests.test_quiescence import _ring

SCHEMES = ("hardware", "static", "dynamic")
ECM_THRESHOLDS = (1, 5, 16)


def _run_audited(seed, scheme_name, ecm_threshold, scenario=None):
    """One seeded random workload under a strict auditor (and the recovery
    manager, when the scenario asks for it, as the fuzzer arms it)."""
    spec = fuzz.generate_spec(seed, scenario)
    spec["ecm_threshold"] = ecm_threshold
    kwargs = ({"ecm_threshold": ecm_threshold}
              if scheme_name in ("static", "dynamic") else {})
    recovery = (RecoveryPolicy(max_attempts=12, seed=spec["seed"])
                if spec.get("recovery") else False)
    auditor = Auditor()
    run_job(
        fuzz.build_program(spec),
        spec["nranks"],
        make_scheme(scheme_name, **kwargs),
        prepost=spec["prepost"],
        config=TestbedConfig(nodes=spec["nranks"]),
        faults=spec["faults"],
        audit=auditor,
        recovery=recovery,
    )
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
    spec = fuzz.generate_spec(6, None)
    r = run_job(
        fuzz.build_program(spec),
        spec["nranks"],
        "dynamic",
        prepost=spec["prepost"],
        config=TestbedConfig(nodes=spec["nranks"]),
        audit=True,
    )
    for ep in r.endpoints:
        assert ep.pool.releases == ep.pool.acquisitions
        assert ep.pool.waiting == 0


def test_qp_check_invariants_clean_and_dirty():
    spec = fuzz.generate_spec(8, None)
    r = run_job(
        fuzz.build_program(spec),
        spec["nranks"],
        "static",
        prepost=spec["prepost"],
        config=TestbedConfig(nodes=spec["nranks"]),
    )
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


def _one_message(mpi):
    if mpi.rank == 0:
        yield from mpi.send(1, size=4)
    else:
        yield from mpi.recv(source=0, capacity=64)


def test_no_stale_rows_after_teardown():
    """A pair torn down and re-requested is audited on its new connections:
    the ledger rows must not keep the old ones."""
    cluster = Cluster(TestbedConfig(nodes=2))
    cluster.launch(2, make_scheme("static"), prepost=4, on_demand=True)
    auditor = Auditor()
    run_job(_one_message, 2, "static", prepost=4, cluster=cluster, audit=auditor)
    old = cluster.endpoints[0].connections[1]
    cluster.cm.teardown(0, 1)
    cluster.cm.request(cluster.endpoints[0], 1)
    cluster.sim.run(max_events=100_000)
    new = cluster.endpoints[0].connections[1]
    assert new is not old
    auditor.check_all_pairs()  # the fresh pair balances
    new.credits += 1
    with pytest.raises(InvariantViolation) as exc:
        auditor.check_all_pairs()
    assert (exc.value.invariant, exc.value.pair) == ("credit-conservation", (0, 1))


def test_arming_binds_the_pairs_an_earlier_job_wired():
    """An unaudited job wires a mesh ring; the audited job after it on the
    same cluster audits those pairs from its first hook, so a credit
    mutated between the jobs is caught on the pair it was mutated on."""
    cluster = Cluster(TestbedConfig(nodes=6))
    cluster.launch(6, make_scheme("static"), prepost=2, on_demand=False)
    run_job(_ring, 6, "static", prepost=2, cluster=cluster)
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
    assert 1 <= len(artifact["spec"]["messages"]) <= artifact["original_message_count"]
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
