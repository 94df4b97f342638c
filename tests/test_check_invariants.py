"""Property-based tests for the runtime invariant auditor (repro.check).

Seeded stdlib-``random`` workloads (no new dependencies) run under every
scheme with the auditor armed in strict mode: any credit-conservation,
buffer-lease, backlog-FIFO, matching-order or watchdog violation raises.
The ECM threshold sweep {1, 5, 16} covers the paper's explicit-credit
paths: threshold 1 makes every grant an ECM, 16 forces piggyback-only
credit return on small workloads.

The mutation test at the bottom is the auditor's own acceptance check: an
intentionally injected credit leak (the scheme silently drops one received
credit) must be caught as a ``credit-conservation`` violation, and the
fuzz driver must shrink it to a minimized replay artifact.
"""

import json

import pytest

from repro.check import Auditor, InvariantViolation
from repro.check import fuzz
from repro.cluster import TestbedConfig, run_job
from repro.core import StaticScheme, make_scheme

SCHEMES = ("hardware", "static", "dynamic")
ECM_THRESHOLDS = (1, 5, 16)


def _run_audited(seed, scheme_name, ecm_threshold, scenario=None):
    """One seeded random workload under a strict auditor; returns it."""
    spec = fuzz.generate_spec(seed, scenario)
    spec["ecm_threshold"] = ecm_threshold
    kwargs = {"ecm_threshold": ecm_threshold} if scheme_name != "hardware" else {}
    auditor = Auditor()
    run_job(
        fuzz.build_program(spec),
        spec["nranks"],
        make_scheme(scheme_name, **kwargs),
        prepost=spec["prepost"],
        config=TestbedConfig(nodes=spec["nranks"]),
        faults=spec["faults"],
        audit=auditor,
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
def _leaky_on_credits_received(self, conn, n):
    """Mutant: silently drop the first received credit (a classic
    bookkeeping bug — e.g. folding piggyback credits before the ECM
    path, losing one)."""
    if n and not getattr(self, "_leaked", False):
        self._leaked = True
        n -= 1
    if n:
        conn.credits += n


def test_credit_leak_is_caught_inline(monkeypatch):
    monkeypatch.setattr(
        StaticScheme, "on_credits_received", _leaky_on_credits_received
    )
    with pytest.raises(InvariantViolation) as exc:
        _run_audited(31, "static", 1)
    assert exc.value.invariant == "credit-conservation"


def test_credit_leak_yields_minimized_replay_artifact(monkeypatch, tmp_path):
    monkeypatch.setattr(
        StaticScheme, "on_credits_received", _leaky_on_credits_received
    )
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
