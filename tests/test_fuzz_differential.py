"""Differential fuzz smoke test (ISSUE 3 satellite).

25 seeded random workloads, each run under all three flow-control schemes
with the invariant auditor armed, alternating the two fault scenarios the
paper's robustness story cares about: a stalled receiver (slow consumer)
and a lossy fabric window.  The schemes must deliver identical message
multisets — the paper's claim that they differ *only* in buffer
management — with zero invariant violations.
"""

import pytest

from repro.check import fuzz

SCENARIOS = ("receiver-stall", "lossy-window")


@pytest.mark.parametrize("k", range(25))
def test_schemes_agree_under_faults(k):
    scenario = SCENARIOS[k % 2]
    spec = fuzz.generate_spec(1000 + k, scenario)
    comparison = fuzz.compare_schemes(spec)
    assert comparison["failure"] is None, comparison["failure"]
    results = comparison["results"]
    base = results["hardware"]["delivered"]
    assert len(base) == len(spec["workload"]["messages"])
    for name in ("static", "dynamic"):
        assert results[name]["delivered"] == base
        assert results[name]["violations"] == 0


def test_fuzz_sweep_is_deterministic():
    """The ``--check`` property: two identical sweeps agree bit-for-bit."""
    a = fuzz.run_fuzz(seed=50, runs=4, out_dir="", log=None)
    b = fuzz.run_fuzz(seed=50, runs=4, out_dir="", log=None)
    assert a["digests"] == b["digests"]
    assert a["failures"] == b["failures"] == []


def test_replay_of_passing_spec_reports_clean():
    spec = fuzz.generate_spec(60, "lossy-window")
    artifact = {"version": fuzz.SPEC_VERSION, "schemes": list(fuzz.DEFAULT_SCHEMES),
                "spec": spec}
    comparison = fuzz.replay(artifact, log=None)
    assert comparison["failure"] is None
