"""The chaos benchmark: named scenarios, the per-scheme robustness report,
and the ISSUE acceptance criteria for ``repro chaos``.

The headline assertion reproduces the paper's Figure-10 story under the
canonical ``receiver-stall`` scenario at seed 7: the hardware scheme
degenerates into RNR timeout/retransmission storms (>= 10x either
user-level scheme's retransmit count) while static and dynamic complete
the run with zero wire waste.
"""

import json

import pytest

from repro.cli import main
from repro.faults import SCENARIOS, run_chaos


@pytest.fixture(scope="module")
def stall_report():
    return run_chaos("receiver-stall", seed=7)


def test_receiver_stall_report_is_deterministic(stall_report):
    again = run_chaos("receiver-stall", seed=7)
    assert json.dumps(stall_report, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_worker_processes_assemble_the_same_report(stall_report):
    # the scenario's cells fan out like any campaign's
    assert run_chaos("receiver-stall", seed=7, workers=2) == stall_report


def test_hardware_storms_while_user_level_schemes_absorb(stall_report):
    """The acceptance criterion: hardware retransmits >= 10x either
    user-level scheme, and static/dynamic complete (no livelock)."""
    schemes = stall_report["schemes"]
    hw, st, dy = schemes["hardware"], schemes["static"], schemes["dynamic"]
    assert hw["completed"] and st["completed"] and dy["completed"]
    assert hw["retransmissions"] >= 10 * max(1, st["retransmissions"])
    assert hw["retransmissions"] >= 10 * max(1, dy["retransmissions"])
    assert hw["rnr_naks"] >= 5  # repeated RNR timeout cycles, not one blip
    # User-level schemes parked the overflow instead of blasting the wire.
    assert st["backlog_max"] >= 1 and dy["backlog_max"] >= 1
    assert st["rnr_naks"] == 0 and dy["rnr_naks"] == 0


#: Scenarios whose fault outlives a finite retry budget: without the
#: recovery subsystem some scheme loses its QP pair for good (a
#: structured failure, not a hang); with recovery every scheme completes.
FATAL_SCENARIOS = {"link-down-permanent", "retry-budget"}

#: Fault-tolerance scenarios need their own arms (``ft=True`` for
#: rank-death; on-demand setup chaos for cm-lossy-setup) and are
#: exercised in tests/test_ft.py rather than this generic sweep.
FT_SCENARIOS = {"rank-death", "cm-lossy-setup"}


def test_every_scenario_completes_for_every_scheme():
    for name in sorted(set(SCENARIOS) - FATAL_SCENARIOS - FT_SCENARIOS):
        report = run_chaos(name, seed=7)
        for scheme, entry in report["schemes"].items():
            assert entry["completed"], f"{name}/{scheme}: {entry.get('error')}"
            # Runs outlive their fault windows (recovery, not truncation).
            assert entry["recovery_us"] >= 0


def test_fatal_scenarios_fail_structurally_then_recover():
    for name in sorted(FATAL_SCENARIOS):
        bare = run_chaos(name, seed=7)
        # At least one scheme blows its retry budget and reports the
        # structured failure record (never an exception string or a hang).
        failed = [s for s, e in bare["schemes"].items() if not e["completed"]]
        assert failed, f"{name}: expected a budget-exhausting scheme"
        for scheme in failed:
            entry = bare["schemes"][scheme]
            assert "error" not in entry, f"{name}/{scheme}: {entry.get('error')}"
            assert entry["failures"], f"{name}/{scheme}: no failure records"
        cured = run_chaos(name, seed=7, recovery=True)
        for scheme, entry in cured["schemes"].items():
            assert entry["completed"], f"{name}/{scheme} under recovery"
            assert entry["recovery"]["completed"] >= (1 if scheme in failed else 0)


def test_lossy_window_hardware_wastes_the_most_wire():
    report = run_chaos("lossy-window", seed=7)
    schemes = report["schemes"]
    assert schemes["hardware"]["retransmissions"] > max(
        schemes["static"]["retransmissions"],
        schemes["dynamic"]["retransmissions"],
    )


def test_unknown_scenario_raises():
    with pytest.raises(ValueError, match="unknown scenario"):
        run_chaos("meteor-strike", seed=7)


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
def test_cli_chaos_table(capsys):
    rc = main(["chaos", "--scenario", "receiver-stall", "--seed", "7"])
    assert rc == 0
    out = capsys.readouterr().out
    for scheme in ("hardware", "static", "dynamic"):
        assert scheme in out
    assert "retrans" in out


def test_cli_chaos_json_is_parseable(capsys):
    rc = main(["chaos", "--scenario", "receiver-stall", "--seed", "7",
               "--json", "--schemes", "static"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["scenario"] == "receiver-stall"
    assert list(report["schemes"]) == ["static"]


def test_cli_chaos_check_passes(capsys):
    rc = main(["chaos", "--scenario", "receiver-stall", "--seed", "7",
               "--check", "--schemes", "hardware"])
    assert rc == 0
    assert "determinism check passed" in capsys.readouterr().err


def test_cli_chaos_rejects_unknown_scenario(capsys):
    assert main(["chaos", "--scenario", "meteor-strike"]) == 2
    assert "invalid choice" in capsys.readouterr().err
