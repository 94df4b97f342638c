"""Tests for the command-line interface."""

import itertools
import json

import pytest

from repro.campaign import CELL_KINDS
from repro.cli import build_parser, main
from repro.cluster import TestbedConfig
from repro.core import EXTENDED_SCHEME_NAMES, make_scheme
from repro.core.memory import mesh_pinned_bytes

MB = 1024 * 1024


def test_latency_command(capsys):
    rc = main(["latency", "--sizes", "4", "1024", "--iterations", "10",
               "--schemes", "static"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "MPI latency" in out
    assert "static" in out
    assert "1024" in out


def test_bandwidth_command(capsys):
    rc = main(["bandwidth", "--size", "4", "--windows", "1", "8",
               "--repetitions", "3", "--schemes", "hardware", "dynamic",
               "--prepost", "10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bandwidth" in out
    assert "hardware" in out and "dynamic" in out


def test_bandwidth_blocking_flag(capsys):
    rc = main(["bandwidth", "--size", "4", "--windows", "2",
               "--repetitions", "2", "--schemes", "static", "--blocking"])
    assert rc == 0
    assert "blocking" in capsys.readouterr().out


def test_nas_command(capsys):
    rc = main(["nas", "--kernels", "is", "--schemes", "static", "-v"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "NAS proxy runtimes" in captured.out
    assert "is" in captured.out
    assert "ecm=" in captured.err  # verbose stats on stderr


def test_scaling_command(capsys):
    rc = main(["scaling", "--nodes", "16", "--iterations", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "on-demand" in out
    assert "full mesh" in out


def test_every_scaling_mesh_row_is_the_simulated_mesh(capsys):
    """Each rung's mesh rows are simulated, past 256 ranks too: a scheme's
    row is the closed form ``mesh_pinned_bytes`` less what it counts of a
    ring scheme's rings (both halves, ``ring_bytes`` in the simulated
    report).  The rows above 256 ranks used to be that closed form, marked
    ``*``: ``rdma-eager`` read 1751.95 MB at 300 ranks for 1401.56."""
    assert main(["scaling", "--nodes", "300", "--iterations", "1"]) == 0
    out = capsys.readouterr().out
    memory = out[out.index("== Pinned buffer memory"):].splitlines()
    ladder = (64, 256, 300)
    assert memory[1].split() == ["app", *itertools.chain.from_iterable(
        (str(r), "ranks", "(MB)") for r in ladder)]
    rows = {line.split()[0]: line.split()[2:] for line in memory if " mesh " in line}
    mpi, prepost = TestbedConfig().mpi, 1  # the scaling sweep's pre-post
    for scheme in EXTENDED_SCHEME_NAMES:
        ring = 2 * prepost * mpi.vbuf_bytes if make_scheme(scheme).uses_ring else 0
        assert rows[scheme] == [
            f"{(mesh_pinned_bytes(r, scheme, prepost, mpi) - r * (r - 1) * ring) / MB:.2f}"
            for r in ladder], scheme
    assert rows["rdma-eager"][-1] == "1401.56"


def test_latency_command_parallel_workers_match_sequential(capsys):
    args = ["latency", "--sizes", "4", "--iterations", "5",
            "--schemes", "static", "dynamic"]
    assert main(args) == 0
    sequential = capsys.readouterr().out
    assert main(args + ["--workers", "2"]) == 0
    parallel = capsys.readouterr().out
    assert parallel == sequential  # worker cells are bit-identical


def test_sweep_list_command(capsys):
    assert main(["sweep", "--list"]) == 0
    out = capsys.readouterr().out
    assert "fig3" in out and "nas" in out and "chaos" in out


def test_sweep_requires_grid(capsys):
    assert main(["sweep"]) == 2
    assert "--grid" in capsys.readouterr().err


def test_sweep_cold_then_warm_cache(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    out = str(tmp_path / "sweep.jsonl")
    base = ["sweep", "--grid", "fig3-smoke", "--windows", "1", "2",
            "--repetitions", "2", "--cache-dir", cache, "--out", out]

    assert main(base) == 0
    err = capsys.readouterr().err
    assert "6 executed, 0 cached" in err

    # Warm re-run: served entirely from cache, bit-identical on --check.
    assert main(base + ["--check", "--require-all-cached"]) == 0
    err = capsys.readouterr().err
    assert "0 executed, 6 cached" in err
    assert "determinism check passed" in err

    # A cold cache fails the warm-cache assertion.
    assert main(base[:-4] + ["--cache-dir", str(tmp_path / "empty"),
                             "--out", out, "--require-all-cached"]) == 1
    assert "--require-all-cached" in capsys.readouterr().err


def test_sweep_check_fails_on_doctored_cache(tmp_path, capsys):
    from repro.campaign import ResultCache, grids

    cache_dir = str(tmp_path / "cache")
    out = str(tmp_path / "sweep.jsonl")
    base = ["sweep", "--grid", "fig2", "--schemes", "static",
            "--cache-dir", cache_dir, "--out", out]
    assert main(base) == 0
    capsys.readouterr()

    # Inject a nondeterministic result into one cached cell.
    cache = ResultCache(cache_dir)
    key = grids.latency_grid(schemes=["static"])[0].key
    record = cache.get(key)
    record["metrics"]["latency_ns"] += 0.5
    cache.put(key, record)

    assert main(base + ["--check"]) == 1
    err = capsys.readouterr().err
    assert "DETERMINISM DRIFT" in err and "CHECK MISMATCH" in err


def test_unknown_command_exits_2(capsys):
    # No exception escapes: argparse's error is surfaced as exit code 2
    # with the usage text on stderr.
    assert main(["teleport"]) == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["latency", "--iterations", "0"],
    ["latency", "--iterations", "-3"],
    ["bandwidth", "--repetitions", "0"],
    ["bandwidth", "--windows", "4", "0"],
    ["sweep", "--grid", "fig3", "--repetitions", "0"],
    ["latency", "--prepost", "0"],
    ["bandwidth", "--prepost", "0"],
    ["nas", "--prepost", "0"],
    ["scaling", "--nodes", "0"],
    ["scaling", "--prepost", "0"],
    ["chaos", "--scenario", "receiver-stall", "--prepost", "0"],
    ["bandwidth", "--size", "-4"],
    ["latency", "--sizes", "4", "-4"],
    ["fuzz", "--runs", "0"],
    ["fuzz", "--runs", "-2"],
    ["fuzz", "--max-shrink", "-1"],
    ["scaling", "--iterations", "0"],
    ["scaling", "--iterations", "-1"],
    ["latency", "--workers", "0"],
    ["sweep", "--grid", "fig3-smoke", "--no-cache", "--workers", "0"],
    ["sweep", "--grid", "fig3-smoke", "--no-cache", "--workers", "-2"],
    ["scaling", "--workers", "0"],
    ["chaos", "--scenario", "receiver-stall", "--workers", "-1"],
])
def test_a_zero_or_negative_count_is_a_usage_error_not_a_traceback(argv, capsys):
    assert main(argv + ["--schemes", "static"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    flag = next(a for a in reversed(argv) if a.startswith("--"))
    # 0 B is a message, and 0 shrink reruns is no shrinking
    least = "non-negative" if flag in ("--size", "--sizes", "--max-shrink") else "positive"
    assert captured.err.splitlines()[-1].endswith(
        f"error: argument {flag}: must be a {least} integer, got {argv[-1]}")


def test_a_one_rank_ring_is_a_usage_error(capsys):
    # it used to end in a CampaignError traceback: a one-rank ring sends to itself
    assert main(["scaling", "--nodes", "1", "--schemes", "static"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.splitlines()[-1].endswith(
        "error: argument --nodes: a ring needs at least 2 ranks, got 1")


@pytest.mark.parametrize("argv", [
    ["latency", "--prepost", "5000"],
    ["nas", "--prepost", "4094", "--schemes", "hardware", "static"],
    ["scaling", "--nodes", "4", "--prepost", "5000"],
    ["chaos", "--scenario", "receiver-stall", "--prepost", "5000"],
])
def test_a_prepost_the_receive_queue_cannot_hold_is_a_usage_error(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "receive WQEs per connection; the receive queue holds rq_depth = 4096" \
        in captured.err


#: a valid replay spec: a fuzz entry of the scenario schema
_SPEC = {"version": 2, "seed": 1, "scenario": None, "nranks": 2, "prepost": 4,
         "ecm_threshold": 5, "faults": None, "arming": {"on_demand": False},
         "testbed": {"nodes": 2},
         "workload": {"name": "fuzz", "seed": 1, "messages": [[0, 1, 0, 4]]}}


def _with_message(message):
    return {**_SPEC, "workload": {**_SPEC["workload"], "messages": [message]}}


@pytest.mark.parametrize("doc, says", [
    ({}, "not a replay artifact: no 'spec' object"),  # was a KeyError traceback
    ([1], "not a replay artifact: no 'spec' object"),  # an AttributeError one
    # was "replay: reproduced [KeyError under hardware]: 'messages'", exit 1
    ({"spec": {"nranks": 2}}, "replay spec lacks seed, prepost, messages"),
    # was a ValueError traceback from make_scheme, after hardware had run
    ({"spec": _SPEC, "schemes": ["hardware", "credit"]},
     "replay schemes must be a list of ('hardware', 'static', 'dynamic', "
     "'rdma-eager'), got ['hardware', 'credit']"),
    # each of these was "replay: reproduced [<Error> under hardware]", exit 1
    ({"spec": {**_SPEC, "nranks": 0}}, "replay spec nranks must be an integer >= 1, got 0"),
    ({"spec": {**_SPEC, "prepost": 0}}, "replay spec prepost must be an integer >= 1, got 0"),
    ({"spec": _with_message([0, 5, 0, 4])},
     "replay message [0, 5, 0, 4]: src and dst must be two ranks of the world of 2"),
    ({"spec": {**_SPEC, "seed": "x"}}, "replay spec seed must be an integer, got 'x'"),
    ({"spec": _with_message([0, 1, -1, 4])},
     "replay message [0, 1, -1, 4]: tag and size must be >= 0"),
    # a flat version-1 spec: refused by its version, not run
    ({"version": 1, "spec": {"version": 1, "seed": 1, "nranks": 2, "prepost": 4,
                             "messages": [[0, 1, 0, 4]]}},
     "artifact version 1: this build replays version 2 (regenerate it from its seed)"),
])
def test_replaying_a_json_file_that_is_no_artifact_is_a_usage_error(
        doc, says, tmp_path, monkeypatch, capsys):
    from repro.check import fuzz

    monkeypatch.setattr(fuzz, "run_spec", lambda *a: pytest.fail("a job ran"))
    path = tmp_path / "artifact.json"
    path.write_text(json.dumps(doc))
    assert main(["fuzz", "--replay", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err == f"error: {path}: {says}\n"


def test_a_zero_shrink_budget_is_valid(capsys):
    assert main(["fuzz", "--runs", "1", "--max-shrink", "0", "--schemes",
                 "static", "--out-dir", ""]) == 0
    assert capsys.readouterr().out.endswith("0 invariant violations\n")


# ----------------------------------------------------------------------
# one --check: every record against a second in-process run
# ----------------------------------------------------------------------
def _fig3_smoke(tmp_path, *flags):
    return ["sweep", "--grid", "fig3-smoke", "--no-cache", "--out",
            str(tmp_path / "sweep.jsonl"), *flags]


def test_sweep_check_without_a_cache_runs_every_cell_twice(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setitem(CELL_KINDS, "bandwidth",
                        lambda p: calls.append(p) or {"mbps": 1.0})
    assert main(_fig3_smoke(tmp_path, "--check")) == 0
    assert len(calls) == 2 * 9  # fig3-smoke is 9 cells
    assert "determinism check passed" in capsys.readouterr().err


def test_fuzz_check_runs_the_sweep_once_and_every_cell_twice(monkeypatch, capsys):
    calls = []
    real = CELL_KINDS["fuzz"]
    monkeypatch.setitem(CELL_KINDS, "fuzz", lambda p: calls.append(p) or real(p))
    assert main(["fuzz", "--runs", "2", "--schemes", "static", "dynamic",
                 "--out-dir", "", "--check"]) == 0
    assert len(calls) == 2 * 2 * 2  # runs x schemes, then the in-process re-run
    captured = capsys.readouterr()
    assert "determinism check passed" in captured.err
    assert captured.out.count(" ok digest=") == 2


def test_sweep_check_covers_records_resumed_from_the_artifact(tmp_path, capsys):
    # an interrupted campaign's finished cell, checkpointed in the cache
    argv = ["sweep", "--grid", "fig3-smoke", "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "sweep.jsonl"), "--repetitions", "1",
            "--schemes", "static", "--windows"]
    assert main(argv + ["1"]) == 0
    (entry,) = (tmp_path / "cache").glob("*.json")
    record = json.loads(entry.read_text())
    record["metrics"]["mbps"] += 1.0  # a checkpoint no run would write
    entry.write_text(json.dumps(record))
    capsys.readouterr()

    # the rerun picks the campaign up from it and executes the rest
    assert main(argv + ["1", "4", "--check"]) == 1
    err = capsys.readouterr().err
    assert "[1/1] run" in err and "window=4" in err  # one cell executed
    assert "CHECK MISMATCH" in err


@pytest.mark.parametrize("kind, argv", [
    ("bandwidth", None),
    ("ring", ["scaling", "--nodes", "4", "--schemes", "static", "--check"]),
    ("chaos", ["chaos", "--scenario", "receiver-stall", "--schemes", "static",
               "--check"]),
    ("fuzz", ["fuzz", "--runs", "2", "--schemes", "static", "--check"]),
], ids=["sweep", "scaling", "chaos", "fuzz"])
def test_a_nondeterministic_cell_fails_every_check(kind, argv, tmp_path, monkeypatch,
                                                   capsys):
    counter = itertools.count()
    monkeypatch.setitem(CELL_KINDS, kind, lambda p: {"n": next(counter)})
    assert main(argv or _fig3_smoke(tmp_path, "--check")) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "DETERMINISM DRIFT" in captured.err


def test_no_command_prints_usage_and_exits_2(capsys):
    assert main([]) == 2
    assert "usage:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "chaos" in capsys.readouterr().out


def test_parser_help_lists_commands():
    parser = build_parser()
    help_text = parser.format_help()
    for cmd in ("latency", "bandwidth", "nas", "scaling", "chaos"):
        assert cmd in help_text
