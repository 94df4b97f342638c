"""Tests for the command-line interface."""

import itertools
import json

import pytest

from repro.campaign import CELL_KINDS
from repro.cli import build_parser, main


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
])
def test_a_zero_or_negative_count_is_a_usage_error_not_a_traceback(argv, capsys):
    assert main(argv + ["--schemes", "static"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    flag = next(a for a in reversed(argv) if a.startswith("--"))
    least = "non-negative" if flag in ("--size", "--sizes") else "positive"  # 0 B is a message
    assert captured.err.splitlines()[-1].endswith(
        f"error: argument {flag}: must be a {least} integer, got {argv[-1]}")


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


def test_sweep_check_covers_records_resumed_from_the_artifact(tmp_path, capsys):
    argv = _fig3_smoke(tmp_path, "--windows", "1", "--repetitions", "1",
                       "--schemes", "static")
    assert main(argv) == 0
    artifact = tmp_path / "sweep.jsonl"
    record = json.loads(artifact.read_text())
    record["metrics"]["mbps"] += 1.0  # a checkpoint no run would write
    artifact.write_text(json.dumps(record) + "\n")
    capsys.readouterr()

    assert main(argv + ["--resume", "--check"]) == 1
    assert "CHECK MISMATCH" in capsys.readouterr().err


@pytest.mark.parametrize("kind, argv", [
    ("bandwidth", None),
    ("ring", ["scaling", "--nodes", "4", "--schemes", "static", "--check"]),
    ("chaos", ["chaos", "--scenario", "receiver-stall", "--schemes", "static",
               "--check"]),
], ids=["sweep", "scaling", "chaos"])
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
