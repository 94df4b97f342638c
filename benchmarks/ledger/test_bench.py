"""Tests of the ledger itself.  Not part of tier-1 (about a minute):

    PYTHONPATH=src python -m pytest benchmarks/ledger -q
"""

from __future__ import annotations

import json
import pathlib
import re
import signal
import subprocess
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import calibrate  # noqa: E402
import manifest  # noqa: E402
import workloads  # noqa: E402

BENCHMARK_JSON = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def run_dirs(tmp_path_factory):
    """Two complete quick runs with one seed; each directory holds
    ``ledger.json``, ``trace_*.json`` and ``profile_*.json``."""
    dirs = [tmp_path_factory.mktemp("run") for _ in range(2)]
    for out in dirs:
        assert bench.main(["--quick", "--seed", "7", "--out", str(out)]) == 0
    return dirs


@pytest.fixture(scope="module")
def ledgers(run_dirs):
    return [json.loads((out / "ledger.json").read_text()) for out in run_dirs]


def exact_values(entry: dict) -> dict:
    values = {n: m["value"] for n, m in entry["end_to_end"].items()
              if n in bench.EXACT}
    values.update({n: v for n, v in entry["per_layer"].items() if n in bench.EXACT})
    values["sim_digest"] = entry["sim_digest"]
    return values


# ---------------------------------------------------------------- manifest
def test_benchmark_json_is_the_manifest():
    assert BENCHMARK_JSON == manifest.to_benchmark_json()
    assert list(workloads.REGISTRY) == list(manifest.WORKLOADS)


def test_names_and_limits():
    sections = [BENCHMARK_JSON[k] for k in ("workloads", "end_to_end", "per_layer")]
    names = [m["name"] for section in sections for m in section]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert 2 <= len(sections[0]) <= 8
    assert 1 <= len(sections[1]) <= 16
    assert 1 <= len(sections[2]) <= 128
    assert all(len(w["why"]) <= 200 for w in sections[0])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in sections[1])
    assert all(0 < m["bound"] <= 0.25 for m in sections[1])


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_line_emits_every_declared_name(tmp_path, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--quick", "--workload", "nas_lu8",
         "--seed", "5", "--seconds", "0", "--trace", str(trace),
         "--out", str(tmp_path)],
        stdout=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 0
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 < line["attempted"]
    declared = BENCHMARK_JSON["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())


# ------------------------------------------------------------- determinism
def test_exact_metrics_repeat_for_one_seed(ledgers):
    for name in manifest.WORKLOADS:
        a, b = (ledger["workloads"][name] for ledger in ledgers)
        assert exact_values(a) == exact_values(b), name
        assert a["checks"]["failed"] == 0


def test_exact_metrics_differ_between_seeds(tmp_path, ledgers):
    other = bench.measure(list(manifest.WORKLOADS), 8, "quick", tmp_path,
                          repeats=1, trace=False)
    for name in manifest.WORKLOADS:
        assert other[name]["inputs"] != ledgers[0]["workloads"][name]["inputs"]
        assert other[name]["sim_digest"] != ledgers[0]["workloads"][name]["sim_digest"]


def test_inputs_are_a_function_of_the_seed():
    for name in manifest.WORKLOADS:
        assert workloads.make_inputs(name, 3) == workloads.make_inputs(name, 3)


def test_compare_two_runs_of_one_commit(run_dirs, capsys):
    code = bench.main(["--compare", *(str(out / "ledger.json") for out in run_dirs)])
    out = capsys.readouterr().out
    assert "DIFFERENT" not in out
    # sim_events, sim_elapsed_us, sim_digest and the per-layer exact counts
    assert out.count("identical") == 4 * len(manifest.WORKLOADS)
    assert code in (0, 1)  # 1 only if a quick, single-repeat timing read "worse"


def test_compare_names_a_digest_mismatch(tmp_path, ledgers, capsys):
    doctored = json.loads(json.dumps(ledgers[1]))
    doctored["workloads"]["nas_lu8"]["sim_digest"] = "0" * 16
    doctored["workloads"]["nas_lu8"]["end_to_end"]["sim_events"]["value"] += 1
    paths = []
    for i, ledger in enumerate((ledgers[0], doctored)):
        paths.append(tmp_path / f"{i}.json")
        paths[-1].write_text(json.dumps(ledger))
    assert bench.main(["--compare", *map(str, paths)]) == 1
    rows = [r for r in capsys.readouterr().out.splitlines() if "DIFFERENT" in r]
    assert [r.split()[:2] for r in rows] == [["nas_lu8", "sim_events"],
                                             ["nas_lu8", "sim_digest"]]


def test_bounded_verdicts():
    def m(runs):
        q = bench.statistics.quantiles(runs, n=4)
        return {"runs": runs, "median": q[1], "q1": q[0], "q3": q[2]}

    steady = m([1.00, 1.01, 1.02, 1.01, 1.00])
    assert bench.bounded_verdict(steady, m([1.02, 1.03, 1.01, 1.02, 1.03]), 0.1) \
        == "within-bound"
    assert bench.bounded_verdict(steady, m([1.30, 1.31, 1.32, 1.30, 1.31]), 0.1) \
        == "worse"
    noisy = m([0.8, 1.0, 1.3, 1.1, 0.9])
    assert bench.bounded_verdict(steady, noisy, 0.1) == "unresolved"


# ------------------------------------------------------------- calibration
def test_host_speed_sampler_normalises_cpu_time():
    assert calibrate.core_pass() == calibrate.core_pass()  # fixed work
    before = signal.getsignal(signal.SIGPROF)
    speed = calibrate.HostSpeed(interval_s=0.005)
    speed.start()
    t0 = time.thread_time()
    while time.thread_time() - t0 < 0.15:
        pass
    t1 = time.thread_time()
    speed.stop()
    assert signal.getsignal(signal.SIGPROF) == before
    inside = [core + memory for at, core, memory in speed.samples if t0 < at <= t1]
    assert len(inside) >= 5
    # CPU time less the sampler's own, scaled by a host speed near 1
    cpu = t1 - t0 - sum(inside)
    for share in (0.0, 0.3):
        assert 0.3 * cpu < speed.normalised(t0, t1, share) < 3.0 * cpu
    # a window too short for a sample of its own borrows the nearest
    assert speed.normalised(t1, t1 + 1e-4) > 0


# ------------------------------------------------------------------ traces
def test_spans_nest_and_layers_sum(run_dirs, ledgers):
    for name in manifest.WORKLOADS:
        spans = json.loads((run_dirs[0] / f"trace_{name}.json").read_text())["spans"]
        by_id = {s["id"]: s for s in spans}
        roots = [s["name"] for s in spans if s["parent"] is None]
        assert roots == ["setup", "run"] + ["twin"] * (name == "paper_figs")
        for s in spans:
            assert s["self_s"] >= -1e-9 and s["end"] >= s["start"]
            if s["parent"] is not None:
                parent = by_id[s["parent"]]
                assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
        # every span below one run_job carries that job's id
        for s in spans:
            parent = by_id.get(s["parent"])
            if parent is not None and parent["job"] is not None:
                assert s["job"] == parent["job"]
        layers = ledgers[0]["workloads"][name]["per_layer"]
        assert sum(layers[f"{layer}.calls"]
                   for layer in (*manifest.LAYERS, "harness")) == layers["total.calls"]


def test_trace_shows_which_layers_ran(ledgers):
    per_layer = {n: ledgers[0]["workloads"][n]["per_layer"] for n in manifest.WORKLOADS}
    for layer in ("check", "recovery", "ft", "congestion"):
        assert per_layer["nas_lu8"][f"{layer}.calls"] == 0
    for layer in ("check", "ft", "congestion"):
        assert per_layer["armed_lu8"][f"{layer}.calls"] > 0
    assert per_layer["scale1024_od"]["cluster.on_demand_requests"] > 0
    assert per_layer["mesh_build256"]["ib.create_qp_n"] == 64 * 63
    assert per_layer["paper_figs"]["cluster.launch_n"] == 165
    assert per_layer["paper_figs"]["campaign.cache_hits"] == 165
    assert per_layer["paper_figs"]["mpi.host_ns_4B"] > per_layer["paper_figs"][
        "ib.fabric_ns_4B"] > 0


# -------------------------------------------------- the checks must bite
def run_doctored(monkeypatch, capsys, tmp_path, workload, doctor):
    real = workloads.make_inputs

    def doctored(name, seed, size):
        inputs = real(name, seed, size)
        doctor(inputs)
        return inputs

    monkeypatch.setattr(workloads, "make_inputs", doctored)
    code = bench.main(["--quick", "--workload", workload, "--seed", "7",
                       "--seconds", "0", "--trace", "0", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    return code, out, json.loads(out.strip().splitlines()[-1])


def test_wrong_delivered_count_fails_by_name(monkeypatch, capsys, tmp_path):
    def doctor(inputs):
        inputs["expect_msgs"] += 1

    code, out, line = run_doctored(monkeypatch, capsys, tmp_path,
                                   "flood_starved", doctor)
    assert code != 0 and line["correct"] is False
    assert 0 < line["failed"] < line["attempted"]  # failed_frac > 0, run not shorter
    assert "FAILED CHECK delivered:hardware" in out


def test_raising_job_fails_by_name(monkeypatch, capsys, tmp_path):
    def doctor(inputs):
        inputs["max_events"] = 1000  # the job hangs to max_events and raises

    code, out, line = run_doctored(monkeypatch, capsys, tmp_path, "nas_lu8", doctor)
    assert code != 0 and line["correct"] is False and line["failed"] > 0
    assert "FAILED CHECK jobs_complete:lu: SimulationError: exceeded max_events" in out
