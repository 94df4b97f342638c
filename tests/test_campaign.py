"""Tests for the parallel sweep orchestrator (``repro.campaign``).

Covers the cache-hit/miss paths, the cache as the checkpoint a rerun
picks an interrupted campaign up from, the ``check=True`` determinism
gate catching an injected nondeterministic result, and the worker-pool
path producing records bit-identical to the in-process reference path.
"""

import json
import os
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from repro.campaign import (
    GRIDS,
    JobSpec,
    ResultCache,
    build_grid,
    canonical_json,
    code_version,
    latency_metrics,
    run_cell,
    run_cells,
)
from repro.campaign.cache import MemoryCache
from repro.campaign.runner import CampaignError, CheckFailure
from repro.campaign.cells import CELL_KINDS, cell_kind

# A grid small enough that every test runs in well under a second but
# still spans two schemes and two cells per scheme.
def tiny_grid():
    return [
        JobSpec("latency", {"scheme": scheme, "size": size,
                            "iterations": 3, "prepost": 10})
        for scheme in ("static", "dynamic")
        for size in (4, 64)
    ]


# ----------------------------------------------------------------------
# spec identity
# ----------------------------------------------------------------------
def test_spec_key_is_stable_under_param_order():
    a = JobSpec("latency", {"size": 4, "scheme": "static"})
    b = JobSpec("latency", {"scheme": "static", "size": 4})
    assert a.key == b.key
    assert a.canonical() == b.canonical()


def test_spec_key_distinguishes_params_and_kind():
    base = JobSpec("latency", {"size": 4})
    assert base.key != JobSpec("latency", {"size": 8}).key
    assert base.key != JobSpec("bandwidth", {"size": 4}).key


def test_spec_key_includes_code_version(monkeypatch):
    spec = JobSpec("latency", {"size": 4})
    before = spec.key
    monkeypatch.setattr("repro.campaign.spec._CODE_VERSION", "deadbeef")
    assert spec.key != before  # a code change invalidates every cache key


def test_spec_rejects_unserialisable_params():
    with pytest.raises(TypeError):
        JobSpec("latency", {"fn": lambda: None})


def test_spec_roundtrip_and_label():
    spec = JobSpec("nas", {"kernel": "lu", "scheme": "static", "prepost": 1})
    again = JobSpec.from_dict(json.loads(spec.canonical()))
    assert again == spec and again.key == spec.key
    assert "kernel=lu" in spec.label()
    assert spec.short_key == spec.key[:12]


def test_code_version_is_cached_and_hexlike():
    assert code_version() == code_version()
    assert len(code_version()) == 16
    int(code_version(), 16)  # hex digest prefix


# ----------------------------------------------------------------------
# caches
# ----------------------------------------------------------------------
def test_result_cache_roundtrip(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    key = "ab" * 32
    assert cache.get(key) is None and key not in cache
    record = {"key": key, "metrics": {"x": 1.5}}
    cache.put(key, record)
    assert cache.get(key) == record
    assert key in cache and len(cache) == 1
    assert list(cache.keys()) == [key]


def test_result_cache_torn_write_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    key = "cd" * 32
    cache.put(key, {"key": key, "metrics": {}})
    assert cache.get(key) == {"key": key, "metrics": {}}
    (tmp_path / f"{key}.json").write_text('{"metrics": {"trunc')
    assert cache.get(key) is None  # re-runs rather than erroring
    # parseable but not a record of this key with metrics: a miss too
    for corrupt in ({}, [], 0, {"key": key}, {"key": "ab" * 32, "metrics": {}}):
        cache.put(key, corrupt)
        assert cache.get(key) is None, corrupt


@pytest.mark.parametrize("corrupt", [{}, [], 0, {"metrics": {}}])
def test_a_corrupt_cached_record_is_rerun_and_overwritten(tmp_path, corrupt):
    spec = tiny_grid()[0]
    cache = ResultCache(tmp_path / "cache")
    cache.put(spec.key, corrupt)
    res = run_cells([spec], cache=cache)
    assert res.executed == 1 and res.hits == 0
    assert res.outcomes[0].source == "run" and res.outcomes[0].metrics
    assert cache.get(spec.key) == res.outcomes[0].record
    assert run_cells([spec], cache=cache).hits == 1


def test_result_cache_rejects_malformed_keys(tmp_path):
    cache = ResultCache(tmp_path)
    for bad in ("", "../escape", "ABC", "xy z"):
        with pytest.raises(ValueError):
            cache.get(bad)


def test_memory_cache_interface():
    cache = MemoryCache()
    cache.put("k", {"metrics": {}})
    assert cache.get("k") == {"metrics": {}}
    assert "k" in cache and len(cache) == 1
    assert list(cache.keys()) == ["k"]


# ----------------------------------------------------------------------
# cache hit / miss
# ----------------------------------------------------------------------
def test_cold_run_executes_and_warm_run_is_all_hits(tmp_path):
    specs = tiny_grid()
    cache = ResultCache(tmp_path / "cache")

    cold = run_cells(specs, cache=cache)
    assert cold.executed == len(specs) and cold.hits == 0
    assert all(o.source == "run" for o in cold.outcomes)

    warm = run_cells(specs, cache=cache)
    assert warm.executed == 0 and warm.hits == len(specs)
    assert all(o.source == "cache" for o in warm.outcomes)
    assert warm.records() == cold.records()  # byte-for-byte same metrics


def test_partial_cache_only_runs_misses(tmp_path):
    specs = tiny_grid()
    cache = ResultCache(tmp_path / "cache")
    run_cells(specs[:2], cache=cache)

    res = run_cells(specs, cache=cache)
    assert res.hits == 2 and res.executed == len(specs) - 2
    sources = [o.source for o in res.outcomes]
    assert sources[:2] == ["cache", "cache"]
    assert sources[2:] == ["run"] * (len(specs) - 2)


def test_duplicate_cells_execute_once():
    spec = tiny_grid()[0]
    res = run_cells([spec, spec, spec])
    assert res.executed == 1
    assert len(res.outcomes) == 3
    assert all(o.record is res.outcomes[0].record for o in res.outcomes)


def test_metrics_accessor_raises_without_record():
    out = run_cells([], ).outcomes  # empty campaign is fine
    assert out == []
    pending = SimpleNamespace()
    res = run_cells([tiny_grid()[0]], stop_after=0)
    assert res.interrupted
    with pytest.raises(CampaignError):
        res.outcomes[0].metrics


# ----------------------------------------------------------------------
# the cache is the checkpoint of an interrupted campaign
# ----------------------------------------------------------------------
def test_resume_after_simulated_crash(tmp_path):
    specs = tiny_grid()
    cache = ResultCache(tmp_path / "cache")
    jsonl = tmp_path / "campaign.jsonl"

    # The campaign "crashes" after two cells: stop_after models the
    # process dying mid-sweep with two records already in the cache.
    first = run_cells(specs, cache=cache, jsonl_path=jsonl, stop_after=2)
    assert first.interrupted and first.executed == 2
    assert len(cache) == 2
    assert not jsonl.exists()  # the artifact is written on completion only

    resumed = run_cells(specs, cache=cache, jsonl_path=jsonl)
    assert not resumed.interrupted
    assert resumed.hits == 2  # served from the checkpoint, not re-run
    assert resumed.executed == len(specs) - 2
    assert [o.source for o in resumed.outcomes[:2]] == ["cache", "cache"]

    # The final artifact holds every record, in input-spec order.
    records = [json.loads(l) for l in jsonl.read_text().splitlines()]
    assert [r["key"] for r in records] == [s.key for s in specs]


def test_sigint_mid_sweep_keeps_the_artifact_and_the_rerun_finishes(tmp_path):
    specs = [JobSpec("test-interruptible", {"n": n}) for n in range(6)]
    cache = ResultCache(tmp_path / "cache")
    jsonl = tmp_path / "campaign.jsonl"
    interrupt = set()
    ran = []

    @cell_kind("test-interruptible")
    def _cell(params):
        if params["n"] in interrupt:
            raise KeyboardInterrupt  # what SIGINT raises in the main thread
        ran.append(params["n"])
        return {"n": params["n"]}

    try:
        run_cells(specs, jsonl_path=jsonl)  # a previous complete campaign
        before = jsonl.read_bytes()
        interrupt.add(3)  # the 4th cell is running when SIGINT arrives
        ran.clear()
        with pytest.raises(KeyboardInterrupt):
            run_cells(specs, cache=cache, jsonl_path=jsonl)
        assert ran == [0, 1, 2] and len(cache) == 3
        assert jsonl.read_bytes() == before  # the last complete artifact stands

        interrupt.clear()
        ran.clear()
        rerun = run_cells(specs, cache=cache, jsonl_path=jsonl)
    finally:
        del CELL_KINDS["test-interruptible"]
    assert ran == [3, 4, 5]
    assert (rerun.executed, rerun.hits) == (3, 3)
    records = [json.loads(l) for l in jsonl.read_text().splitlines()]
    assert [r["key"] for r in records] == [s.key for s in specs]


# ----------------------------------------------------------------------
# the determinism gate
# ----------------------------------------------------------------------
def test_check_passes_on_honest_cache(tmp_path):
    specs = tiny_grid()[:2]
    cache = ResultCache(tmp_path / "cache")
    run_cells(specs, cache=cache)
    res = run_cells(specs, cache=cache, check=True)
    assert res.hits == 2 and res.check_failures == []


def test_check_catches_injected_nondeterministic_result(tmp_path):
    specs = tiny_grid()[:2]
    cache = ResultCache(tmp_path / "cache")
    run_cells(specs, cache=cache)

    # Inject nondeterminism: doctor one cached record as a worker with a
    # drifting simulation would have produced it.
    bad = dict(cache.get(specs[0].key))
    bad["metrics"] = dict(bad["metrics"], latency_ns=bad["metrics"]["latency_ns"] + 1)
    cache.put(specs[0].key, bad)

    with pytest.raises(CheckFailure) as err:
        run_cells(specs, cache=cache, check=True)
    assert len(err.value.mismatches) == 1
    assert err.value.mismatches[0]["key"] == specs[0].key

    # The check repaired the cache: the verified in-process record now
    # stands, so a follow-up check-run is clean.
    res = run_cells(specs, cache=cache, check=True)
    assert res.check_failures == []


def test_check_collects_mismatches_when_not_strict(tmp_path):
    specs = tiny_grid()[:1]
    cache = ResultCache(tmp_path / "cache")
    run_cells(specs, cache=cache)
    bad = dict(cache.get(specs[0].key))
    bad["metrics"] = dict(bad["metrics"], latency_ns=-1.0)
    cache.put(specs[0].key, bad)

    res = run_cells(specs, cache=cache, check=True, strict=False)
    assert len(res.check_failures) == 1
    m = res.check_failures[0]
    assert m["stored"]["metrics"]["latency_ns"] == -1.0
    assert m["recomputed"]["metrics"]["latency_ns"] > 0


def test_fresh_in_process_runs_are_not_rechecked():
    # check re-runs only records of *unverified* provenance (cache,
    # worker) — a cell freshly executed in this process would be
    # compared against itself, wasted work the runner skips.
    specs = tiny_grid()[:1]
    res = run_cells(specs, check=True)
    assert res.executed == 1 and res.check_failures == []


# ----------------------------------------------------------------------
# failures
# ----------------------------------------------------------------------
def test_failing_cell_raises_when_strict():
    spec = JobSpec("latency", {"scheme": "no-such-scheme", "size": 4,
                               "iterations": 1, "prepost": 1})
    with pytest.raises(CampaignError):
        run_cells([spec])


def test_failing_cell_is_collected_when_not_strict():
    good = tiny_grid()[0]
    bad = JobSpec("latency", {"scheme": "no-such-scheme", "size": 4,
                              "iterations": 1, "prepost": 1})
    res = run_cells([bad, good], strict=False)
    assert len(res.failures) == 1
    assert res.failures[0].source == "failed"
    assert res.failures[0].error
    assert res.outcomes[1].source == "run"  # campaign kept going


def test_unknown_cell_kind_is_an_error():
    with pytest.raises(ValueError, match="unknown cell kind"):
        run_cell(JobSpec("teleport", {}))


# ----------------------------------------------------------------------
# the worker-pool path
# ----------------------------------------------------------------------
def test_worker_pool_records_bit_identical_to_sequential(tmp_path):
    specs = tiny_grid()
    seq = run_cells(specs)

    pooled = run_cells(specs, workers=2, check=True)
    assert pooled.executed == len(specs)
    assert all(o.source == "worker" for o in pooled.outcomes)
    assert pooled.check_failures == []  # worker output == in-process rerun
    assert canonical_json(pooled.records()) == canonical_json(seq.records())


def test_worker_pool_failure_is_reported(tmp_path):
    bad = JobSpec("latency", {"scheme": "no-such-scheme", "size": 4,
                              "iterations": 1, "prepost": 1})
    res = run_cells([bad, tiny_grid()[0]], workers=2, strict=False)
    assert len(res.failures) == 1
    assert "no-such-scheme" in res.failures[0].error


def test_a_strict_failure_stops_the_worker_pool(tmp_path):
    """No cell is submitted once a strict failure is seen: at most the
    cells already in flight beside it (2 x workers in all) start."""
    started = tmp_path / "started"
    started.mkdir()

    @cell_kind("test-logged")  # registered before the fork: workers inherit it
    def _cell(params):
        (started / str(params["n"])).touch()
        if params["n"] == 0:
            raise RuntimeError("cell 0 fails")
        time.sleep(0.2)
        return {"n": params["n"]}

    specs = [JobSpec("test-logged", {"n": n}) for n in range(9)]
    try:
        with pytest.raises(CampaignError, match="cell 0 fails"):
            run_cells(specs, workers=2)
    finally:
        del CELL_KINDS["test-logged"]
    others = {p.name for p in started.iterdir()} - {"0"}
    assert len(others) <= 3, sorted(others)


def test_only_a_worker_pool_campaign_loads_multiprocessing():
    """``import repro.campaign`` is every ``repro latency`` / ``bandwidth``
    / ``sweep --workers 1`` and every ledger child: ``concurrent.futures``
    (and with it ``multiprocessing`` and ~30 modules) loads where the pool
    is built, not at module top."""
    child = """
import sys
from repro.campaign import JobSpec, canonical_json, run_cells
specs = [JobSpec("latency", {"scheme": "static", "size": size,
                             "iterations": 3, "prepost": 10}) for size in (4, 64)]
assert "multiprocessing" not in sys.modules, "loaded by the import"
seq = run_cells(specs)
assert "multiprocessing" not in sys.modules, "loaded by an in-process campaign"
pooled = run_cells(specs, workers=2)
assert "multiprocessing" in sys.modules
assert [o.source for o in pooled.outcomes] == ["worker", "worker"]
assert canonical_json(pooled.records()) == canonical_json(seq.records())
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", child], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# ----------------------------------------------------------------------
# grids and metric extraction
# ----------------------------------------------------------------------
def test_named_grids_build_json_clean_specs():
    for name in GRIDS:
        specs = build_grid(name)
        assert specs, name
        for spec in specs:
            spec.canonical()  # every cell serialises
            assert spec.kind in CELL_KINDS


def test_build_grid_unknown_name():
    with pytest.raises(ValueError, match="unknown grid"):
        build_grid("fig99")


def test_build_grid_drops_none_overrides():
    assert build_grid("fig2", schemes=None) == build_grid("fig2")
    assert {s.params["scheme"] for s in build_grid("fig2", schemes=["static"])} \
        == {"static"}


def test_latency_metrics_preserve_fractional_nanoseconds():
    # Regression: cmd_latency used ``to_us(int(r.rank_results[0]))``,
    # silently truncating fractional-nanosecond (sub-microsecond
    # resolution) latencies before conversion.
    stub = SimpleNamespace(rank_results=[1234.75], elapsed_ns=99)
    m = latency_metrics(stub)
    assert m["latency_ns"] == 1234.75
    assert m["latency_us"] == pytest.approx(1.23475)
    assert isinstance(m["latency_ns"], float)


def test_progress_callback_sees_every_execution(tmp_path):
    specs = tiny_grid()[:2]
    seen = []
    run_cells(specs, progress=lambda out, done, total: seen.append(
        (out.spec.key, done, total)))
    assert [(d, t) for _, d, t in seen] == [(1, 2), (2, 2)]
    assert [k for k, _, _ in seen] == [s.key for s in specs]


def test_registering_a_cell_kind_is_reversible():
    @cell_kind("test-only")
    def _cell(params):
        return {"echo": dict(params)}

    try:
        assert run_cell(JobSpec("test-only", {"v": 3})) == {"echo": {"v": 3}}
    finally:
        del CELL_KINDS["test-only"]
