"""Golden-replay determinism tests.

The simulator's regression story (and the performance ledger in
``benchmarks/ledger/``) rests on bit-identical replay: the same workload must
execute the same number of events, end at the same simulated instant, and
produce the same tracer statistics on every run — across processes,
machines, and kernel optimizations.  ``tests/golden/replay_golden.json``
pins snapshots taken before the hot-path overhaul; these tests replay each
workload and compare every field exactly (no tolerances).

Regenerating the fixture is a deliberate act: only do it when a change is
*meant* to alter the event stream (a model change, never an optimization),
and say so in the commit message.
"""

import dataclasses
import json
import os

import pytest

from repro.cluster import TestbedConfig, run_job
from repro.workloads import bandwidth_program
from repro.workloads.nas import lu

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "replay_golden.json")


def _snapshot(result):
    """The determinism-relevant view of a finished job."""
    sim = result.endpoints[0].sim
    return {
        "events_executed": sim.events_executed,
        "sim_now": sim.now,
        "tracer_summary": result.tracer.summary(),
        "elapsed_ns": result.elapsed_ns,
        "fc": dataclasses.asdict(result.fc),
    }


#: name -> workload; must mirror the recipes the fixture was built from
WORKLOADS = {
    "lu_static_pp100": lambda: run_job(
        lu.build(timesteps=3), 8, "static", prepost=100),
    "lu_dynamic_pp10": lambda: run_job(
        lu.build(timesteps=2), 8, "dynamic", prepost=10),
    "lu_hardware_pp1": lambda: run_job(
        lu.build(timesteps=1), 8, "hardware", prepost=1),
    "bw4_nonblocking_pp10": lambda: run_job(
        bandwidth_program(4, 100, repetitions=20, blocking=False),
        2, "static", prepost=10),
    "bw4_rdma_ring": lambda: run_job(
        bandwidth_program(4, 50, repetitions=10, blocking=False),
        2, "rdma-eager", prepost=8, config=TestbedConfig(nodes=2)),
}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as f:
        return json.load(f)


def test_fixture_covers_every_workload(golden):
    assert set(golden) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_replay_matches_golden(name, golden):
    got = _snapshot(WORKLOADS[name]())
    want = golden[name]
    # Field-by-field first so a failure names the drifted quantity.
    for key in want:
        assert got[key] == want[key], f"{name}: {key} drifted"
    assert got == want


def test_back_to_back_runs_are_bit_identical():
    """Two in-process runs of the LU proxy agree on every kernel-visible
    statistic — catches ordering that leaks through module/global state."""
    a = _snapshot(run_job(lu.build(timesteps=2), 8, "static", prepost=100))
    b = _snapshot(run_job(lu.build(timesteps=2), 8, "static", prepost=100))
    assert a["events_executed"] == b["events_executed"]
    assert a["sim_now"] == b["sim_now"]
    assert a["tracer_summary"] == b["tracer_summary"]
    assert a == b
