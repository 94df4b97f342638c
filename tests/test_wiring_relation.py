"""The wiring relation: one program run on a static mesh and on demand
delivers the same messages between the same ranks in the same order.

A static mesh wires a pair at its first touch as ``MPI_Init`` would have; on
demand, the connection manager's exchange wires it.  By design the only
difference between the two is the simulated time that exchange takes, so
what each rank receives from each peer — the sequence of ``(tag, size)``
its completed receives carry, collectives' own traffic included — must be
identical, exactly.

The placement relation is its twin: a program run with one rank an adapter
and with two (``nodes = nranks // 2``, so ranks r and r + nodes share one
and talk over its loopback path) delivers the same sequences too.
"""

from collections import defaultdict
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.cluster import TestbedConfig, run_job
from repro.faults import scenario_job
from repro.mpi.endpoint import Endpoint
from repro.workloads.nas import KERNELS

from tests.test_mesh_first_touch import _fan_in
from tests.test_quiescence import _ring

SCHEMES = ["hardware", "static", "dynamic", "rdma-eager"]

#: name -> (ranks, run(scheme, on_demand, nodes))
PROGRAMS = {
    "ring": (6, lambda scheme, on_demand, nodes: run_job(
        _ring, 6, scheme, 2, config=TestbedConfig(nodes=nodes), on_demand=on_demand)),
    "lu2": (8, lambda scheme, on_demand, nodes: run_job(
        KERNELS["lu"].build(timesteps=2), 8, scheme, 4,
        config=TestbedConfig(nodes=nodes), on_demand=on_demand)),
    "fan-in": (6, lambda scheme, on_demand, nodes: run_job(
        _fan_in, 6, scheme, 4, config=TestbedConfig(nodes=nodes), on_demand=on_demand)),
    "incast": (10, lambda scheme, on_demand, nodes: _placed(
        scenario_job("incast-n1", on_demand=on_demand), scheme, nodes)),
}


def _placed(job, scheme, nodes):
    """Run a scenario's job with its testbed on ``nodes`` adapters."""
    return run_job(scheme=scheme, **{**job, "config": replace(job["config"], nodes=nodes)})


#: (program, scheme, on_demand, nodes) -> what one run delivered: the
#: placement relation's one-rank-an-adapter runs are the wiring relation's
_RUNS = {}


def _deliveries(monkeypatch, name, scheme, on_demand, nodes):
    """``(receiver, sender) -> [(tag, size), ...]`` in completion order, a
    copy, and the run's ``connections_established``."""
    key = (name, scheme, on_demand, nodes)
    if key not in _RUNS:
        seen = defaultdict(list)
        complete = Endpoint._complete_recv

        def recording(ep, req, src, tag, size, payload):
            seen[ep.rank, src].append((tag, size))
            complete(ep, req, src, tag, size, payload)

        with monkeypatch.context() as m:
            m.setattr(Endpoint, "_complete_recv", recording)
            r = PROGRAMS[name][1](scheme, on_demand, nodes)
        assert r.completed and not r.failures
        _RUNS[key] = dict(seen), SimpleNamespace(
            connections_established=r.connections_established)
    seen, r = _RUNS[key]
    return {pair: list(got) for pair, got in seen.items()}, r


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("name", PROGRAMS)
def test_a_program_delivers_the_same_per_pair_sequences_on_a_mesh_and_on_demand(
        monkeypatch, name, scheme):
    nranks = PROGRAMS[name][0]
    mesh, on_mesh = _deliveries(monkeypatch, name, scheme, False, nranks)
    lazy, on_demand = _deliveries(monkeypatch, name, scheme, True, nranks)
    assert sum(map(len, mesh.values())) > 0
    assert mesh == lazy
    assert on_demand.connections_established > 0 and on_mesh.connections_established is None


@pytest.mark.parametrize("on_demand", [False, True], ids=["mesh", "on-demand"])
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("name", PROGRAMS)
def test_a_program_delivers_the_same_per_pair_sequences_with_two_ranks_an_adapter(
        monkeypatch, name, scheme, on_demand):
    """The placement relation: ranks r and r + P/2 sharing an adapter talk
    over its loopback path, which changes when messages arrive but not
    which arrive from whom, in what order."""
    nranks = PROGRAMS[name][0]
    alone, _ = _deliveries(monkeypatch, name, scheme, on_demand, nranks)
    shared, _ = _deliveries(monkeypatch, name, scheme, on_demand, nranks // 2)
    assert alone == shared
