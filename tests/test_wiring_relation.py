"""The wiring relation: one program run on a static mesh and on demand
delivers the same messages between the same ranks in the same order.

A static mesh wires a pair at its first touch as ``MPI_Init`` would have; on
demand, the connection manager's exchange wires it.  By design the only
difference between the two is the simulated time that exchange takes, so
what each rank receives from each peer — the sequence of ``(tag, size)``
its completed receives carry, collectives' own traffic included — must be
identical, exactly.
"""

from collections import defaultdict

import pytest

from repro.cluster import TestbedConfig, run_job
from repro.faults import scenario_job
from repro.mpi.endpoint import Endpoint
from repro.workloads.nas import KERNELS

from tests.test_mesh_first_touch import _fan_in
from tests.test_quiescence import _ring

SCHEMES = ["hardware", "static", "dynamic", "rdma-eager"]

PROGRAMS = {
    "ring": lambda scheme, on_demand: run_job(_ring, 6, scheme, 2, on_demand=on_demand),
    "lu2": lambda scheme, on_demand: run_job(
        KERNELS["lu"].build(timesteps=2), 8, scheme, 4, on_demand=on_demand),
    "fan-in": lambda scheme, on_demand: run_job(
        _fan_in, 6, scheme, 4, config=TestbedConfig(nodes=6), on_demand=on_demand),
    "incast": lambda scheme, on_demand: run_job(
        scheme=scheme, **scenario_job("incast-n1", on_demand=on_demand)),
}


def _deliveries(monkeypatch, run):
    """``(receiver, sender) -> [(tag, size), ...]`` in completion order."""
    seen = defaultdict(list)
    complete = Endpoint._complete_recv

    def recording(ep, req, src, tag, size, payload):
        seen[ep.rank, src].append((tag, size))
        complete(ep, req, src, tag, size, payload)

    with monkeypatch.context() as m:
        m.setattr(Endpoint, "_complete_recv", recording)
        r = run()
    assert r.completed and not r.failures
    return dict(seen), r


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("program", PROGRAMS.values(), ids=PROGRAMS.keys())
def test_a_program_delivers_the_same_per_pair_sequences_on_a_mesh_and_on_demand(
        monkeypatch, program, scheme):
    mesh, on_mesh = _deliveries(monkeypatch, lambda: program(scheme, False))
    lazy, on_demand = _deliveries(monkeypatch, lambda: program(scheme, True))
    assert sum(map(len, mesh.values())) > 0
    assert mesh == lazy
    assert on_demand.connections_established > 0 and on_mesh.connections_established is None
