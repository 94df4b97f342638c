"""Shared helpers for MPI-layer tests: tiny programs and runners."""

from repro.cluster import TestbedConfig, run_job


def run2(program, scheme="static", prepost=10, config=None, **kw):
    """Run a 2-rank job on a 2-node cluster."""
    cfg = config or TestbedConfig(nodes=2)
    return run_job(program, 2, scheme, prepost, config=cfg, **kw)


def wire_all(cluster):
    """Wire every pair of a static-mesh cluster — what ``Cluster.launch``
    once did at launch, what first touch does pair by pair."""
    for hca in cluster.hcas:
        cluster.wire_adapter(hca)
    return cluster


def runN(program, nranks, scheme="static", prepost=10, config=None, **kw):
    cfg = config or TestbedConfig(nodes=min(nranks, 8))
    return run_job(program, nranks, scheme, prepost, config=cfg, **kw)
