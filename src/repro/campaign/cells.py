"""Executable sweep-cell kinds and their metric extraction.

Every campaign cell maps a :class:`~repro.campaign.spec.JobSpec` kind to
a function ``params -> metrics`` that builds the workload, runs it via
:func:`repro.cluster.run_job`, and reduces the :class:`JobResult` to a
plain JSON-serialisable dict.  Workers re-import this module, so the
registry must stay importable without side effects, and metrics must be
derived purely from the (deterministic) simulation — never from wall
clocks — so a worker's record is bit-identical to an in-process run.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping

from repro.campaign.spec import JobSpec
from repro.cluster import TestbedConfig, run_job
from repro.cluster.job import JobResult
from repro.sim.units import to_us

CELL_KINDS: Dict[str, Callable[[Mapping[str, Any]], Dict[str, Any]]] = {}


def cell_kind(name: str):
    def register(fn):
        CELL_KINDS[name] = fn
        return fn

    return register


def run_cell(spec: JobSpec) -> Dict[str, Any]:
    """Execute one cell in the current process and return its metrics."""
    try:
        fn = CELL_KINDS[spec.kind]
    except KeyError:
        raise ValueError(
            f"unknown cell kind {spec.kind!r} (know {sorted(CELL_KINDS)})"
        ) from None
    return fn(spec.params)


def latency_metrics(result: JobResult) -> Dict[str, Any]:
    """Reduce a latency run to metrics, preserving fractional nanoseconds.

    The ping-pong program averages over ``2 * iterations`` one-way trips,
    so the per-trip latency is almost never a whole nanosecond; truncating
    it (the old CLI's ``int(...)``) loses sub-microsecond resolution.
    """
    one_way_ns = float(result.rank_results[0])
    return {
        "latency_ns": one_way_ns,
        "latency_us": to_us(one_way_ns),
        "elapsed_ns": result.elapsed_ns,
    }


@cell_kind("latency")
def _latency_cell(p: Mapping[str, Any]) -> Dict[str, Any]:
    from repro.workloads.microbench import latency_program

    r = run_job(
        latency_program(p["size"], iterations=p["iterations"]),
        2,
        p["scheme"],
        prepost=p["prepost"],
        config=TestbedConfig(nodes=2),
    )
    return latency_metrics(r)


@cell_kind("bandwidth")
def _bandwidth_cell(p: Mapping[str, Any]) -> Dict[str, Any]:
    from repro.workloads.microbench import bandwidth_program

    r = run_job(
        bandwidth_program(
            p["size"],
            p["window"],
            repetitions=p["repetitions"],
            blocking=p["blocking"],
        ),
        2,
        p["scheme"],
        prepost=p["prepost"],
        config=TestbedConfig(nodes=2),
    )
    bw = r.rank_results[0]
    return {
        "mbps": bw.mbps,
        "bytes_moved": bw.bytes_moved,
        "transfer_ns": bw.elapsed_ns,
        "elapsed_ns": r.elapsed_ns,
    }


@cell_kind("nas")
def _nas_cell(p: Mapping[str, Any]) -> Dict[str, Any]:
    from repro.workloads.nas import KERNELS

    try:
        kernel = KERNELS[p["kernel"]]
    except KeyError:
        raise ValueError(
            f"unknown NAS kernel {p['kernel']!r} (know {sorted(KERNELS)})"
        ) from None
    r = run_job(kernel.build(), kernel.nranks, p["scheme"], prepost=p["prepost"])
    return {
        "elapsed_ns": r.elapsed_ns,
        "elapsed_s": r.elapsed_s,
        "nranks": kernel.nranks,
        "fc": r.report()["fc"],
    }


@cell_kind("chaos")
def _chaos_cell(p: Mapping[str, Any]) -> Dict[str, Any]:
    from repro.faults.scenarios import chaos_cell

    return chaos_cell(**p)  # the axes, then whatever arming the grid keyed


@cell_kind("fuzz")
def _fuzz_cell(p: Mapping[str, Any]) -> Dict[str, Any]:
    """One fuzz spec under one scheme, auditor armed (``repro.check.fuzz``)."""
    from repro.check.fuzz import run_spec

    return run_spec(p["spec"], p["scheme"])


@cell_kind("ring")
def _ring_cell(p: Mapping[str, Any]) -> Dict[str, Any]:
    """The scaling experiment's ring exchange on a fat-tree cluster.

    The tree shape comes from :func:`repro.cluster.fat_tree_shape` —
    two-level up to a few hundred ranks, the three-level pod topology at
    1,024 — and the metrics carry the memory model's byte counts so the
    sweep can render the Table-2-at-scale story.
    """
    from repro.cluster import fat_tree_shape

    nodes = p["nodes"]
    iterations = p["iterations"]
    cfg = TestbedConfig(nodes=nodes, **fat_tree_shape(nodes))

    def ring(mpi):
        nxt = (mpi.rank + 1) % mpi.world_size
        prv = (mpi.rank - 1) % mpi.world_size
        for i in range(iterations):
            rreq = yield from mpi.irecv(source=prv, capacity=4096, tag=i)
            yield from mpi.send(nxt, size=1024, tag=i)
            yield from mpi.wait(rreq)

    r = run_job(ring, nodes, p["scheme"], prepost=p["prepost"], config=cfg,
                on_demand=p["on_demand"], finalize=False)
    doc = r.report()
    mem = doc["memory"]
    return {
        "connections": (doc["cm"]["established"] if "cm" in doc
                        else nodes * (nodes - 1) // 2),
        "posted_buffers": mem["vbuf_posted_bytes"] // cfg.mpi.vbuf_bytes,
        "elapsed_ns": r.elapsed_ns,
        "elapsed_us": r.elapsed_us,
        "pinned_bytes": mem["vbuf_pinned_bytes"],
        "ring_bytes": mem["ring_bytes"],
        "qp_bytes": mem["qp_bytes"],
        "total_bytes": mem["total_bytes"],
        "per_rank_peak_bytes": mem["per_rank_peak_bytes"],
    }
