"""Extension — the 1,024-rank full mesh, simulated instead of modelled.

``repro scaling`` prints its 1,024-rank mesh rows from the closed form
(``mesh_pinned_bytes``, marked ``*``): four such meshes would turn a 30 s
command into minutes and GiBs.  This bench builds the mesh for real —
1,047,552 connections, each one ``QueuePair`` + one ``Connection`` with
its buffers posted — for ``static`` and ``dynamic`` at pre-post 1, runs
the scaling sweep's ring on it beside the on-demand twin, and checks the
closed form against the simulation to the byte.  Under 720 MiB of host
memory and ~6 s per mesh, one at a time; not part of tier-1.  The process's
peak RSS and the CPU seconds of ``Cluster.launch`` are printed after each
row (``pytest -s``; stdout only — a host number has no place in the results
file): the set-up figures ROADMAP item 1e quotes.
"""

import gc
import resource
import time

from repro.analysis import Table
from repro.cluster import Cluster, TestbedConfig, fat_tree_shape, run_job
from repro.core import SCHEME_NAMES, make_scheme
from repro.core.memory import mesh_pinned_bytes

from benchmarks.conftest import run_once, save_result

NRANKS = 1024
PREPOST = 1
MB = 1024 * 1024


def ring(mpi):
    """The scaling sweep's cell (``repro.campaign.cells``): 3 x 1 KB."""
    nxt = (mpi.rank + 1) % mpi.world_size
    prv = (mpi.rank - 1) % mpi.world_size
    for i in range(3):
        rreq = yield from mpi.irecv(source=prv, capacity=4096, tag=i)
        yield from mpi.send(nxt, size=1024, tag=i)
        yield from mpi.wait(rreq)


def idle(mpi):
    return
    yield


def run_table() -> Table:
    cfg = TestbedConfig(nodes=NRANKS, **fat_tree_shape(NRANKS))
    vbuf = cfg.mpi.vbuf_bytes
    table = Table(
        f"Extension: ring on {NRANKS} ranks (fat-tree), the mesh simulated",
        ["connections", "posted_buffers", "grown", "pinned_mb", "model_mb",
         "time_us"],
    )
    for scheme in SCHEME_NAMES[1:]:  # the user-level schemes
        for on_demand in (False, True):
            cluster = Cluster(cfg)
            launch_cpu = time.process_time()
            cluster.launch(NRANKS, make_scheme(scheme), PREPOST,
                           on_demand=on_demand)
            launch_cpu = time.process_time() - launch_cpu
            r = run_job(ring, NRANKS, scheme, prepost=PREPOST,
                        cluster=cluster, finalize=False)
            conns = [c for ep in r.endpoints for c in ep.connections.values()]
            mem = r.memory
            posted = sum(c.recv_posted for c in conns)
            # buffers the scheme added to what set-up posted (dynamic only)
            grown = sum(c.stats.max_prepost - PREPOST for c in conns)
            model = "-"
            if not on_demand:
                closed = mesh_pinned_bytes(NRANKS, scheme, PREPOST, cfg.mpi)
                model = closed / MB
                assert mem.connections == NRANKS * (NRANKS - 1) == 1_047_552
                # closed form == simulation, to the byte: exactly for a
                # scheme that never grows, plus the grown buffers otherwise
                assert mem.vbuf_pinned_bytes == closed + grown * vbuf
            if scheme == "static" and not on_demand:
                # MPI_Finalize over the built mesh: every rank quiesces and
                # barriers looking only at the peers it engaged
                run_job(idle, NRANKS, scheme, prepost=PREPOST,
                        cluster=cluster, finalize=True)
                assert all(ep.finalized for ep in cluster.endpoints)
            label = f"{scheme} " + ("on-demand" if on_demand else "mesh")
            table.add_row(
                label,
                mem.connections, posted, grown, mem.pinned_mb, model,
                r.elapsed_us,
            )
            peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            print(f"process peak RSS after {label}: {peak_mib:.0f} MiB; "
                  f"Cluster.launch {launch_cpu:.1f} CPU-s")
            # a mesh is ~0.7 GiB of cyclic garbage, and launch() pauses the
            # collector: free this one before the next is built
            del cluster, r, conns, mem
            gc.collect()
    return table


def test_ext_mesh1024(benchmark):
    table = run_once(benchmark, run_table)
    save_result("ext_mesh1024", table.render())

    # the static mesh is the closed form exactly: 8,184.00 MB
    assert table.value("static mesh", "grown") == 0
    assert table.value("static mesh", "pinned_mb") == \
        table.value("static mesh", "model_mb") == 8184.0
    # dynamic grows one buffer per ring edge whichever way the pair was
    # wired — the 2 MB between the on-demand rows is the 2 MB over the model
    assert table.value("dynamic mesh", "grown") == NRANKS
    assert table.value("dynamic on-demand", "grown") == NRANKS
    assert table.value("dynamic mesh", "pinned_mb") == 8186.0
    # the paper's conclusion at its motivating scale: 18 MB against 8.2 GB
    assert table.value("static on-demand", "pinned_mb") == 16.0
    assert table.value("dynamic on-demand", "pinned_mb") == 18.0
    assert table.value("dynamic on-demand", "connections") == 2 * NRANKS
