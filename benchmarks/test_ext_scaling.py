"""Extension — the paper's motivating scale: buffer memory on 64-, 256- and
1,024-rank fat-tree clusters, every scheme on a full mesh and on demand.

The introduction targets clusters "in the order of 1,000 to 10,000 nodes";
the conclusion proposes combining the dynamic scheme with on-demand
connection setup.  This bench runs the scaling sweep's ring cells
(``grids.scaling_grid()``, pre-post 1) and saves what ``repro scaling
--nodes 1024`` prints.  It checks every simulated mesh against the closed
form (``mesh_pinned_bytes``) to the byte: a ring scheme's rings are
``ring_bytes`` in the report, and ``dynamic`` grows one buffer per ring
edge.  With ``-s`` it prints the process's peak RSS (not gated: a host
number has no place in the results file).
"""

import resource
from functools import partial

from repro.analysis import scaling_report
from repro.campaign import grids
from repro.campaign.cells import ring
from repro.campaign.spec import JobSpec
from repro.cluster import TestbedConfig, fat_tree_shape, run_job
from repro.core import make_scheme
from repro.core.memory import mesh_pinned_bytes, qp_state_bytes

from benchmarks.conftest import run_grid, run_once, save_result

MB = 1024 * 1024


def test_ext_scaling(benchmark):
    res = run_once(benchmark, lambda: run_grid(grids.scaling_grid()))
    save_result("ext_scaling", scaling_report(res))
    cells = {(o.spec.params["nodes"], o.spec.params["scheme"],
              o.spec.params["on_demand"]): o.metrics for o in res.outcomes}
    cfg = TestbedConfig()
    vbuf, qp = cfg.mpi.vbuf_bytes, qp_state_bytes(cfg.ib)
    for (r, scheme, on_demand), m in cells.items():
        # directed connections: on demand only the ring's pairs are wired;
        # a mesh counts every pair, the ones the ring never touched too
        n = 2 * r if on_demand else r * (r - 1)
        assert m["connections"] == n // 2 and m["qp_bytes"] == n * qp
        # both ring halves of every connection, which the closed form counts
        # and the report keeps apart; dynamic grows one buffer a ring edge
        rings = n * 2 * vbuf if make_scheme(scheme).uses_ring else 0
        grown = r if scheme == "dynamic" else 0
        assert m["ring_bytes"] == rings
        closed = mesh_pinned_bytes(r, scheme, 1, cfg.mpi) * n // (r * (r - 1))
        assert m["pinned_bytes"] == closed - rings + grown * vbuf, (r, scheme, on_demand)

    # the paper's conclusion at its motivating scale: 18 MB against 8.2 GB;
    # hardware pins no optimistic headroom, rdma-eager its control reserve
    for key, mb in (((1024, "hardware", False), 2046), ((1024, "static", False), 8184),
                    ((1024, "dynamic", False), 8186), ((1024, "rdma-eager", False), 16368),
                    ((1024, "static", True), 16), ((1024, "dynamic", True), 18)):
        assert cells[key]["pinned_bytes"] == mb * MB, key

    # each step slashes the buffer footprint against a static mesh at pre-post 16
    static16 = run_grid([JobSpec("ring", {"nodes": 64, "scheme": "static", "prepost": 16,
                                          "iterations": 3, "on_demand": False})])
    mesh = static16.outcomes[0].metrics["posted_buffers"]
    dyn = cells[64, "dynamic", False]["posted_buffers"]
    assert dyn < mesh / 3
    assert cells[64, "dynamic", True]["posted_buffers"] < dyn / 5

    # MPI_Finalize over the 1,024-rank static mesh, a job of its own: every
    # rank quiesces and barriers looking only at the peers it engaged
    r = run_job(partial(ring, iterations=3), 1024, "static", prepost=1, on_demand=False,
                config=TestbedConfig(nodes=1024, **fat_tree_shape(1024)), finalize=True)
    assert all(ep.finalized for ep in r.endpoints)
    assert r.memory.connections == 1024 * 1023  # the mesh, not the ring's pairs
    print(f"process peak RSS: "
          f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MiB")
