"""Extension — the paper's motivating scale: buffer usage on large
simulated clusters (fat-tree topology), with and without on-demand
connection management.

The introduction targets clusters "in the order of 1,000 to 10,000 nodes";
the conclusion proposes combining the dynamic scheme with on-demand
connection setup.  This bench quantifies that combination on a 64-rank
fat-tree cluster running a nearest-neighbour ring: total posted buffer
memory under (static mesh) vs (dynamic + on-demand).
"""

from repro.analysis import Table
from repro.cluster import TestbedConfig, run_job
from repro.core import DynamicScheme, StaticScheme
from repro.core.stats import connection_table

from benchmarks.conftest import run_once, save_result

NODES = 64


def ring(mpi):
    nxt = (mpi.rank + 1) % mpi.world_size
    prv = (mpi.rank - 1) % mpi.world_size
    for i in range(4):
        rreq = yield from mpi.irecv(source=prv, capacity=4096, tag=i)
        yield from mpi.send(nxt, size=1024, tag=i)
        yield from mpi.wait(rreq)
    return "ok"


def posted_buffers(result) -> int:
    """Every connection's, a static-mesh pair never touched as its stand-in."""
    return sum(
        c.recv_posted for ep in result.endpoints for _, c in connection_table(ep)
    )


def run_table() -> Table:
    cfg = TestbedConfig(nodes=NODES, topology="fat-tree", leaf_ports=8, spines=4)
    table = Table(
        f"Extension: ring on {NODES} ranks (fat-tree), buffer scaling",
        ["connections", "posted_buffers", "time_us"],
    )
    combos = [
        ("static mesh pp=16", StaticScheme(), 16, False),
        ("dynamic mesh pp=1", DynamicScheme(), 1, False),
        ("dynamic on-demand pp=1", DynamicScheme(), 1, True),
    ]
    for label, scheme, prepost, on_demand in combos:
        r = run_job(ring, NODES, scheme, prepost=prepost, config=cfg,
                    on_demand=on_demand, finalize=False)
        assert r.rank_results == ["ok"] * NODES
        conns = (
            r.connections_established
            if r.connections_established is not None
            else NODES * (NODES - 1) // 2
        )
        table.add_row(label, conns, posted_buffers(r), r.elapsed_us)
    return table


def test_ext_scaling(benchmark):
    table = run_once(benchmark, run_table)
    save_result("ext_scaling", table.render())

    mesh = table.value("static mesh pp=16", "posted_buffers")
    dyn = table.value("dynamic mesh pp=1", "posted_buffers")
    lazy = table.value("dynamic on-demand pp=1", "posted_buffers")

    # Each step slashes the buffer footprint by a large factor.
    assert dyn < mesh / 3
    assert lazy < dyn / 5
    # On-demand wires only the ring's 64 pairs.
    assert table.value("dynamic on-demand pp=1", "connections") == NODES
