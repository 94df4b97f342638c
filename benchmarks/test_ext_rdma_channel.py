"""Extension — the RDMA-based eager channel ([13], the companion design).

The paper (§7): *"the results in this paper are directly applicable to the
RDMA-based MPI implementation ... the user-level dynamic scheme is more
complicated because cooperation between both the sender and the receiver
is necessary".*  The ``rdma-eager`` scheme is that design with a
fixed-size ring; this bench regenerates its two headline comparisons
against the send/recv channel:

* small-message latency: ~6.8 µs (RDMA ring) vs ~7.5 µs (send/recv);
* a flooded busy receiver at pre-post 4: the ring consumes no receive
  WQEs, so the RNR/NAK pathology the hardware scheme shows on the same
  flood cannot occur, while credits (ring slots) still throttle the
  sender into the backlog exactly as under the static scheme.
"""

from repro.analysis import Table
from repro.cluster import TestbedConfig, run_job
from repro.sim.units import to_us
from repro.workloads import latency_program

from benchmarks.conftest import run_once, save_result


def flood_busy(n=200, compute_ns=8_000):
    def prog(mpi):
        if mpi.rank == 0:
            reqs = []
            for i in range(n):
                r = yield from mpi.isend(1, size=4, payload=i)
                reqs.append(r)
            yield from mpi.waitall(reqs)
        else:
            for i in range(n):
                yield from mpi.recv(source=0, capacity=64)
                yield from mpi.compute(compute_ns)

    return prog


def run_table() -> Table:
    table = Table(
        "Extension: send/recv channel vs RDMA eager ring (flood at pre-post 4)",
        ["latency_us", "flood_us", "rnr_naks", "backlogged"],
    )
    for scheme in ("hardware", "static", "rdma-eager"):
        lat = run_job(latency_program(4, iterations=50), 2, scheme,
                      prepost=100, config=TestbedConfig(nodes=2))
        flood = run_job(flood_busy(), 2, scheme, prepost=4,
                        config=TestbedConfig(nodes=2))
        table.add_row(
            scheme,
            to_us(int(lat.rank_results[0])),
            flood.elapsed_us,
            flood.fc.rnr_naks,
            flood.fc.backlogged_msgs,
        )
    return table


def test_ext_rdma_channel(benchmark):
    table = run_once(benchmark, run_table)
    save_result("ext_rdma_channel", table.render())

    # the companion paper's latency gap (~0.7 us)
    assert table.value("rdma-eager", "latency_us") < table.value("static", "latency_us") - 0.3
    assert 6.3 < table.value("rdma-eager", "latency_us") < 7.2

    # the ring never RNR-NAKs where the hardware scheme does, and its
    # slots still throttle the sender
    assert table.value("rdma-eager", "rnr_naks") == 0
    assert table.value("hardware", "rnr_naks") > 0
    assert table.value("rdma-eager", "backlogged") > 0
