"""Table 1 — explicit credit messages under the user-level static scheme
(pre-post = 100).

Paper finding: for LU, ECMs make up a significant share of all messages
(≈ 18 % — sweep traffic is one-directional for 64 planes at a time, so
credits cannot piggyback); for every other application there are almost no
explicit credit messages.
"""

from repro.analysis import Table
from repro.campaign import grids

from benchmarks.conftest import run_grid, run_once, save_result


def run_table() -> Table:
    table = Table(
        "Table 1: Explicit credit messages, user-level static (pre-post=100)",
        ["ecm_msgs", "total_msgs", "ecm_share_%", "ecm_per_conn"],
    )
    for out in run_grid(grids.nas_grid(schemes=["static"], preposts=[100])).outcomes:
        fc = out.metrics["fc"]
        table.add_row(
            out.spec.params["kernel"],
            fc["ecm_msgs"],
            fc["total_msgs"],
            100.0 * fc["ecm_fraction"],
            fc["avg_ecm_per_connection"],
        )
    return table


def test_tab1(benchmark):
    table = run_once(benchmark, run_table)
    save_result("tab1_ecm", table.render())

    # LU: a significant ECM share (paper: 18 %).
    assert table.value("lu", "ecm_share_%") > 10.0
    # Everyone else: almost none.
    for kernel in ("is", "ft", "cg", "mg", "bt", "sp"):
        assert table.value(kernel, "ecm_share_%") < 1.0, kernel
