"""Figure 10 — % performance degradation going from pre-post=100 to
pre-post=1.

Paper findings, reproduced as shape assertions:

* most applications barely notice even the extreme one-buffer setting
  (IS, FT, BT, SP ≤ 2 %);
* the hardware-based scheme collapses for LU and MG under RNR
  timeout-and-retransmission storms;
* the user-level static scheme's biggest losses are on LU;
* the user-level dynamic scheme adapts and shows almost no degradation
  anywhere — the paper's headline result.
"""

from repro.analysis import Table, pct_change, scheme_table
from repro.campaign import grids
from repro.workloads.nas import KERNEL_ORDER

from benchmarks.conftest import SCHEMES, run_grid, run_once, save_result


def run_table() -> Table:
    def cell(out):
        return out.spec.params["kernel"], out.spec.params["scheme"]

    base = {cell(out): out.metrics["elapsed_ns"]
            for out in run_grid(grids.nas_grid(preposts=[100])).outcomes}
    return scheme_table(
        run_grid(grids.nas_grid(preposts=[1])),
        "Figure 10: % degradation, pre-post 100 -> 1",
        lambda out: pct_change(out.metrics["elapsed_ns"], base[cell(out)]),
    )


def test_fig10(benchmark):
    table = run_once(benchmark, run_table)
    save_result("fig10_nas_degradation", table.render())

    # Insensitive kernels: every scheme within 2 %.
    for kernel in ("is", "ft", "bt", "sp"):
        for scheme in SCHEMES:
            assert abs(table.value(kernel, scheme)) < 2.0, (kernel, scheme)

    # Hardware collapses on LU and MG (timeout storms).
    assert table.value("lu", "hardware") > 50.0
    assert table.value("mg", "hardware") > 3.0

    # Static's biggest loss is LU; it loses visibly less than hardware.
    assert table.value("lu", "static") > 20.0
    assert table.value("lu", "static") < table.value("lu", "hardware")

    # Dynamic: almost no degradation anywhere.
    for kernel in KERNEL_ORDER:
        assert abs(table.value(kernel, "dynamic")) < 3.0, kernel
