"""Figure 9 — NAS benchmark runtimes with pre-post = 100.

Paper finding: with ample buffers the three schemes perform comparably for
almost all applications (2-3 % spread).  The exception is LU, where the
user-level schemes pay for their explicit credit messages (18 % of all LU
messages) and the hardware-based scheme wins by ~5-6 %.
"""

from repro.analysis import Table, scheme_table
from repro.campaign import grids
from repro.workloads.nas import KERNEL_ORDER

from benchmarks.conftest import run_grid, run_once, save_result


def run_table() -> Table:
    return scheme_table(run_grid(grids.nas_grid(preposts=[100])),
                        "Figure 9: NAS runtimes (ms), pre-post=100")


def test_fig9(benchmark):
    table = run_once(benchmark, run_table)
    save_result("fig9_nas_pp100", table.render())

    for kernel in KERNEL_ORDER:
        hw = table.value(kernel, "hardware")
        st = table.value(kernel, "static")
        dy = table.value(kernel, "dynamic")
        # Schemes comparable: within ~4 % of one another everywhere.
        assert abs(st - hw) / hw < 0.04, kernel
        assert abs(dy - hw) / hw < 0.04, kernel

    # The LU exception: hardware is strictly the fastest (ECM overhead in
    # the user-level schemes).
    assert table.value("lu", "hardware") < table.value("lu", "static")
    assert table.value("lu", "hardware") < table.value("lu", "dynamic")
