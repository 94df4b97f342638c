"""Table 2 — maximum number of posted buffers per connection under the
user-level dynamic scheme (starting from one buffer).

Paper values: IS 4, FT 4, LU 63, CG 3, MG 6, BT 7, SP 7.  The shape we
assert: every kernel except LU settles in the single digits, while LU — the
wavefront pipeline — needs roughly a sweep's worth (an order of magnitude
more).  Our doubling growth lands LU at 64 (= the paper's 63 + 1, both
bearing the 2^k doubling signature).
"""

from repro.analysis import Table
from repro.campaign import grids

from benchmarks.conftest import run_grid, run_once, save_result

PAPER_VALUES = {"is": 4, "ft": 4, "lu": 63, "cg": 3, "mg": 6, "bt": 7, "sp": 7}


def run_table() -> Table:
    table = Table(
        "Table 2: Max posted buffers, user-level dynamic (start=1)",
        ["max_buffers", "paper"],
    )
    for out in run_grid(grids.nas_grid(schemes=["dynamic"], preposts=[1])).outcomes:
        kernel = out.spec.params["kernel"]
        table.add_row(kernel, out.metrics["fc"]["max_posted_buffers"],
                      PAPER_VALUES[kernel])
    return table


def test_tab2(benchmark):
    table = run_once(benchmark, run_table)
    save_result("tab2_max_buffers", table.render())

    # LU needs an order of magnitude more buffers than everything else.
    lu = table.value("lu", "max_buffers")
    assert 32 <= lu <= 128
    for kernel in ("is", "ft", "cg", "mg", "bt", "sp"):
        other = table.value(kernel, "max_buffers")
        assert other <= 8, kernel
        assert lu >= 8 * other or other <= 4, kernel
