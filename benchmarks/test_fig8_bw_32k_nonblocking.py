"""Figure 8 — bandwidth, 32 KB messages, pre-post = 10, non-blocking.

Paper finding: all three schemes perform well (rendezvous self-paces), and
the non-blocking version clearly beats the blocking one thanks to
communication overlap.
"""

from repro.campaign.grids import BW_WINDOWS

from benchmarks.conftest import SCHEMES, grid_figure, save_result


def run_both():
    nb = grid_figure("fig8", "Figure 8: BW 32K msgs, pre-post=10, non-blocking")
    bl = grid_figure("fig7", "(companion) blocking for the Fig 7/8 comparison",
                     windows=[16, 64, 100])
    return nb, bl


def test_fig8(benchmark):
    nb, bl = benchmark.pedantic(run_both, rounds=1, iterations=1)
    save_result("fig8_bw_32k_nonblocking", nb.render(fmt="{:>12.1f}"))

    hw, st, dy = (nb.series_named(s) for s in SCHEMES)
    for w in BW_WINDOWS:
        base = hw.y_at(w)
        assert abs(st.y_at(w) - base) / base < 0.12
        assert abs(dy.y_at(w) - base) / base < 0.12

    # Non-blocking overlap wins clearly over blocking at large windows.
    for w in (16, 64, 100):
        assert nb.series_named("dynamic").y_at(w) > 1.2 * bl.series_named("dynamic").y_at(w)
