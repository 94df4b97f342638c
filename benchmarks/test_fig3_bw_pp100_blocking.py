"""Figure 3 — bandwidth, 4-byte messages, pre-post = 100, blocking.

Paper finding: with plenty of buffers (window never exceeds the pre-post
depth) all three schemes perform comparably at every window size.
"""

from repro.campaign.grids import BW_WINDOWS

from benchmarks.conftest import SCHEMES, grid_figure, run_once, save_result


def test_fig3(benchmark):
    fig = run_once(benchmark, lambda: grid_figure(
        "fig3", "Figure 3: BW 4B msgs, pre-post=100, blocking"))
    save_result("fig3_bw_pp100_blocking", fig.render(fmt="{:>12.3f}"))

    hw, st, dy = (fig.series_named(s) for s in SCHEMES)
    for w in BW_WINDOWS:
        base = hw.y_at(w)
        assert abs(st.y_at(w) - base) / base < 0.06, f"static differs at window {w}"
        assert abs(dy.y_at(w) - base) / base < 0.06, f"dynamic differs at window {w}"
