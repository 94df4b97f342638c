"""Figure 4 — bandwidth, 4-byte messages, pre-post = 100, non-blocking.

Paper finding: with enough buffers all three schemes perform comparably;
non-blocking pipelines better than blocking at large windows.
"""

from repro.campaign.grids import BW_WINDOWS

from benchmarks.conftest import SCHEMES, grid_figure, run_once, save_result


def test_fig4(benchmark):
    fig = run_once(benchmark, lambda: grid_figure(
        "fig4", "Figure 4: BW 4B msgs, pre-post=100, non-blocking"))
    save_result("fig4_bw_pp100_nonblocking", fig.render(fmt="{:>12.3f}"))

    hw, st, dy = (fig.series_named(s) for s in SCHEMES)
    for w in BW_WINDOWS:
        base = hw.y_at(w)
        assert abs(st.y_at(w) - base) / base < 0.06
        assert abs(dy.y_at(w) - base) / base < 0.06
    # Bandwidth grows with window (pipelining).
    assert hw.y_at(100) > hw.y_at(1) * 2
