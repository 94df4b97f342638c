"""Figure 7 — bandwidth, 32 KB messages, pre-post = 10, blocking.

Paper finding: large messages always travel by rendezvous, whose handshake
makes the pattern symmetric — all three schemes perform well even with few
pre-posted buffers.
"""

from repro.campaign.grids import BW_WINDOWS

from benchmarks.conftest import SCHEMES, grid_figure, run_once, save_result


def test_fig7(benchmark):
    fig = run_once(benchmark, lambda: grid_figure(
        "fig7", "Figure 7: BW 32K msgs, pre-post=10, blocking"))
    save_result("fig7_bw_32k_blocking", fig.render(fmt="{:>12.1f}"))

    hw, st, dy = (fig.series_named(s) for s in SCHEMES)
    for w in BW_WINDOWS:
        base = hw.y_at(w)
        assert abs(st.y_at(w) - base) / base < 0.10
        assert abs(dy.y_at(w) - base) / base < 0.10
    # Rendezvous reaches hundreds of MB/s at this size.
    assert hw.y_at(100) > 400
