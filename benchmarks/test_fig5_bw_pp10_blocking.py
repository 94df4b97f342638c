"""Figure 5 — bandwidth, 4-byte messages, pre-post = 10, blocking.

Paper finding: once the window exceeds the pre-post depth, the user-level
dynamic scheme adapts and stays fast while the static scheme — stalling on
credits — performs the worst.  The hardware scheme rides the attentive
receiver unharmed.
"""

from benchmarks.conftest import SCHEMES, grid_figure, run_once, save_result


def test_fig5(benchmark):
    fig = run_once(benchmark, lambda: grid_figure(
        "fig5", "Figure 5: BW 4B msgs, pre-post=10, blocking"))
    save_result("fig5_bw_pp10_blocking", fig.render(fmt="{:>12.3f}"))

    hw, st, dy = (fig.series_named(s) for s in SCHEMES)

    # Below the pre-post depth: all equal.
    for w in (1, 2, 4, 8):
        assert abs(st.y_at(w) - hw.y_at(w)) / hw.y_at(w) < 0.05
        assert abs(dy.y_at(w) - hw.y_at(w)) / hw.y_at(w) < 0.05

    # Beyond it: static is clearly the worst; dynamic adapts to within
    # ~10 % of the unthrottled hardware scheme.
    for w in (16, 32, 64, 100):
        assert st.y_at(w) < 0.85 * dy.y_at(w), f"static should trail at window {w}"
        assert dy.y_at(w) > 0.85 * hw.y_at(w), f"dynamic should adapt at window {w}"
