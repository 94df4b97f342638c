"""Figure 2 — MPI latency vs message size for all three schemes.

Paper finding: the flow-control bookkeeping overhead is negligible — all
three schemes have essentially identical latency (~7.5 µs small-message
for the send/recv-based implementation), rising with size.
"""

from repro.campaign.grids import LATENCY_SIZES

from benchmarks.conftest import SCHEMES, grid_figure, run_once, save_result


def test_fig2_latency(benchmark):
    fig = run_once(benchmark, lambda: grid_figure("fig2", "Figure 2: MPI latency"))
    save_result("fig2_latency", fig.render())

    hw, st, dy = (fig.series_named(s) for s in SCHEMES)

    # Small-message latency lands in the paper's regime (~7-8 us).
    assert 6.5 < hw.y_at(4) < 9.0

    # All three schemes within a few percent of each other at every size.
    for size in LATENCY_SIZES:
        base = hw.y_at(size)
        assert abs(st.y_at(size) - base) / base < 0.05
        assert abs(dy.y_at(size) - base) / base < 0.05

    # Latency grows monotonically with size.
    assert hw.ys == sorted(hw.ys)
