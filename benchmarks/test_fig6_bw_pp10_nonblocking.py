"""Figure 6 — bandwidth, 4-byte messages, pre-post = 10, non-blocking.

Paper finding: same ordering as Figure 5 (dynamic adapts, static worst),
and — the subtle one — *the blocking version beats the non-blocking one
for the user-level static scheme*: a blocking sender paces itself and
picks up piggybacked credits through the rendezvous-fallback handshake,
while a non-blocking sender dumps the whole window into the backlog.
"""

from benchmarks.conftest import SCHEMES, grid_figure, save_result


def run_both():
    nb = grid_figure("fig6", "Figure 6: BW 4B msgs, pre-post=10, non-blocking")
    bl = grid_figure("fig5", "(companion) blocking static for the Fig 5/6 comparison")
    return nb, bl


def test_fig6(benchmark):
    nb, bl = benchmark.pedantic(run_both, rounds=1, iterations=1)
    save_result("fig6_bw_pp10_nonblocking", nb.render(fmt="{:>12.3f}"))

    hw, st, dy = (nb.series_named(s) for s in SCHEMES)
    for w in (16, 32, 64, 100):
        assert st.y_at(w) < 0.85 * dy.y_at(w)
        assert dy.y_at(w) > 0.85 * hw.y_at(w)

    # Blocking beats non-blocking for the credit-starved static scheme.
    st_blocking = bl.series_named("static")
    for w in (16, 64, 100):
        assert st_blocking.y_at(w) > st.y_at(w), (
            f"blocking static should beat non-blocking at window {w}"
        )
