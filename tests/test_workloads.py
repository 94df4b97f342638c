"""Tests for the workload programs: micro-benchmarks and NAS proxies."""

import pytest

from repro.cluster import TestbedConfig, run_job
from repro.sim.units import to_us
from repro.workloads import bandwidth_program, latency_program
from repro.workloads.nas import KERNEL_ORDER, KERNELS
from repro.workloads.nas.common import ComputeModel, coords_2d, grid_2d, rank_2d


# ----------------------------------------------------------------------
# micro-benchmarks
# ----------------------------------------------------------------------
def test_latency_program_returns_plausible_one_way():
    cfg = TestbedConfig(nodes=2)
    r = run_job(latency_program(4, iterations=30), 2, "static", prepost=50, config=cfg)
    assert 6.0 < to_us(int(r.rank_results[0])) < 9.0
    assert r.rank_results[1] is None


def test_latency_increases_with_size():
    cfg = TestbedConfig(nodes=2)
    small = run_job(latency_program(4, iterations=20), 2, "static", 50, config=cfg)
    big = run_job(latency_program(16384, iterations=20), 2, "static", 50, config=cfg)
    assert big.rank_results[0] > small.rank_results[0] * 2


@pytest.mark.parametrize("blocking", [True, False])
def test_bandwidth_program_moves_expected_bytes(blocking):
    cfg = TestbedConfig(nodes=2)
    r = run_job(
        bandwidth_program(1024, window=8, repetitions=5, blocking=blocking),
        2, "static", prepost=50, config=cfg,
    )
    res = r.rank_results[0]
    assert res.bytes_moved == 1024 * 8 * 5
    assert res.mbps > 0


def test_nonblocking_bandwidth_beats_blocking_for_large_messages():
    cfg = TestbedConfig(nodes=2)
    bl = run_job(bandwidth_program(32768, 16, 5, blocking=True), 2, "static", 50, config=cfg)
    nb = run_job(bandwidth_program(32768, 16, 5, blocking=False), 2, "static", 50, config=cfg)
    assert nb.rank_results[0].mbps > bl.rank_results[0].mbps


# ----------------------------------------------------------------------
# NAS proxy structure
# ----------------------------------------------------------------------
@pytest.mark.parametrize("build, name", [
    (lambda n: latency_program(4, iterations=n), "iterations"),
    (lambda n: bandwidth_program(4, window=8, repetitions=n), "repetitions"),
    (lambda n: bandwidth_program(4, window=n, repetitions=3), "window"),
])
@pytest.mark.parametrize("count", [0, -3, 2.5, None])
def test_a_count_nothing_can_be_averaged_over_is_refused_by_name(build, name, count):
    # at the factory, before any cluster exists: it was a TypeError from
    # inside rank 0's generator (t0 never set), or 0.000 MB/s for window=0
    with pytest.raises(ValueError, match=f"{name} must be a positive integer, got {count!r}"):
        build(count)


def test_grid_helpers():
    assert grid_2d(8) == (4, 2)
    assert grid_2d(16) == (4, 4)
    assert grid_2d(4) == (2, 2)
    assert grid_2d(2) == (2, 1)
    cols, _ = grid_2d(8)
    assert coords_2d(5, cols) == (1, 1)
    assert rank_2d(1, 1, cols) == 5


def test_compute_model_deterministic_and_bounded():
    cm = ComputeModel(seed=1, amplitude=0.05)
    f0 = cm.factor(0)
    assert cm.factor(0) == f0  # rank-stable
    for rank in range(16):
        assert 0.95 <= cm.factor(rank) <= 1.05
    assert cm.ns(0, 1000) == cm.ns(0, 1000)
    assert cm.ns(3, 0) >= 1


def test_compute_model_varies_across_ranks():
    cm = ComputeModel()
    factors = {cm.factor(r) for r in range(16)}
    assert len(factors) > 8  # jitter actually differentiates ranks


@pytest.mark.parametrize("name", KERNEL_ORDER)
def test_every_kernel_runs_and_terminates(name):
    """Smoke: every proxy completes on its canonical rank count with a
    reduced iteration budget, under the static scheme."""
    k = KERNELS[name]
    kwargs = {}
    if name in ("lu", "bt", "sp"):
        kwargs["timesteps"] = 2
    elif name == "cg":
        kwargs["outer"] = 1
    else:
        kwargs["iterations"] = 1
    r = run_job(k.build(**kwargs), k.nranks, "static", prepost=10)
    assert r.elapsed_ns > 0
    assert all(res is not None for res in r.rank_results)
    assert r.fc.total_msgs > 0


@pytest.mark.parametrize("on_demand", [False, True], ids=["mesh", "on-demand"])
@pytest.mark.parametrize("scheme", ["hardware", "static", "dynamic", "rdma-eager"])
def test_lu_completes_with_two_ranks_an_adapter(scheme, on_demand):
    """Ranks r and r + 4 share an adapter, so their pair takes the
    loopback path, where an RDMA write and the small SEND behind it on one
    QP once arrived out of order and every rank deadlocked."""
    r = run_job(KERNELS["lu"].build(timesteps=2), 8, scheme, prepost=4,
                config=TestbedConfig(nodes=4), on_demand=on_demand)
    assert r.completed and all(res is not None for res in r.rank_results)


def test_bt_sp_require_square_rank_counts():
    for name in ("bt", "sp"):
        with pytest.raises(ValueError, match=f"{name.upper()} needs a square rank count, got 8"):
            run_job(KERNELS[name].build(timesteps=1), 8, "static", prepost=10)


@pytest.mark.parametrize("name, elapsed_ns, events", [
    ("bt", 99_942_327, 17_039), ("sp", 32_819_868, 17_047)])
def test_bt_and_sp_keep_their_shapes_on_the_adi_skeleton(name, elapsed_ns, events):
    """One ADI program, two rows of constants: a timestep of each runs
    exactly as the two separate programs it replaced did."""
    r = run_job(KERNELS[name].build(timesteps=1), 16, "static", prepost=10)
    assert (r.elapsed_ns, r.endpoints[0].sim.events_executed) == (elapsed_ns, events)
    assert r.rank_results == [1] * 16


def test_lu_is_eager_dominated_and_ft_rendezvous_dominated():
    lu = run_job(KERNELS["lu"].build(timesteps=2), 8, "static", prepost=100)
    ft = run_job(KERNELS["ft"].build(iterations=1), 8, "static", prepost=100)
    # LU: thousands of small messages; FT: few large rendezvous transfers
    # moving far more bytes.
    assert lu.fc.total_msgs > ft.fc.total_msgs
    lu_bytes = sum(ep.bytes_sent for ep in lu.endpoints)
    ft_bytes = sum(ep.bytes_sent for ep in ft.endpoints)
    assert ft_bytes > lu_bytes


def test_kernels_deterministic():
    a = run_job(KERNELS["mg"].build(iterations=1), 8, "dynamic", prepost=2)
    b = run_job(KERNELS["mg"].build(iterations=1), 8, "dynamic", prepost=2)
    assert a.elapsed_ns == b.elapsed_ns
    assert a.fc.total_msgs == b.fc.total_msgs


def test_compute_scale_scales_runtime():
    fast = run_job(KERNELS["is"].build(iterations=1, compute_scale=0.5), 8, "static", 10)
    slow = run_job(KERNELS["is"].build(iterations=1, compute_scale=2.0), 8, "static", 10)
    assert slow.elapsed_ns > 1.5 * fast.elapsed_ns
