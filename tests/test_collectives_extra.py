"""Additional collective coverage: larger worlds, payload-free byte moves,
op ordering, stress under tiny pre-post with the RDMA channel."""

import pytest

from repro.cluster import TestbedConfig, run_job
from tests.mpi_helpers import runN


def test_sixteen_rank_allreduce():
    def prog(mpi):
        total = yield from mpi.allreduce(size=8, value=mpi.rank,
                                         op=lambda a, b: a + b)
        return total

    r = run_job(prog, 16, "static", prepost=10, config=TestbedConfig(nodes=8))
    assert r.rank_results == [120] * 16


def test_payload_free_collectives_move_bytes_only():
    """NAS-proxy style: no payloads, just byte accounting."""

    def prog(mpi):
        yield from mpi.allreduce(size=4096)
        yield from mpi.alltoall(size_per_peer=8192)
        yield from mpi.bcast(root=0, size=1 << 16)
        return mpi.bytes_sent

    r = runN(prog, 8)
    assert all(v > 0 for v in r.rank_results)


def test_reduce_noncommutative_op_deterministic():
    """The combine tree is fixed, so even a non-commutative op yields the
    same (deterministic) result on every run."""

    def prog(mpi):
        combined = yield from mpi.reduce(root=0, size=8, value=str(mpi.rank),
                                         op=lambda a, b: f"({a}+{b})")
        return combined

    a = runN(prog, 4)
    b = runN(prog, 4)
    assert a.rank_results[0] == b.rank_results[0]
    # every rank's contribution appears exactly once
    for d in "0123":
        assert a.rank_results[0].count(d) == 1


def test_bcast_large_payload_rendezvous():
    def prog(mpi):
        data = "x" * 10 if mpi.rank == 2 else None
        got = yield from mpi.bcast(root=2, size=1 << 20, payload=data)
        return got

    r = runN(prog, 8)
    assert all(v == "x" * 10 for v in r.rank_results)


def test_alltoall_self_block_preserved():
    def prog(mpi):
        out = [f"{mpi.rank}:{d}" for d in range(mpi.world_size)]
        result = yield from mpi.alltoall(size_per_peer=64, payloads=out)
        assert result[mpi.rank] == f"{mpi.rank}:{mpi.rank}"
        return True

    r = runN(prog, 4)
    assert all(r.rank_results)


def test_back_to_back_barriers():
    def prog(mpi):
        for _ in range(10):
            yield from mpi.barrier()
        return mpi.now

    runN(prog, 8, prepost=2)


@pytest.mark.parametrize("scheme", ["hardware", "static", "dynamic"])
def test_alltoallv_skewed_sizes_under_pressure(scheme):
    """Heavily skewed alltoallv (rank 0 ships megabytes, others bytes) with
    prepost=1 must complete under every scheme."""

    def prog(mpi):
        P = mpi.world_size
        base = (1 << 20) if mpi.rank == 0 else 16
        sizes = [base] * P
        recv_sizes = [(1 << 20) if s == 0 else 16 for s in range(P)]
        result = yield from mpi.alltoallv(sizes, payloads=[mpi.rank] * P,
                                          recv_sizes=recv_sizes)
        assert [result[s] for s in range(P) if s != mpi.rank] == [
            s for s in range(P) if s != mpi.rank
        ]

    runN(prog, 4, scheme=scheme, prepost=1)


def test_collectives_over_rdma_channel_large_world():
    def prog(mpi):
        gathered = yield from mpi.allgather(size=256, value=mpi.rank ** 2)
        return gathered

    r = run_job(prog, 8, "rdma-eager", prepost=1, config=TestbedConfig(nodes=8))
    assert all(v == [i ** 2 for i in range(8)] for v in r.rank_results)
