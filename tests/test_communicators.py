"""Tests for communicators: contexts, groups, dup, split."""

import pytest

from repro.mpi import MPIError
from repro.mpi.comm import Communicator, world
from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from tests.mpi_helpers import runN


def test_world_communicator_matches_endpoint():
    def prog(mpi):
        comm = world(mpi)
        assert comm.rank == mpi.rank
        assert comm.size == mpi.world_size
        total = yield from comm.allreduce(size=8, value=1, op=lambda a, b: a + b)
        return total

    r = runN(prog, 4)
    assert r.rank_results == [4] * 4


def test_context_isolation_same_tag():
    """Identical (source, tag) on two communicators must not cross-match."""

    def prog(mpi):
        comm_a = world(mpi)
        comm_b = yield from comm_a.dup()
        if mpi.rank == 0:
            yield from comm_b.send(1, size=4, tag=5, payload="on-B")
            yield from comm_a.send(1, size=4, tag=5, payload="on-A")
        else:
            # Receive A's message first even though B's arrived first.
            st_a = yield from comm_a.recv(source=0, capacity=64, tag=5)
            st_b = yield from comm_b.recv(source=0, capacity=64, tag=5)
            assert st_a.payload == "on-A"
            assert st_b.payload == "on-B"

    runN(prog, 2)


def test_split_even_odd_groups():
    def prog(mpi):
        comm = world(mpi)
        sub = yield from comm.split(color=mpi.rank % 2, key=mpi.rank)
        assert sub.size == 4
        assert sub.rank == mpi.rank // 2
        # sum of world ranks within my parity group
        total = yield from sub.allreduce(size=8, value=mpi.rank, op=lambda a, b: a + b)
        expected = sum(r for r in range(8) if r % 2 == mpi.rank % 2)
        assert total == expected
        return (sub.rank, total)

    runN(prog, 8)


def test_split_key_reorders_ranks():
    def prog(mpi):
        comm = world(mpi)
        # reverse ordering: highest world rank becomes local rank 0
        sub = yield from comm.split(color=0, key=-mpi.rank)
        assert sub.rank == (mpi.world_size - 1 - mpi.rank)
        gathered = yield from sub.allgather(size=8, value=mpi.rank)
        assert gathered == list(range(mpi.world_size - 1, -1, -1))

    runN(prog, 4)


def test_split_undefined_color_returns_none():
    def prog(mpi):
        comm = world(mpi)
        color = 0 if mpi.rank < 2 else -1
        sub = yield from comm.split(color=color)
        if mpi.rank < 2:
            assert sub is not None and sub.size == 2
            yield from sub.barrier()
        else:
            assert sub is None

    runN(prog, 4)


def test_point_to_point_rank_translation():
    def prog(mpi):
        comm = world(mpi)
        sub = yield from comm.split(color=mpi.rank % 2, key=mpi.rank)
        # local rank 0 <-> local rank 1 inside each parity group
        if sub.rank == 0:
            yield from sub.send(1, size=4, tag=1, payload=("from", mpi.rank))
        elif sub.rank == 1:
            st = yield from sub.recv(source=0, capacity=64, tag=1)
            assert st.source == 0  # group-local source rank
            assert st.payload == ("from", mpi.rank - 2)

    runN(prog, 4)


def test_interleaved_collectives_on_uneven_subgroups():
    """Split groups run different numbers of collectives, then the world
    communicator synchronises — the per-context tag sequences must not
    collide (the classic shared-counter bug)."""

    def prog(mpi):
        comm = world(mpi)
        sub = yield from comm.split(color=mpi.rank % 2, key=mpi.rank)
        rounds = 5 if mpi.rank % 2 == 0 else 2  # uneven collective counts
        for _ in range(rounds):
            yield from sub.barrier()
        total = yield from comm.allreduce(size=8, value=1, op=lambda a, b: a + b)
        assert total == mpi.world_size

    runN(prog, 4)


def test_nested_split():
    def prog(mpi):
        comm = world(mpi)
        half = yield from comm.split(color=mpi.rank // 4, key=mpi.rank)
        quarter = yield from half.split(color=half.rank // 2, key=half.rank)
        assert quarter.size == 2
        partner_world = yield from quarter.allgather(size=8, value=mpi.rank)
        # partners are world-adjacent ranks
        assert partner_world == sorted(partner_world)

    runN(prog, 8)


def test_group_validation():
    def prog(mpi):
        with pytest.raises(MPIError):
            Communicator(mpi, [1 - mpi.rank], context=7)  # not a member
        with pytest.raises(MPIError):
            Communicator(mpi, [mpi.rank, mpi.rank], context=7)  # dup ranks
        comm = world(mpi)
        with pytest.raises(MPIError):
            comm.world_rank(99)
        with pytest.raises(MPIError):
            comm.local_rank(99)
        yield from mpi.barrier()

    runN(prog, 2)


# ----------------------------------------------------------------------
# collective traffic never matches a point-to-point receive
# ----------------------------------------------------------------------
def _fan_in(comm):
    """Every other member sends rank 0 one tag-3 message and goes on to the
    next collective; rank 0 computes first, then takes the messages with
    ``ANY_SOURCE``/``ANY_TAG`` receives — by then the collective's own
    messages wait beside them."""
    if comm.rank == 0:
        yield from comm.compute(50_000)
        reqs = []
        for _ in range(comm.world_size - 1):
            req = yield from comm.irecv(ANY_SOURCE, capacity=64, tag=ANY_TAG)
            reqs.append(req)
        statuses = yield from comm.waitall(reqs)
        assert sorted((s.source, s.tag) for s in statuses) == [
            (src, 3) for src in range(1, comm.world_size)]
    else:
        yield from comm.send(0, size=4, tag=3)


@pytest.mark.parametrize("scheme", ["hardware", "static", "dynamic", "rdma-eager"])
def test_a_wildcard_receive_never_takes_the_finalize_barriers_messages(scheme):
    # under rdma-eager the finalize barrier's first messages reach rank 0
    # before its wildcard receives are posted
    runN(_fan_in, 6, scheme)


@pytest.mark.parametrize("derive", ["split", "dup"])
def test_a_derived_communicators_collectives_keep_out_of_its_receives(derive):
    def prog(mpi):
        comm = world(mpi)
        if derive == "split":
            comm = yield from comm.split(color=mpi.rank % 2, key=mpi.rank)
        else:
            comm = yield from comm.dup()
        yield from _fan_in(comm)
        yield from comm.barrier()

    runN(prog, 12)


@pytest.mark.parametrize("split", [False, True], ids=["world", "split"])
@pytest.mark.parametrize("root", ["-1", "P"])
@pytest.mark.parametrize("name", ["bcast", "reduce", "gather", "scatter"])
def test_a_rooted_collective_rejects_a_root_outside_the_group(name, root, split):
    """MPI_ERR_ROOT before anything is sent: ``bcast(root=9)`` on 8 ranks
    once returned rank 1's payload everywhere, ``reduce(root=-1)`` on 4
    delivered the result to rank 3."""

    def prog(mpi):
        comm = world(mpi)
        if split:
            comm = yield from comm.split(color=mpi.rank % 2, key=mpi.rank)
        sent = mpi.bytes_sent
        with pytest.raises(MPIError, match="MPI_ERR_ROOT"):
            yield from getattr(comm, name)(-1 if root == "-1" else comm.size, 8)
        assert mpi.bytes_sent == sent
        # the group is intact: no collective sequence number was spent
        total = yield from comm.allreduce(size=8, value=1, op=lambda a, b: a + b)
        return total

    r = runN(prog, 8)
    assert r.rank_results == [4 if split else 8] * 8
