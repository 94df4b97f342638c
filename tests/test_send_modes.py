"""Tests for the four MPI communication modes (paper §3.1)."""

import pytest

from repro.core import EXTENDED_SCHEME_NAMES
from repro.mpi import MPIError
from tests.mpi_helpers import run2


def test_ssend_completes_only_after_match():
    """Synchronous send must not complete before the receiver posts the
    matching receive — even for a tiny payload."""

    recv_posted_at = {}

    def prog(mpi):
        if mpi.rank == 0:
            req = yield from mpi.isend(1, size=8, tag=1, payload="sync",
                                       mode="sync")
            yield from mpi.wait(req)
            return mpi.now  # completion time
        else:
            yield from mpi.compute(300_000)  # receiver is late
            recv_posted_at["t"] = mpi.now
            st = yield from mpi.recv(source=0, capacity=64, tag=1)
            assert st.payload == "sync"
            return None

    r = run2(prog)
    assert r.rank_results[0] > recv_posted_at["t"], (
        "ssend completed before the matching receive was posted"
    )


def test_standard_small_send_completes_before_match():
    """Contrast: a standard eager send completes locally long before the
    late receiver matches it (buffered semantics)."""

    recv_posted_at = {}

    def prog(mpi):
        if mpi.rank == 0:
            req = yield from mpi.isend(1, size=8, tag=1, payload="eager")
            yield from mpi.wait(req)
            return mpi.now
        else:
            yield from mpi.compute(300_000)
            recv_posted_at["t"] = mpi.now
            yield from mpi.recv(source=0, capacity=64, tag=1)
            return None

    r = run2(prog)
    assert r.rank_results[0] < recv_posted_at["t"]


def test_ssend_large_message():
    def prog(mpi):
        if mpi.rank == 0:
            yield from mpi.ssend(1, size=200_000, payload="big-sync", buffer_id="b")
        else:
            st = yield from mpi.recv(source=0, capacity=200_000, buffer_id="r")
            assert st.payload == "big-sync"

    run2(prog)


def test_ssend_small_message_pays_no_pin():
    def prog(mpi):
        if mpi.rank == 0:
            yield from mpi.ssend(1, size=8, payload="x")
        else:
            yield from mpi.recv(source=0, capacity=64)

    r = run2(prog)
    # small sync sends bounce — no registrations beyond the fixed setup
    assert r.endpoints[0].pindown.misses == 0


@pytest.mark.parametrize("scheme", EXTENDED_SCHEME_NAMES)
@pytest.mark.parametrize("n", [80, 200])
def test_more_sync_sends_in_flight_than_bounce_slots_keep_their_payloads(scheme, n):
    """Every small synchronous send lands in a bounce slot, busy from its
    CTS to its FIN (DESIGN §5.4).  With more landings in flight than the
    64 slots, the receiver pins the user buffer for the rest — no slot is
    reused while a transfer still lands in it (200 outstanding ``issend``s
    once completed 104 receives with another message's payload)."""

    def prog(mpi):
        reqs = []
        for i in range(n):
            if mpi.rank == 0:
                req = yield from mpi.issend(1, size=8, tag=i, payload=("msg", i))
            else:
                req = yield from mpi.irecv(source=0, capacity=8, tag=i)
            reqs.append(req)
        statuses = yield from mpi.waitall(reqs)
        return [st.payload for st in statuses]

    r = run2(prog, scheme, 100)
    assert r.rank_results[1] == [("msg", i) for i in range(n)]
    pinned = r.endpoints[1].pindown.misses
    assert (pinned > 0) == (n > 64)  # overflow landings pinned, the rest bounced


def test_rsend_with_posted_receive_succeeds():
    def prog(mpi):
        if mpi.rank == 1:
            req = yield from mpi.irecv(source=0, capacity=64, tag=2)
            yield from mpi.compute(50_000)
            st = yield from mpi.wait(req)
            assert st.payload == "ready"
        else:
            yield from mpi.compute(100_000)  # recv guaranteed posted by now
            yield from mpi.rsend(1, size=8, tag=2, payload="ready")

    run2(prog)


def test_rsend_without_posted_receive_errors():
    """A ready-mode message processed with no matching receive posted is a
    detected usage error (checked when the receiver's progress engine
    handles the arrival)."""

    def prog(mpi):
        if mpi.rank == 0:
            yield from mpi.rsend(1, size=8, tag=2, payload="too-eager")
        else:
            yield from mpi.compute(200_000)
            # Enter the progress engine without ever posting the receive:
            # the ready message is discovered unexpected -> error.
            yield from mpi.iprobe(source=0, tag=99)

    with pytest.raises(MPIError, match="ready-mode"):
        run2(prog, finalize=False)


def test_buffered_mode_aliases_standard():
    def prog(mpi):
        if mpi.rank == 0:
            req = yield from mpi.isend(1, size=8, payload="b", mode="buffered")
            yield from mpi.wait(req)
        else:
            st = yield from mpi.recv(source=0, capacity=64)
            assert st.payload == "b"

    run2(prog)


def test_unknown_mode_rejected():
    def prog(mpi):
        if mpi.rank == 0:
            yield from mpi.isend(1, size=8, mode="psychic")
        else:
            yield from mpi.recv(source=0, capacity=64)

    with pytest.raises(MPIError, match="unknown send mode"):
        run2(prog, finalize=False)


def test_issend_nonblocking_variant():
    def prog(mpi):
        if mpi.rank == 0:
            req = yield from mpi.issend(1, size=8, payload="is")
            assert not req.done  # receiver hasn't matched yet
            yield from mpi.wait(req)
        else:
            yield from mpi.compute(50_000)
            st = yield from mpi.recv(source=0, capacity=64)
            assert st.payload == "is"

    run2(prog)
