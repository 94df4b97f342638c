"""Point-to-point semantics tests: blocking/non-blocking, matching,
wildcards, ordering, eager vs rendezvous, truncation."""

import inspect

import pytest

from repro.cluster import TestbedConfig, run_job
from repro.mpi import ANY_SOURCE, ANY_TAG, MPIError, TruncationError
from tests.mpi_helpers import run2, runN


def test_blocking_send_recv_payload():
    def prog(mpi):
        if mpi.rank == 0:
            yield from mpi.send(1, size=16, tag=3, payload=b"sixteen bytes!!!")
        else:
            st = yield from mpi.recv(source=0, capacity=64, tag=3)
            assert st.payload == b"sixteen bytes!!!"
            assert st.source == 0 and st.tag == 3 and st.size == 16
        return "ok"

    r = run2(prog)
    assert r.rank_results == ["ok", "ok"]


def test_isend_irecv_wait():
    def prog(mpi):
        if mpi.rank == 0:
            req = yield from mpi.isend(1, size=8, tag=1, payload="async")
            yield from mpi.wait(req)
        else:
            req = yield from mpi.irecv(source=0, capacity=64, tag=1)
            st = yield from mpi.wait(req)
            assert st.payload == "async"

    run2(prog)


def test_pre_posted_receive_matches_later_send():
    def prog(mpi):
        if mpi.rank == 1:
            req = yield from mpi.irecv(source=0, capacity=64, tag=9)
            yield from mpi.compute(50_000)  # recv posted well before send
            st = yield from mpi.wait(req)
            assert st.payload == "late send"
        else:
            yield from mpi.compute(100_000)
            yield from mpi.send(1, size=9, tag=9, payload="late send")

    run2(prog)


def test_unexpected_message_matched_by_later_recv():
    def prog(mpi):
        if mpi.rank == 0:
            yield from mpi.send(1, size=5, tag=4, payload="early")
        else:
            yield from mpi.compute(200_000)  # message arrives unexpected
            st = yield from mpi.recv(source=0, capacity=64, tag=4)
            assert st.payload == "early"

    run2(prog)


def test_any_source_wildcard():
    def prog(mpi):
        if mpi.rank == 2:
            seen = set()
            for _ in range(2):
                st = yield from mpi.recv(source=ANY_SOURCE, capacity=64, tag=5)
                seen.add(st.source)
            assert seen == {0, 1}
        else:
            yield from mpi.send(2, size=4, tag=5, payload=mpi.rank)

    runN(prog, 3)


def test_any_tag_wildcard():
    def prog(mpi):
        if mpi.rank == 0:
            yield from mpi.send(1, size=4, tag=77, payload="x")
        else:
            st = yield from mpi.recv(source=0, capacity=64, tag=ANY_TAG)
            assert st.tag == 77

    run2(prog)


def test_tag_selectivity():
    """A recv for tag B must not match an earlier tag-A message."""

    def prog(mpi):
        if mpi.rank == 0:
            yield from mpi.send(1, size=4, tag=1, payload="A")
            yield from mpi.send(1, size=4, tag=2, payload="B")
        else:
            st_b = yield from mpi.recv(source=0, capacity=64, tag=2)
            st_a = yield from mpi.recv(source=0, capacity=64, tag=1)
            assert st_b.payload == "B"
            assert st_a.payload == "A"

    run2(prog)


def test_non_overtaking_same_envelope():
    """Messages with identical envelopes arrive in send order."""

    def prog(mpi):
        n = 50
        if mpi.rank == 0:
            for i in range(n):
                yield from mpi.send(1, size=4, tag=6, payload=i)
        else:
            got = []
            for _ in range(n):
                st = yield from mpi.recv(source=0, capacity=64, tag=6)
                got.append(st.payload)
            assert got == list(range(n))

    run2(prog, prepost=4)  # small prepost: exercises backlog / flow control


def test_large_message_uses_rendezvous_and_delivers():
    size = 1 << 20

    def prog(mpi):
        if mpi.rank == 0:
            yield from mpi.send(1, size=size, payload="big-data", buffer_id="sbuf")
        else:
            st = yield from mpi.recv(source=0, capacity=size, buffer_id="rbuf")
            assert st.payload == "big-data"
            assert st.size == size

    r = run2(prog)
    # rendezvous control messages: RTS, CTS, FIN (+ barrier traffic)
    assert r.fc.data_msgs >= 1


def test_rendezvous_pinning_is_cached():
    """Second transfer from the same buffer must not re-register."""
    size = 1 << 20

    def prog(mpi):
        for _ in range(5):
            if mpi.rank == 0:
                yield from mpi.send(1, size=size, buffer_id="stable-s")
            else:
                yield from mpi.recv(source=0, capacity=size, buffer_id="stable-r")

    r = run2(prog)
    sender = r.endpoints[0]
    receiver = r.endpoints[1]
    assert sender.pindown.misses == 1
    assert sender.pindown.hits == 4
    assert receiver.pindown.misses == 1
    assert receiver.pindown.hits == 4


def test_mixed_eager_and_rendezvous_ordering():
    def prog(mpi):
        if mpi.rank == 0:
            yield from mpi.send(1, size=8, tag=1, payload="small-1")
            yield from mpi.send(1, size=100_000, tag=1, payload="big", buffer_id="b")
            yield from mpi.send(1, size=8, tag=1, payload="small-2")
        else:
            a = yield from mpi.recv(source=0, capacity=200_000, tag=1)
            b = yield from mpi.recv(source=0, capacity=200_000, tag=1, buffer_id="r")
            c = yield from mpi.recv(source=0, capacity=200_000, tag=1)
            assert (a.payload, b.payload, c.payload) == ("small-1", "big", "small-2")

    run2(prog)


def test_truncation_raises():
    def prog(mpi):
        if mpi.rank == 0:
            yield from mpi.send(1, size=1000, payload="x")
        else:
            yield from mpi.recv(source=0, capacity=10)

    with pytest.raises(TruncationError):
        run2(prog)


def test_send_to_self_rejected():
    def prog(mpi):
        yield from mpi.send(mpi.rank, size=4)

    with pytest.raises(MPIError):
        run2(prog, finalize=False)


def test_send_to_unknown_rank_rejected():
    def prog(mpi):
        yield from mpi.send(99, size=4)

    with pytest.raises(MPIError):
        run2(prog, finalize=False)


def test_negative_size_rejected():
    def prog(mpi):
        if mpi.rank == 0:
            yield from mpi.send(1, size=-5)
        else:
            yield from mpi.recv(source=0, capacity=64)

    with pytest.raises(MPIError):
        run2(prog, finalize=False)


def test_waitall_multiple_requests():
    def prog(mpi):
        if mpi.rank == 0:
            reqs = []
            for i in range(10):
                r = yield from mpi.isend(1, size=4, tag=i, payload=i)
                reqs.append(r)
            yield from mpi.waitall(reqs)
        else:
            reqs = []
            for i in range(10):
                r = yield from mpi.irecv(source=0, capacity=64, tag=i)
                reqs.append(r)
            statuses = yield from mpi.waitall(reqs)
            assert [s.payload for s in statuses] == list(range(10))

    run2(prog)


def test_test_and_iprobe():
    def prog(mpi):
        if mpi.rank == 0:
            yield from mpi.compute(100_000)
            yield from mpi.send(1, size=4, tag=42, payload="probe-me")
        else:
            st = yield from mpi.iprobe(source=0, tag=42)
            assert st is None  # nothing yet
            req = yield from mpi.irecv(source=0, capacity=64, tag=42)
            done, _ = yield from mpi.test(req)
            # eventually completes
            status = yield from mpi.wait(req)
            assert status.payload == "probe-me"

    run2(prog)


def test_exchange_both_directions_simultaneously():
    def prog(mpi):
        peer = 1 - mpi.rank
        rreq = yield from mpi.irecv(source=peer, capacity=64, tag=1)
        sreq = yield from mpi.isend(peer, size=4, tag=1, payload=f"from{mpi.rank}")
        statuses = yield from mpi.waitall([rreq, sreq])
        assert statuses[0].payload == f"from{peer}"

    run2(prog)


def test_many_ranks_ring():
    def prog(mpi):
        nxt = (mpi.rank + 1) % mpi.world_size
        prv = (mpi.rank - 1) % mpi.world_size
        rreq = yield from mpi.irecv(source=prv, capacity=64, tag=0)
        yield from mpi.send(nxt, size=4, tag=0, payload=mpi.rank)
        st = yield from mpi.wait(rreq)
        assert st.payload == prv

    runN(prog, 8)


def test_zero_byte_message():
    def prog(mpi):
        if mpi.rank == 0:
            yield from mpi.send(1, size=0, tag=1)
        else:
            st = yield from mpi.recv(source=0, capacity=0, tag=1)
            assert st.size == 0

    run2(prog)


def test_eager_threshold_boundary():
    """Payloads exactly at and one over the eager max both deliver."""
    cfg = TestbedConfig(nodes=2)
    emax = cfg.mpi.eager_max()

    def prog(mpi):
        if mpi.rank == 0:
            yield from mpi.send(1, size=emax, tag=1, payload="at")
            yield from mpi.send(1, size=emax + 1, tag=1, payload="over", buffer_id="b")
        else:
            a = yield from mpi.recv(source=0, capacity=emax + 10, tag=1)
            b = yield from mpi.recv(source=0, capacity=emax + 10, tag=1, buffer_id="r")
            assert a.payload == "at" and b.payload == "over"

    run2(prog, config=cfg)


def test_msg_kind_keeps_its_enum_face_with_a_c_speed_hash():
    import pickle

    from repro.mpi.endpoint import Endpoint
    from repro.mpi.protocol import UNEXPECTED_KINDS, MsgKind

    assert MsgKind.EAGER.value == "eager" and MsgKind("rndv_rts") is MsgKind.RNDV_RTS
    assert repr(MsgKind.EAGER) == "<MsgKind.EAGER: 'eager'>"
    assert MsgKind.EAGER != "eager"  # still a plain Enum, not a str
    assert MsgKind.EAGER in UNEXPECTED_KINDS and MsgKind.RNDV_RTS in UNEXPECTED_KINDS
    assert MsgKind.CREDIT not in UNEXPECTED_KINDS
    assert [pickle.loads(pickle.dumps(k)) is k for k in MsgKind] == [True] * len(MsgKind)
    assert {hash(k) for k in MsgKind} == {object.__hash__(k) for k in MsgKind}
    deliver = inspect.getsource(Endpoint._deliver)
    assert all(f"MsgKind.{k.name}" in deliver for k in MsgKind)  # every kind dispatches
