"""Property-based tests of the matching engine against a reference model.

The reference is a direct transcription of the MPI matching rules: posted
receives match in post order, arrivals scan posted receives first and park
unexpected otherwise, wildcards honour any-source / any-tag.
"""

from hypothesis import given, settings, strategies as st

from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.matching import MatchingEngine, PostedRecv
from repro.mpi.protocol import Header, MsgKind
from repro.mpi.request import Request


class ReferenceModel:
    """Straight-line implementation of the matching rules."""

    def __init__(self):
        self.posted = []  # (source, tag, context, key)
        self.unexpected = []  # (src, tag, context, key)

    @staticmethod
    def _match(recv, msg):
        rsource, rtag, rctx, _ = recv
        src, tag, ctx, _ = msg
        if rctx != ctx:
            return False
        if rsource != ANY_SOURCE and rsource != src:
            return False
        if rtag != ANY_TAG and rtag != tag:
            return False
        return True

    def post(self, recv):
        for i, msg in enumerate(self.unexpected):
            if self._match(recv, msg):
                return self.unexpected.pop(i)[3]
        self.posted.append(recv)
        return None

    def arrive(self, msg):
        for i, recv in enumerate(self.posted):
            if self._match(recv, msg):
                return self.posted.pop(i)[3]
        self.unexpected.append(msg)
        return None


ops_strategy = st.lists(
    st.one_of(
        # post a receive: (source|-1, tag|-1, context)
        st.tuples(
            st.just("post"),
            st.sampled_from([ANY_SOURCE, 0, 1, 2]),
            st.sampled_from([ANY_TAG, 10, 20]),
            st.sampled_from([0, 1]),
        ),
        # arrival: concrete (src, tag, context)
        st.tuples(
            st.just("arrive"),
            st.sampled_from([0, 1, 2]),
            st.sampled_from([10, 20]),
            st.sampled_from([0, 1]),
        ),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(ops=ops_strategy)
def test_matching_engine_equals_reference(ops):
    engine = MatchingEngine()
    model = ReferenceModel()
    recv_keys = {}  # id(request) -> op key

    for key, op in enumerate(ops):
        kind = op[0]
        if kind == "post":
            _, source, tag, ctx = op
            recv = PostedRecv(source, tag, ctx, 1 << 20, Request("recv"))
            recv_keys[id(recv.request)] = key
            got = engine.post_recv(recv)
            expected = model.post((source, tag, ctx, key))
            got_key = None if got is None else got.header.seq
            assert got_key == expected
        else:
            _, src, tag, ctx = op
            h = Header(kind=MsgKind.EAGER, src=src, dst=9, tag=tag, context=ctx,
                       size=4, seq=key)
            got = engine.arrived(h, now=key)
            expected = model.arrive((src, tag, ctx, key))
            got_key = None if got is None else recv_keys[id(got.request)]
            assert got_key == expected

    assert engine.posted_count == len(model.posted)
    assert engine.unexpected_count == len(model.unexpected)


@settings(max_examples=100, deadline=None)
@given(ops=ops_strategy)
def test_unexpected_peak_monotone_bounds(ops):
    engine = MatchingEngine()
    peak_seen = 0
    for key, op in enumerate(ops):
        if op[0] == "post":
            _, source, tag, ctx = op
            engine.post_recv(PostedRecv(source, tag, ctx, 1 << 20, Request("recv")))
        else:
            _, src, tag, ctx = op
            engine.arrived(
                Header(kind=MsgKind.EAGER, src=src, dst=9, tag=tag, context=ctx, seq=key),
                now=key,
            )
        peak_seen = max(peak_seen, engine.unexpected_count)
    assert engine.unexpected_peak == peak_seen
    assert engine.total_unexpected >= engine.unexpected_count
