"""Direct unit tests of the scheme policy objects and the credit
transitions that read them (no cluster involved)."""

import pytest

from repro.core import (
    ALL_SCHEMES,
    DynamicScheme,
    HardwareScheme,
    SchemeName,
    StaticScheme,
    make_scheme,
)
from repro.core import credit
from repro.core.base import FlowControlScheme
from repro.mpi.protocol import Header, MsgKind


class FakeEndpoint:
    class config:
        rdma_control_bufs = 8


class FakeConn:
    """Just enough Connection surface for set-up and the credit
    transitions: what ``Connection.__init__`` sets, on an endpoint at
    pre-post ``prepost`` (an idle connection's high-water mark is the
    rank's pre-post)."""

    def __init__(self, prepost=0):
        self.endpoint = FakeEndpoint()
        self.credits = 0
        self.backlog = ()
        self.recovering = False
        self.prepost_target = 0
        self.headroom = 0
        self.recv_posted = 0
        self.pending_credit_return = 0
        self.swallow_debt = 0
        self._decay_quiet_msgs = 0
        self._grow_barrier_seq = -1
        self.ring = None
        self.stats = type("S", (), {"max_prepost": prepost})()
        self.qp = type("Q", (), {"set_initial_credit_estimate": lambda *_: None})()


def header(seq, backlog=False):
    return Header(kind=MsgKind.EAGER, src=0, dst=1, seq=seq, went_backlog=backlog)


# ----------------------------------------------------------------------
def test_scheme_names_and_registry():
    assert [s.value for s in ALL_SCHEMES] == ["hardware", "static", "dynamic"]
    for name in ALL_SCHEMES:
        scheme = make_scheme(name)
        assert isinstance(scheme, FlowControlScheme)
        assert scheme.name is name


def test_static_credit_gate():
    s = StaticScheme()
    conn = FakeConn()
    s.setup_connection(conn, 3)
    assert conn.credits == 3
    # the receive budget; whoever wires the connection posts it
    assert conn.prepost_target + conn.headroom == 3 + s.optimistic_headroom
    assert conn.recv_posted == 0
    assert credit.take(s, conn)
    assert credit.take(s, conn)
    assert credit.take(s, conn)
    assert not credit.take(s, conn)  # exhausted
    credit.receive(s, conn, 2)
    assert conn.credits == 2
    conn.backlog = ("queued",)
    assert not credit.take(s, conn)  # FIFO: no overtaking the backlog
    assert credit.take(s, conn, head=True)
    assert conn.credits == 1


def test_static_ecm_threshold_exact():
    s = StaticScheme(ecm_threshold=5)
    conn = FakeConn()
    s.setup_connection(conn, 10)
    conn.pending_credit_return = 4
    assert not credit.grant(s, conn, 0)
    assert credit.grant(s, conn, 1)
    assert conn.pending_credit_return == 5


def test_hardware_never_gates():
    h = HardwareScheme()
    conn = FakeConn()
    h.setup_connection(conn, 2)
    for _ in range(100):
        assert credit.take(h, conn)
    assert not credit.grant(h, conn, 100)
    credit.receive(h, conn, 5)
    assert conn.credits == 0  # no credit state at all


def test_dynamic_doubles_on_feedback():
    d = DynamicScheme()
    conn = FakeConn()
    d.setup_connection(conn, 1)
    grown = credit.grow(d, conn, header(seq=0, backlog=True))
    assert conn.prepost_target == 2
    assert grown == 1  # the caller posts it
    assert conn.pending_credit_return == 1  # new buffer -> new credit
    assert conn.stats.max_prepost == 2


def test_dynamic_rate_limit_skips_stale_flags():
    d = DynamicScheme()  # rate_limited=True by default
    conn = FakeConn()
    d.setup_connection(conn, 1)
    credit.grow(d, conn, header(seq=0, backlog=True))  # -> 2, barrier=seq 2
    credit.grow(d, conn, header(seq=1, backlog=True))  # stale: ignored
    assert conn.prepost_target == 2
    credit.grow(d, conn, header(seq=5, backlog=True))  # past barrier -> 4
    assert conn.prepost_target == 4


def test_dynamic_without_rate_limit_compounds():
    d = DynamicScheme(rate_limited=False)
    conn = FakeConn()
    d.setup_connection(conn, 1)
    for seq in range(4):
        credit.grow(d, conn, header(seq=seq, backlog=True))
    assert conn.prepost_target == 16  # 1 -> 2 -> 4 -> 8 -> 16


def test_dynamic_linear_policy():
    d = DynamicScheme(exponential=False, growth_step=3, rate_limited=False)
    conn = FakeConn()
    d.setup_connection(conn, 2)
    credit.grow(d, conn, header(seq=0, backlog=True))
    assert conn.prepost_target == 5


def test_dynamic_capped_at_max():
    d = DynamicScheme(max_prepost=4, rate_limited=False)
    conn = FakeConn()
    d.setup_connection(conn, 1)
    for seq in range(10):
        credit.grow(d, conn, header(seq=seq, backlog=True))
    assert conn.prepost_target == 4


def test_dynamic_no_growth_without_flag():
    d = DynamicScheme()
    conn = FakeConn()
    d.setup_connection(conn, 1)
    for seq in range(20):
        assert credit.grow(d, conn, header(seq=seq, backlog=False)) == 0
    assert conn.prepost_target == 1


def test_dynamic_decay_halves_after_quiet_streak():
    d = DynamicScheme(decay_enabled=True, decay_idle_messages=10,
                      rate_limited=False)
    conn = FakeConn(8)
    d.setup_connection(conn, 8)
    for seq in range(10):
        credit.grow(d, conn, header(seq=seq, backlog=False))
    assert conn.prepost_target == 4
    # max_prepost statistic keeps the high-water mark
    assert conn.stats.max_prepost == 8


def test_make_scheme_kwargs_forwarding():
    s = make_scheme("static", ecm_threshold=9)
    assert s.ecm_threshold == 9
    d = make_scheme("dynamic", growth_step=7, exponential=False)
    assert d.growth_step == 7 and not d.exponential
    h = make_scheme("hardware", arm_e2e_gate=True)
    assert h.arm_e2e_gate
    assert make_scheme(SchemeName.DYNAMIC).name is SchemeName.DYNAMIC
