"""Direct unit tests of the scheme policy objects (no cluster involved)."""

import pytest

from repro.core import (
    ALL_SCHEMES,
    DynamicScheme,
    HardwareScheme,
    SchemeName,
    StaticScheme,
    make_scheme,
)
from repro.core.base import FlowControlScheme
from repro.mpi.protocol import Header, MsgKind


class FakeEndpoint:
    class config:
        rdma_control_bufs = 8

    def _post_recv_vbuf(self, conn):
        conn.recv_posted += 1


class FakeConn:
    """Just enough Connection surface for the policy hooks: what
    ``Connection.__init__`` sets, on an endpoint at pre-post ``prepost``
    (an idle connection's high-water mark is the rank's pre-post)."""

    def __init__(self, prepost=0):
        self.endpoint = FakeEndpoint()
        self.credits = 0
        self.prepost_target = 0
        self.headroom = 0
        self.recv_posted = 0
        self.pending_credit_return = 0
        self._decay_quiet_msgs = 0
        self._grow_barrier_seq = -1
        self.ring = None
        self.stats = type("S", (), {"max_prepost": prepost})()
        self.qp = type("Q", (), {"set_initial_credit_estimate": lambda *_: None})()

    def set_prepost_target(self, n):
        self.prepost_target = n
        self.stats.max_prepost = max(self.stats.max_prepost, n)

    def refill_recv_buffers(self):
        posted = 0
        while self.recv_posted < self.prepost_target + self.headroom:
            self.recv_posted += 1
            posted += 1
        return posted


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
    assert s.try_consume_credit(conn)
    assert s.try_consume_credit(conn)
    assert s.try_consume_credit(conn)
    assert not s.try_consume_credit(conn)  # exhausted
    s.on_credits_received(conn, 2)
    assert conn.credits == 2


def test_static_ecm_threshold_exact():
    s = StaticScheme(ecm_threshold=5)
    conn = FakeConn()
    s.setup_connection(conn, 10)
    conn.pending_credit_return = 4
    assert not s.should_send_ecm(conn)
    conn.pending_credit_return = 5
    assert s.should_send_ecm(conn)


def test_hardware_never_gates():
    h = HardwareScheme()
    conn = FakeConn()
    h.setup_connection(conn, 2)
    for _ in range(100):
        assert h.try_consume_credit(conn)
    assert not h.should_send_ecm(conn)
    h.on_credits_received(conn, 5)
    assert conn.credits == 0  # no credit state at all


def test_dynamic_doubles_on_feedback():
    d = DynamicScheme()
    conn = FakeConn()
    d.setup_connection(conn, 1)
    conn.refill_recv_buffers()  # the set-up budget, posted by the wiring
    grown = d.on_recv_header(conn, header(seq=0, backlog=True))
    assert conn.prepost_target == 2
    assert grown == 1
    assert conn.pending_credit_return == 1  # new buffer -> new credit


def test_dynamic_rate_limit_skips_stale_flags():
    d = DynamicScheme()  # rate_limited=True by default
    conn = FakeConn()
    d.setup_connection(conn, 1)
    d.on_recv_header(conn, header(seq=0, backlog=True))  # -> 2, barrier=seq 2
    d.on_recv_header(conn, header(seq=1, backlog=True))  # stale: ignored
    assert conn.prepost_target == 2
    d.on_recv_header(conn, header(seq=5, backlog=True))  # past barrier -> 4
    assert conn.prepost_target == 4


def test_dynamic_without_rate_limit_compounds():
    d = DynamicScheme(rate_limited=False)
    conn = FakeConn()
    d.setup_connection(conn, 1)
    for seq in range(4):
        d.on_recv_header(conn, header(seq=seq, backlog=True))
    assert conn.prepost_target == 16  # 1 -> 2 -> 4 -> 8 -> 16


def test_dynamic_linear_policy():
    d = DynamicScheme(exponential=False, growth_step=3, rate_limited=False)
    conn = FakeConn()
    d.setup_connection(conn, 2)
    d.on_recv_header(conn, header(seq=0, backlog=True))
    assert conn.prepost_target == 5


def test_dynamic_capped_at_max():
    d = DynamicScheme(max_prepost=4, rate_limited=False)
    conn = FakeConn()
    d.setup_connection(conn, 1)
    for seq in range(10):
        d.on_recv_header(conn, header(seq=seq, backlog=True))
    assert conn.prepost_target == 4


def test_dynamic_no_growth_without_flag():
    d = DynamicScheme()
    conn = FakeConn()
    d.setup_connection(conn, 1)
    for seq in range(20):
        assert d.on_recv_header(conn, header(seq=seq, backlog=False)) == 0
    assert conn.prepost_target == 1


def test_dynamic_decay_halves_after_quiet_streak():
    d = DynamicScheme(decay_enabled=True, decay_idle_messages=10,
                      rate_limited=False)
    conn = FakeConn(8)
    d.setup_connection(conn, 8)
    for seq in range(10):
        d.on_recv_header(conn, header(seq=seq, backlog=False))
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
