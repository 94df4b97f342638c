"""Tests for the units helpers and the tracer."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.trace import Counter, Tracer
from repro.sim.units import (
    gbps_to_bytes_per_ns,
    mb_per_s,
    ms,
    seconds,
    to_us,
    transfer_ns,
    us,
)


# ----------------------------------------------------------------------
# units
# ----------------------------------------------------------------------
def test_us_ms_conversions():
    assert us(1) == 1_000
    assert us(7.5) == 7_500
    assert ms(1) == 1_000_000
    assert ms(0.5) == 500_000


def test_seconds_and_to_us():
    assert seconds(1_500_000_000) == 1.5
    assert to_us(7_420) == 7.42


def test_mb_per_s():
    # 1 MB in 1 ms → 1000 MB/s
    assert mb_per_s(1_000_000, 1_000_000) == pytest.approx(1000.0)
    assert mb_per_s(0, 100) == 0.0


def test_transfer_ns_minimum_one():
    assert transfer_ns(1, 1000.0) == 1
    assert transfer_ns(0, 1.0) == 0
    assert transfer_ns(1000, 1.0) == 1000


def test_transfer_ns_zero_bytes_is_free():
    # Regression pin: zero-byte transfers (pure-control MPI messages,
    # zero-length RDMA) must cost 0 ns, not get clamped up to the 1 ns
    # minimum that applies to genuine payload.  The golden replay suite
    # (tests/test_determinism_replay.py) holds the resulting event
    # streams fixed, so any reintroduced clamp shows up twice.
    assert transfer_ns(0, 0.5) == 0
    assert transfer_ns(0, 1000.0) == 0
    assert transfer_ns(-5, 1.0) == 0  # negative sizes are clamped, not raised
    assert transfer_ns(1, 1e9) == 1  # ...but any real payload costs >= 1 ns


def test_ib_4x_is_one_byte_per_ns():
    # 10 Gbit/s signalling, 8b/10b → 8 Gbit/s = 1 byte/ns
    assert gbps_to_bytes_per_ns(10.0) == pytest.approx(1.0)


@given(nbytes=st.integers(0, 1 << 30), rate=st.floats(0.01, 100))
def test_transfer_ns_nonnegative_and_monotone(nbytes, rate):
    t = transfer_ns(nbytes, rate)
    assert t >= 0
    assert transfer_ns(nbytes + 1024, rate) >= t


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
def test_counter_keys_and_totals():
    c = Counter("x")
    c.add(("a", "b"), 3)
    c.add(("a", "b"))
    c.add(("c", "d"), 10)
    assert c.get(("a", "b")) == 4
    assert c.total() == 14
    assert c.max() == 10
    assert dict(c.items()) == {("a", "b"): 4, ("c", "d"): 10}


def test_tracer_records_only_when_enabled():
    t = Tracer(enabled=False)
    t.record(10, "ev", 1)
    assert t.records == []
    t2 = Tracer(enabled=True)
    t2.record(10, "ev", 1)
    t2.record(20, "other", 2)
    assert len(t2.records) == 2
    assert t2.records_of("ev") == [(10, "ev", (1,))]


def test_tracer_counters_always_work():
    t = Tracer(enabled=False)
    t.count("ib.rnr_nak", (0, 1))
    t.count("ib.rnr_nak", (0, 1))
    t.count("fc.ecm", None, 5)
    assert t.summary() == {"fc.ecm": 5, "ib.rnr_nak": 2}
    assert t.summary("ib.") == {"ib.rnr_nak": 2}


def test_tracer_counter_identity_cached():
    t = Tracer()
    assert t.counter("a") is t.counter("a")


def test_counter_snapshot_is_a_plain_detached_dict():
    c = Counter("x")
    c.add("k", 2)
    snap = c.snapshot()
    assert type(snap) is dict and snap == {"k": 2}
    # Detached: mutating the snapshot never touches the live counter,
    # and reading a missing key doesn't materialise it (defaultdict would).
    snap["k"] = 99
    snap["ghost"] = 1
    assert c.get("k") == 2
    assert "ghost" not in c.values
    assert c.snapshot() == {"k": 2}


def test_tracer_iterates_counters_in_sorted_name_order():
    t = Tracer()
    for name in ("zz.last", "aa.first", "mm.middle"):
        t.count(name)
    assert [c.name for c in t] == ["aa.first", "mm.middle", "zz.last"]


def test_tracer_snapshot_nested_and_sorted():
    t = Tracer()
    t.count("b.counter", ("x", "y"), 3)
    t.count("a.counter", None, 1)
    snap = t.snapshot()
    assert list(snap) == ["a.counter", "b.counter"]
    assert snap["b.counter"] == {("x", "y"): 3}


def test_congestion_counter_names_iterate_sorted():
    # The congestion subsystem interleaves its cong.* counters with the
    # fabric/fc families at arbitrary creation order; report rendering
    # and the determinism check rely on sorted iteration regardless.
    t = Tracer()
    names = ["cong.xoff", "fc.ecm", "cong.cnp", "ib.rnr_nak",
             "cong.pause_frame", "cong.ecn_mark", "cong.xon"]
    for name in names:
        t.count(name, ("down", 0))
    assert [c.name for c in t] == sorted(names)
    assert list(t.snapshot()) == sorted(names)
    assert list(t.summary()) == sorted(names)


def test_congestion_trace_records_carry_port_keys():
    t = Tracer(enabled=True)
    t.record(100, "cong.xoff", ("down", 3))
    t.record(250, "cong.xon", ("down", 3))
    t.record(300, "cong.ecn_mark", ("up", 0, 1), 7)
    assert t.records_of("cong.xoff") == [(100, "cong.xoff", (("down", 3),))]
    assert t.records_of("cong.ecn_mark") == [
        (300, "cong.ecn_mark", (("up", 0, 1), 7))
    ]
