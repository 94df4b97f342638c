"""Regression tests for repro.core.stats aggregation edge cases."""

from repro.core.stats import (
    collect_congestion_report,
    collect_report,
)
from repro.sim.trace import Tracer


class _EndpointWithNoConnections:
    connections: dict = {}
    mesh = False


def test_collect_report_empty_endpoint_list():
    report = collect_report([])
    assert report.avg_ecm_per_connection == 0.0
    assert report.total_msgs == 0
    assert report.ecm_msgs == 0


def test_collect_report_zero_connections_does_not_divide_by_zero():
    # A single-rank job (or on-demand mode before any traffic) has
    # endpoints but no connections; the ECM average must be 0.0, not a
    # ZeroDivisionError.
    report = collect_report([_EndpointWithNoConnections()])
    assert report.avg_ecm_per_connection == 0.0
    assert report.max_posted_buffers == 0


# ----------------------------------------------------------------------
# congestion report (duck-typed state, like collect_congestion_report)
# ----------------------------------------------------------------------
class _FakePort:
    def __init__(self, peak, drops=0):
        self.depth = 0
        self.peak_depth = peak
        self.drops = drops
        self.pause_frames_rx = 0


class _FakeFlow:
    def __init__(self, rate, min_seen):
        self.rate = rate
        self.min_rate_seen = min_seen


class _FakeState:
    def __init__(self):
        self.tracer = Tracer()
        t = self.tracer
        t.count("cong.pause_frame", ("hup", 1), 3)
        t.count("cong.resume_frame", ("hup", 1), 3)
        t.count("cong.xoff", ("down", 0), 2)
        t.count("cong.xon", ("down", 0), 2)
        t.count("cong.ecn_mark", ("down", 0), 5)
        t.count("cong.cnp", (1, 0), 4)
        t.count("cong.drop", ("down", 2), 1)
        self.ports = {
            ("down", 0): _FakePort(peak=9000),
            ("down", 2): _FakePort(peak=400, drops=1),
            ("down", 10): _FakePort(peak=100),
            ("hup", 1): _FakePort(peak=20000),  # interior/injection port
        }
        self.flows = {(1, 0): _FakeFlow(rate=0.5, min_seen=0.25)}


def test_collect_congestion_report_totals_and_per_dest():
    report = collect_congestion_report(_FakeState())
    assert report.pause_frames == 3
    assert report.resume_frames == 3
    assert report.xoff_events == report.xon_events == 2
    assert report.ecn_marks == 5
    assert report.cnps == 4
    assert report.drops == 1
    assert report.min_flow_rate == 0.25
    # the global peak covers interior ports, per_dest only "down" ports
    assert report.depth_peak_bytes == 20000
    assert set(report.per_dest) == {"0", "2", "10"}
    assert report.per_dest["0"] == {
        "depth_peak_bytes": 9000, "pauses": 2, "marks": 5, "drops": 0,
    }
    assert report.per_dest["2"]["drops"] == 1
    assert report.to_dict()["per_dest"]["0"]["marks"] == 5

