"""Ablation — the RNR retry timer and the end-to-end credit gate.

The hardware scheme's Figure-10 collapse is entirely a property of the
IBA reliability machinery, not of MPI:

* the RNR retry timer sets the price of every starvation event — we sweep
  it on the LU proxy at pre-post = 1;
* arming the requester's advertised-credit gate (``arm_e2e_gate``)
  exchanges replay storms for orderly probe-and-wait, trading
  retransmission count against timer-bound idling.
"""

from repro.analysis import Table
from repro.cluster import TestbedConfig, run_job
from repro.core import HardwareScheme
from repro.sim.units import us
from repro.workloads.nas import KERNELS

from benchmarks.conftest import run_once, save_result

TIMERS_US = [40, 160, 320, 640]


def run_table() -> Table:
    table = Table(
        "Ablation: RNR timer & e2e options, hardware scheme, LU, pre-post=1",
        ["runtime_s", "naks", "retransmissions"],
    )
    k = KERNELS["lu"]
    for t in TIMERS_US:
        cfg = TestbedConfig()
        cfg.ib.rnr_timer_ns = us(t)
        r = run_job(k.build(), k.nranks, HardwareScheme(), prepost=1, config=cfg)
        table.add_row(f"timer={t}us", r.elapsed_s, r.fc.rnr_naks, r.fc.retransmissions)

    # Adaptive RNR backoff on the same sweep: the ladder only escalates
    # on *consecutive* NAKs for one message, and LU's receiver — slow but
    # never absent — delivers every NAK'd head on its first retry, so the
    # row must be bit-identical to the flat 40 us timer (zero cost for an
    # attentive receiver).
    cfg = TestbedConfig()
    cfg.ib.rnr_timer_ns = us(40)
    cfg.ib.rnr_backoff_factor = 2.0
    cfg.ib.rnr_backoff_max_ns = us(640)
    r = run_job(k.build(), k.nranks, HardwareScheme(), prepost=1, config=cfg)
    table.add_row("backoff 40us x2 cap 640us", r.elapsed_s, r.fc.rnr_naks,
                  r.fc.retransmissions)

    # Where the ladder earns its keep: a descheduled receiver (the chaos
    # harness's receiver-stall burst).  The same head message NAKs over
    # and over, so the flat timer pays a NAK storm for the whole outage
    # while backoff escalates toward the cap after a few probes.
    from repro.faults import scenario_job

    for label, factor, cap in [
        ("stall, flat 320us", 1.0, us(10_000)),
        ("stall, backoff x2 cap 2560us", 2.0, us(2_560)),
    ]:
        job = scenario_job("receiver-stall")
        cfg = job["config"]
        cfg.nodes = job["nranks"]
        cfg.ib.rnr_backoff_factor = factor
        cfg.ib.rnr_backoff_max_ns = cap
        r = run_job(scheme=HardwareScheme(), **job)
        table.add_row(label, r.elapsed_s, r.fc.rnr_naks,
                      r.fc.retransmissions)

    cfg = TestbedConfig()
    r = run_job(k.build(), k.nranks, HardwareScheme(arm_e2e_gate=True), prepost=1, config=cfg)
    table.add_row("gated (320us)", r.elapsed_s, r.fc.rnr_naks, r.fc.retransmissions)
    return table


def test_ablation_rnr_timer(benchmark):
    table = run_once(benchmark, run_table)
    save_result("ablation_rnr_timer", table.render())

    # Collapse scales with the timer.
    times = [table.value(f"timer={t}us", "runtime_s") for t in TIMERS_US]
    assert times == sorted(times)
    assert times[-1] > 1.5 * times[0]

    # The gate trades retransmissions for orderly waiting.
    assert table.value("gated (320us)", "retransmissions") < table.value(
        "timer=320us", "retransmissions"
    )

    # Adaptive backoff is free when the receiver keeps consuming: every
    # NAK'd head lands on its first retry, the ladder never escalates,
    # and the row matches the flat fast timer bit for bit.
    for col in ("runtime_s", "naks", "retransmissions"):
        assert table.value("backoff 40us x2 cap 640us", col) == table.value(
            "timer=40us", col
        )

    # Under genuine starvation the ladder collapses the NAK storm: the
    # stalled receiver's consecutive NAKs escalate the wait toward the
    # cap instead of replaying every base period.
    assert table.value("stall, backoff x2 cap 2560us", "naks") < 0.5 * table.value(
        "stall, flat 320us", "naks"
    )
    assert table.value("stall, backoff x2 cap 2560us", "retransmissions") < table.value(
        "stall, flat 320us", "retransmissions"
    )
