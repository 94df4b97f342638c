"""Every optional subsystem is bit-identity inert when it is off.

One sandwich for all of them: a plain run, the same job with the
subsystem armed, the plain run again — in one process, under each of the
four schemes.  The two plain runs must agree on every timing and
statistic (an armed run may leave nothing behind), the plain runs must
show no trace of the subsystem, and the armed run must show that the
subsystem really engaged, or the sandwich proves nothing.  Where arming
is itself meant to be free on a clean run (an empty fault plan, the
auditor, recovery), the armed run must reproduce the plain timeline too.
The auditor also stays inert where recovery meets the dynamic scheme's
decay: the resync reads the decay debt from the connection, never from an
observer.
"""

import pytest

from repro.cluster import TestbedConfig, run_job
from repro.congestion import make_congestion_config
from repro.core import EXTENDED_SCHEMES, DynamicScheme
from repro.faults import FaultPlan, scenario_job
from repro.recovery import RecoveryPolicy
from repro.sim.units import us
from repro.workloads import manyflows_program
from tests.test_check_invariants import _burst_then_quiet


def _flood():
    return manyflows_program(((0, 1, 30, 1024),)), 2


def _pingpong():
    def prog(ep):
        peer = 1 - ep.rank
        rreq = yield from ep.irecv(source=peer, capacity=64, tag=0)
        yield from ep.send(peer, 4, tag=0, payload=ep.rank)
        st = yield from ep.wait(rreq)
        return st.payload

    return prog, 2


def _arm_congestion(cfg):
    cfg.ib.congestion = make_congestion_config("pfc")
    return {}


def _fabric(r):
    return r.endpoints[0].hca.fabric


#: subsystem -> (job, keywords of every run, arm(config) -> keywords of
#: the armed run, "left no trace on a plain run", "engaged on the armed
#: run", armed run must reproduce the plain timeline)
SUBSYSTEMS = {
    "faults": (
        _flood, {}, lambda cfg: {"faults": FaultPlan(seed=7)},
        lambda r: _fabric(r).fault is None,
        lambda armed, plain: _fabric(armed).fault is not None,
        True,
    ),
    "audit": (
        _flood, {}, lambda cfg: {"audit": True},
        lambda r: r.audit is None and all(ep.observer is None for ep in r.endpoints),
        lambda armed, plain: armed.audit.hook_calls > 0 and not armed.audit.violations,
        True,
    ),
    "recovery": (
        _flood, {}, lambda cfg: {"recovery": True},
        lambda r: r.recovery is None,
        lambda armed, plain: armed.recovery.summary()["recoveries"] == 0,
        True,
    ),
    "ft": (
        lambda: (scenario_job("rank-death")["program"], 4), {},
        lambda cfg: {"faults": scenario_job("rank-death")["faults"],
                     "audit": True, "ft": True},
        lambda r: r.ft is None and not r.failures,
        lambda armed, plain: armed.ft is not None and bool(armed.failures),
        False,
    ),
    "cm_chaos": (
        _pingpong, {"on_demand": True},
        lambda cfg: {"cm_chaos": {"loss_prob": 0.9, "delay_ns": us(100), "seed": 3}},
        lambda r: r.completed,
        lambda armed, plain: armed.completed and armed.elapsed_ns > plain.elapsed_ns,
        False,
    ),
    "congestion": (
        _flood, {}, _arm_congestion,
        lambda r: r.congestion is None,
        lambda armed, plain: (armed.congestion is not None
                              and armed.elapsed_ns != plain.elapsed_ns),
        False,
    ),
}


def _timeline(r):
    return (r.elapsed_ns, r.rank_finish_ns, r.fc_dict())


@pytest.mark.parametrize("scheme", [s.value for s in EXTENDED_SCHEMES])
@pytest.mark.parametrize("subsystem", SUBSYSTEMS)
def test_disabled_subsystem_is_bit_identity_inert(subsystem, scheme):
    job, common, arm, untouched, engaged, free_when_clean = SUBSYSTEMS[subsystem]

    def run(armed=False):
        program, nranks = job()
        cfg = TestbedConfig(nodes=nranks)  # fresh: arming may write to it
        extra = arm(cfg) if armed else {}
        return run_job(program, nranks, scheme, 8, config=cfg, **common, **extra)

    before = run()
    armed = run(armed=True)
    after = run()
    assert untouched(before) and untouched(after)
    assert engaged(armed, before)
    assert _timeline(after) == _timeline(before)
    assert _fabric(after).sim.events_executed == _fabric(before).sim.events_executed
    if free_when_clean:
        assert _timeline(armed) == _timeline(before)


@pytest.mark.parametrize("flap_ns", [590_514, 763_938, 1_105_990])
def test_the_auditor_is_inert_on_a_recovering_decay_run(flap_ns):
    """The decay program (a burst grows the target, ping-pongs decay it)
    under a link flap that recovery repairs: plain, audited, plain."""
    def run(**armed):
        plan = FaultPlan(seed=1, transport_timeout_ns=us(40), transport_retry_limit=2)
        return run_job(
            _burst_then_quiet, 2,
            DynamicScheme(decay_enabled=True, decay_idle_messages=64),
            prepost=1, config=TestbedConfig(nodes=2),
            faults=plan.link_flap(lid=1, at_ns=flap_ns, duration_ns=us(400)),
            recovery=RecoveryPolicy(max_attempts=12, seed=1), **armed)

    def state(r):
        return _timeline(r), [c.credits for ep in r.endpoints
                              for c in ep.connections.values()]

    before, armed, after = run(), run(audit=True), run()
    assert armed.recovery.summary()["recoveries"] > 0
    assert armed.audit.hook_calls > 0 and not armed.audit.violations  # strict
    assert state(armed) == state(before) == state(after)
