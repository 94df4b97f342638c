"""One lifecycle for every armable subsystem, one report for every job.

``run_job`` disarms what the cluster's previous job armed, arms its own
``Arming``, and reports the job — this job only — as one document.  The
matrix below crosses cluster reuse with every armable subsystem: each
defect the parent had sat where two hand-written per-subsystem clauses
met (a plan's absolute clock, transport retries and set-up chaos that
survived their job, a tracer nothing reset, arming nobody validated).
"""

import json

import pytest

from repro.check import Auditor, fuzz
from repro.cluster import Arming, Cluster, TestbedConfig, run_job
from repro.cluster import job as job_module
from repro.congestion import make_congestion_config
from repro.core import EXTENDED_SCHEMES, make_scheme
from repro.faults import FaultPlan, chaos_cell, scenario_job
from repro.ft import FTConfig
from repro.ib.qp import QPError, Requester
from repro.ib.types import INFINITE_RETRY
from repro.recovery import RecoveryPolicy
from repro.sim.units import us

from tests.mpi_helpers import wire_all
from tests.test_faults_injection import _flood

SCHEMES = [s.value for s in EXTENDED_SCHEMES]
NRANKS = 8


def _ring(stride, rounds=4):
    def program(mpi):
        n = mpi.world_size
        nxt, prv = (mpi.rank + stride) % n, (mpi.rank - stride) % n
        for i in range(rounds):
            rreq = yield from mpi.irecv(source=prv, capacity=4096, tag=i)
            yield from mpi.send(nxt, size=1024, tag=i)
            yield from mpi.wait(rreq)

    return program


def _drop_plan():
    # events (so the plan's clock matters on a reused cluster) and a finite
    # retry limit (which must not govern the next job's transport)
    return FaultPlan(
        seed=3, transport_timeout_ns=us(40), transport_retry_limit=7
    ).drop_window(at_ns=us(1), duration_ns=us(200), probability=0.1)


#: lossy enough that every job below retries a set-up exchange, not so lossy
#: that a pair exhausts its five attempts (a failed job ends mid-flight)
CM_CHAOS = {"loss_prob": 0.3, "delay_ns": us(50), "seed": 1}

#: armable -> (run_job keywords, its report section, whether a clean armed
#: run reproduces the plain timeline — what tests/test_inertness.py says)
ARMABLE = {
    "empty-plan": (lambda: {"faults": FaultPlan(seed=7)}, "faults", True),
    "drop-plan": (lambda: {"faults": _drop_plan()}, "faults", False),
    "audit": (lambda: {"audit": True}, "audit", True),
    "recovery": (lambda: {"recovery": True}, "recovery", True),
    "ft": (lambda: {"ft": True}, "ft", False),
    "cm_chaos": (lambda: {"cm_chaos": CM_CHAOS}, "cm_chaos", False),
}
SECTIONS = {section for _, section, _ in ARMABLE.values()}


def _launch(scheme, on_demand, prepost=2, congestion=None, nranks=NRANKS):
    config = TestbedConfig(nodes=nranks)
    config.ib.congestion = congestion
    cluster = Cluster(config)
    cluster.launch(nranks, make_scheme(scheme), prepost, on_demand=on_demand)
    return cluster


def _job(cluster, stride=1, rounds=4, **armed):
    """One ring job on ``cluster``; the result plus the events it took."""
    scheme = cluster.endpoints[0].scheme.name.value
    before = cluster.sim.events_executed
    r = run_job(_ring(stride, rounds), len(cluster.endpoints), scheme, 2,
                cluster=cluster, **armed)
    return r, cluster.sim.events_executed - before


def _three_jobs(scheme, on_demand, **armed):
    """Plain, ``armed``, plain on one cluster.  The middle job's stride is
    new, so an on-demand cluster sets up connections while it is armed."""
    cluster = _launch(scheme, on_demand)
    return cluster, [_job(cluster, 1), _job(cluster, 3, **armed), _job(cluster, 1)]


def _attachments(cluster):
    """Every point a subsystem's ``arm`` attaches to."""
    cong = cluster.fabric.congestion
    qps = [qp for hca in cluster.hcas for qp in hca._qps.values()]
    return {
        "cluster": (cluster.observer, cluster._observers, cluster.ft, cluster.armed),
        "endpoints": {(ep.observer, ep._recovery, ep._ft) for ep in cluster.endpoints},
        "fabric.fault": cluster.fabric.fault,
        "congestion.observer": cong.observer if cong is not None else None,
        "hca.fault_transport": {hca.fault_transport for hca in cluster.hcas},
        "qp transport retry": {
            (qp._req._xport_enabled, qp._req._xport_timeout_ns, qp._req._xport_limit,
             qp._req._xport_timer) for qp in qps
        },
        "cm._chaos": cluster.cm._chaos if cluster.cm is not None else None,
    }


# ----------------------------------------------------------------------
# (a) reuse x arming: job 1 plain, job 2 armed, job 3 plain
# ----------------------------------------------------------------------
#: set-up chaos needs a connection manager: no mesh arm
MATRIX = [(armable, on_demand) for armable in ARMABLE
          for on_demand in (False, True) if on_demand or armable != "cm_chaos"]


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize(
    "armable, on_demand", MATRIX,
    ids=[f"{a}-{'on-demand' if od else 'mesh'}" for a, od in MATRIX])
def test_an_armed_job_leaves_nothing_behind(armable, on_demand, scheme):
    make, section, free_when_clean = ARMABLE[armable]
    cluster, jobs = _three_jobs(scheme, on_demand, **make())
    (r1, _), (r2, _), (r3, events3) = jobs
    assert r1.completed and r2.completed and r3.completed
    doc2, doc3 = r2.report(), r3.report()
    assert doc2["armed"] == [section] and section in doc2
    if armable in ("drop-plan", "cm_chaos"):
        assert doc2[section], "the armed job never engaged the subsystem"

    # every attachment point is a freshly launched cluster's again ...
    fresh = _attachments(wire_all(_launch(scheme, on_demand=False)))  # has QPs
    got = _attachments(cluster)
    pristine_qp = fresh.pop("qp transport retry")
    assert pristine_qp == {(False, 0, INFINITE_RETRY, None)}
    assert got.pop("qp transport retry") == pristine_qp
    assert got == fresh

    # ... and the third job's document holds the third job only
    assert doc3["armed"] == [] and not SECTIONS & set(doc3)
    subsystem_counters = ("faults.", "cm.", "recovery.", "ft.")
    assert not [n for n in doc3["counters"] if n.startswith(subsystem_counters)]
    assert doc3["counters"].get("ib.rnr_nak", 0) == doc3["fc"]["rnr_naks"]
    assert doc3["counters"].get("ib.retransmission", 0) == doc3["fc"]["retransmissions"]

    if free_when_clean:
        # the armed job changed nothing, so job 3 is job 3 of a cluster
        # nothing was ever armed on (successive plain jobs differ among
        # themselves: residual credits)
        _, plain = _three_jobs(scheme, on_demand)
        r3_plain, events3_plain = plain[2]
        assert events3 == events3_plain
        assert r3.elapsed_ns == r3_plain.elapsed_ns
        assert doc3 == r3_plain.report()


def test_disarming_the_auditor_unhooks_the_switch_model_too():
    cluster = _launch("static", on_demand=False,
                      congestion=make_congestion_config("pfc"))
    audited, _ = _job(cluster, audit=True)
    assert cluster.fabric.congestion.observer is audited.audit
    plain, _ = _job(cluster)
    assert cluster.fabric.congestion.observer is None
    assert plain.report()["congestion_mode"] == "pfc" and "audit" not in plain.report()


def test_each_layer_reads_one_slot_none_the_observer_or_a_fanout():
    """``Cluster.observe`` resolves the slot every endpoint, the switch
    model and the cluster read: None, the lone observer answering every
    event (called directly), else per event the one answering bound
    method, a loop in joining order, or a no-op that is no Python frame."""
    from repro.cluster.builder import EVENTS

    calls = []

    Full = type("Full", (), {  # answers every event
        e: lambda self, *args, e=e: calls.append(("full", e)) for e in EVENTS})

    class Deliveries:  # answers one
        def on_deliver(self, conn, h):
            calls.append(("deliveries", "on_deliver"))

    cluster = _launch("static", on_demand=False,
                      congestion=make_congestion_config("pfc"))

    def the_slot():  # the one object every layer reads
        layers = [cluster.observer, cluster.fabric.congestion.observer,
                  *(ep.observer for ep in cluster.endpoints)]
        assert all(layer is layers[0] for layer in layers)
        return layers[0]

    assert the_slot() is None
    full, deliveries = Full(), Deliveries()
    cluster.observe(full)
    assert the_slot() is full
    cluster.observe(deliveries)
    slot = the_slot()
    assert slot.on_emit == full.on_emit  # a bound method: no wrapper frame
    slot.on_deliver(None, None)
    assert calls == [("full", "on_deliver"), ("deliveries", "on_deliver")]
    cluster.unobserve(full)
    slot = the_slot()
    assert slot.on_deliver == deliveries.on_deliver
    assert not hasattr(slot.on_emit, "__code__")  # ignored: a C function
    slot.on_emit(None, None, False)
    assert len(calls) == 2
    cluster.unobserve(deliveries)
    assert the_slot() is None


# ----------------------------------------------------------------------
# (b) disarm-then-arm: every ordered pair on one cluster
# ----------------------------------------------------------------------
@pytest.mark.parametrize("second", ARMABLE)
@pytest.mark.parametrize("first", ARMABLE)
def test_the_next_arming_replaces_the_previous_one(first, second):
    cluster = _launch("static", on_demand=True)
    assert _job(cluster, 1, **ARMABLE[first][0]())[0].completed
    # a FaultInjectorError ("fabric already has a fault state installed")
    # here was the parent's answer to two faulted jobs in a row
    r, _ = _job(cluster, 3, **ARMABLE[second][0]())
    doc = r.report()
    assert r.completed
    assert doc["armed"] == [ARMABLE[second][1]]
    assert SECTIONS & set(doc) == {ARMABLE[second][1]}
    assert [sub.name for sub in cluster.armed] == doc["armed"]


# ----------------------------------------------------------------------
# (c) the report
# ----------------------------------------------------------------------
def _everything_armed(scheme):
    config = TestbedConfig(nodes=NRANKS)
    config.ib.congestion = make_congestion_config("both")
    return run_job(
        _ring(3), NRANKS, scheme, 2, config=config, on_demand=True,
        faults=_drop_plan(), audit=True, recovery=RecoveryPolicy(seed=5),
        ft=FTConfig(seed=5),
        cm_chaos=CM_CHAOS,
    )


@pytest.mark.parametrize("scheme", SCHEMES)
def test_report_is_deterministic_and_complete(scheme):
    r = _everything_armed(scheme)
    doc = r.report()
    canon = json.dumps(doc, sort_keys=True)
    assert canon == json.dumps(_everything_armed(scheme).report(), sort_keys=True)
    assert doc["schema"] == 1
    assert (doc["scheme"], doc["nranks"], doc["prepost"]) == (scheme, NRANKS, 2)
    assert doc["wiring"] == "on-demand" and doc["congestion_mode"] == "both"
    # one section per armed subsystem, in arming order
    assert doc["armed"] == ["audit", "recovery", "ft", "cm_chaos", "faults"]
    assert all(isinstance(doc[name], dict) for name in doc["armed"])
    assert doc["completed"] and doc["failures"] == []
    assert doc["fc"] == r.fc_dict()
    assert doc["memory"] == r.memory.to_dict()
    assert doc["congestion"] == r.congestion.to_dict()
    assert doc["cm"] == {"established": r.connections_established}
    assert doc["audit"] == r.audit.summary()
    assert doc["faults"] == {n: v for n, v in doc["counters"].items()
                             if n.startswith("faults.")} != {}


def _has_none(value):
    if isinstance(value, dict):
        return any(_has_none(v) for v in value.values())
    if isinstance(value, list):
        return any(_has_none(v) for v in value)
    return value is None


def test_an_unarmed_jobs_document_has_no_sections_and_no_placeholders():
    r = run_job(_ring(1), NRANKS, "static", 2)
    doc = r.report()
    assert doc["armed"] == [] and doc["wiring"] == "mesh"
    assert doc["congestion_mode"] == "off"
    assert not ({"cm", "congestion"} | SECTIONS) & set(doc)
    assert not _has_none(doc)
    json.dumps(doc)  # serialisable as it stands


def test_a_later_job_does_not_change_an_earlier_document():
    cluster = _launch("hardware", on_demand=True)
    first, _ = _job(cluster, 3, faults=_drop_plan(), audit=True, recovery=True,
                    ft=True, cm_chaos=CM_CHAOS)
    before = json.dumps(first.report(), sort_keys=True)
    _job(cluster, 1, faults=_drop_plan(), audit=True)
    _job(cluster, 3)
    assert json.dumps(first.report(), sort_keys=True) == before


def test_a_failed_job_reports_its_records_and_what_was_armed():
    plan = FaultPlan(
        seed=7, transport_timeout_ns=us(40), transport_retry_limit=2
    ).link_flap(lid=1, at_ns=us(5), duration_ns=us(5000))
    r = run_job(_ring(1, rounds=20), NRANKS, "static", 2, faults=plan)
    doc = r.report()
    assert not doc["completed"]
    assert doc["failures"] == [f.to_dict() for f in r.failures] != []
    assert doc["faults"]["faults.link_flap"] == 1


# ----------------------------------------------------------------------
# the crossings that went wrong on the parent, one test each
# ----------------------------------------------------------------------
def test_a_fault_plans_clock_is_the_jobs_clock():
    """Plan times were absolute: on a reused cluster (``sim.now`` far past
    them) arming raised ``SimulationError: cannot schedule at t=...``."""
    cluster = _launch("static", on_demand=False)
    _job(cluster)
    started = cluster.sim.now
    assert started > us(1)  # past the plan's first transition
    r, _ = _job(cluster, faults=_drop_plan())
    assert r.completed and r.report()["faults"]["faults.wire_drop"] > 0
    # ... and the same plan does the same thing at t0 = 0
    fresh = run_job(_ring(1), NRANKS, "static", 2, faults=_drop_plan(),
                    config=TestbedConfig(nodes=NRANKS))
    assert fresh.report()["faults"]["faults.drop_window"] == 1


def test_the_job_after_a_faulted_one_runs_on_a_healthy_transport():
    cluster, jobs = _three_jobs("static", False, faults=_drop_plan())
    assert {hca.fault_transport for hca in cluster.hcas} == {None}
    assert not any(qp._req._xport_enabled
                   for hca in cluster.hcas for qp in hca._qps.values())
    # an empty plan arms every QP's ACK timeout and changes nothing else:
    # the job after it takes the never-faulted number of events
    _, after_empty = _three_jobs("static", False, faults=FaultPlan(seed=7))
    _, never = _three_jobs("static", False)
    assert after_empty[2][1] == never[2][1]


def _second_job_xfail(raises, what):
    return pytest.mark.xfail(strict=True, raises=raises,
                             reason=f"open (ROADMAP 4(c)): {what}")


@pytest.mark.parametrize("scheme, prepost, on_demand", [
    pytest.param("static", 2, True, id="static-on-demand", marks=_second_job_xfail(
        RuntimeError, "on demand the second job deadlocks: the poll batch the "
        "first job's raised failure interrupted lost its completions (rank 0 "
        "keeps _sends_open == 5), and the killed program's posted receive "
        "stays in rank 1's matching queue")),
    pytest.param("static", 2, False, id="static-mesh", marks=_second_job_xfail(
        QPError, "on a mesh the pair stays in ERROR: post_send raises")),
    pytest.param("dynamic", 8, False, id="dynamic-mesh", marks=_second_job_xfail(
        QPError, "on a mesh the pair stays in ERROR: post_send raises")),
    pytest.param("rdma-eager", 8, False, id="rdma-eager-mesh", marks=_second_job_xfail(
        QPError, "on a mesh the pair stays in ERROR: post_send raises")),
])
def test_a_job_after_a_lost_pair_runs_clean(scheme, prepost, on_demand):
    """The first job loses its one pair for good: a link outage outlives
    the transport retries and the one recovery attempt.  A plain job on
    the same cluster should then run as on a fresh one."""
    cluster = Cluster(TestbedConfig(nodes=2))
    cluster.launch(2, make_scheme(scheme), prepost, on_demand=on_demand)
    plan = (FaultPlan(seed=7, transport_timeout_ns=us(40), transport_retry_limit=4)
            .link_flap(lid=1, at_ns=us(100), duration_ns=us(1_500)))
    lost = run_job(_flood(30), 2, scheme, prepost, cluster=cluster, faults=plan,
                   recovery=RecoveryPolicy(max_attempts=1))
    assert [f.cause for f in lost.failures] == ["retry_exceeded"]
    again = run_job(_flood(30), 2, scheme, prepost, cluster=cluster)
    assert again.completed and not again.failures


def test_arming_a_fault_plan_on_a_mesh_builds_no_requester(monkeypatch):
    """The ACK timeout is adapter-wide while a plan is armed
    (``hca.fault_transport``): the injector turns each wired QP's transport
    settings in place, a pair wired during the faulted
    job reads the adapter's settings, and the rest of the mesh stays
    unwired."""
    nranks = 32
    cluster = _launch("static", on_demand=False, nranks=nranks)
    _job(cluster, 1)  # so that arming finds requesters to update ...
    before = [qp for hca in cluster.hcas for qp in hca._qps.values()]
    pristine = _attachments(cluster)
    plan = scenario_job("lossy-window")["faults"]
    armed = (plan.transport_timeout_ns, plan.transport_retry_limit)
    built, seen = [], []
    init = Requester.__init__
    monkeypatch.setattr(Requester, "__init__",
                        lambda req, xport: built.append(xport) or init(req, xport))

    def program(mpi):  # ... and wires more while armed (stride 3)
        if mpi.rank == 0:
            seen.append({(qp._req._xport_enabled, qp._req._xport_timeout_ns,
                          qp._req._xport_limit) for qp in before})
            seen.append(len(built))
        yield from _ring(3, rounds=40)(mpi)

    r = run_job(program, nranks, "static", 2, cluster=cluster, faults=plan)
    assert r.completed and r.report()["faults"]["faults.wire_drop"] > 0
    assert seen == [{(True, *armed)}, 0]  # arming built no requester
    during = [qp for hca in cluster.hcas for qp in hca._qps.values() if qp not in before]
    assert during and all(qp._req._xport_timeout_ns == armed[0] for qp in during)
    assert len(built) == len(during)  # one a QP, wired while armed
    assert r.fc.retransmissions > 0  # their ACK timeouts ran
    assert len(before) + len(during) < nranks * (nranks - 1) // 2  # rings and barriers
    _job(cluster, 1)  # disarms
    assert _attachments(cluster) == pristine


def test_setup_chaos_ends_with_its_job():
    cluster = _launch("static", on_demand=True)
    seen = []

    def watching(program):
        def wrapped(mpi):
            seen.append(cluster.cm._chaos)
            yield from program(mpi)
        return wrapped

    run_job(watching(_ring(1)), NRANKS, "static", 2, cluster=cluster,
            cm_chaos=CM_CHAOS)
    assert all(chaos is not None for chaos in seen)
    del seen[:]
    run_job(watching(_ring(3)), NRANKS, "static", 2, cluster=cluster)
    assert seen == [None] * NRANKS


def test_counters_are_per_job_like_the_flow_control_report():
    """Nothing reset the tracer: ``ib.rnr_nak`` read 7, 14, 21 over three
    jobs whose ``fc.rnr_naks`` read 7, 7, 7."""

    def flood(mpi):  # overruns two posted buffers: hardware RNR-NAKs
        if mpi.rank == 0:
            reqs = []
            for _ in range(12):
                reqs.append((yield from mpi.isend(1, size=512)))
            yield from mpi.waitall(reqs)
        elif mpi.rank == 1:
            yield from mpi.compute(us(100))
            for _ in range(12):
                yield from mpi.recv(0, capacity=512)

    cluster = _launch("hardware", on_demand=False)
    naks = []
    for _ in range(3):
        r = run_job(flood, NRANKS, "hardware", 2, cluster=cluster)
        assert r.report()["counters"]["ib.rnr_nak"] == r.fc.rnr_naks > 0
        naks.append(r.fc.rnr_naks)
    assert len(set(naks)) == 1


def _layer_counts(cluster):
    """The counters the fabric, the CQs and the matching engines keep for
    themselves (no report reads them; tests and benchmarks do)."""
    fabric, eps = cluster.fabric, cluster.endpoints
    return {
        "messages_sent": fabric.messages_sent,
        "control_msgs": fabric.control_msgs,
        "payload_bytes": fabric.payload_bytes,
        "wire_bytes": fabric.wire_bytes,
        "cross_leaf_msgs": fabric.cross_leaf_msgs,
        "cross_pod_msgs": fabric.cross_pod_msgs,
        "link_msgs": dict(fabric.link_msgs),
        "total_completions": [ep.cq.total_completions for ep in eps],
        "total_unexpected": [ep.matching.total_unexpected for ep in eps],
        "unexpected_peak": [ep.matching.unexpected_peak for ep in eps],
    }


@pytest.mark.parametrize("on_demand", [False, True], ids=["mesh", "on-demand"])
def test_the_layers_own_counters_are_per_job_too(on_demand):
    """Nothing reset the fabric's, the CQs' or the matching engines' own
    counters either: ``fabric.messages_sent`` read 224, 448, 672 over three
    identical jobs whose ``fc.total_msgs`` read 224, 224, 224.  Plain →
    plain → plain on one cluster, each against a fresh cluster's counts
    (``hardware``: no credit state for an earlier job to leave behind)."""
    nranks = 32

    def crossed_ring(mpi):  # tag 0 lands before its receive: unexpected
        nxt, prv = (mpi.rank + 9) % nranks, (mpi.rank - 9) % nranks
        sreqs = []
        for tag in (0, 1):
            sreqs.append((yield from mpi.isend(nxt, size=1024, tag=tag)))
        for tag in (1, 0):
            yield from mpi.recv(prv, capacity=4096, tag=tag)
        yield from mpi.waitall(sreqs)

    def launch():  # four pods of two 4-host leaves: stride 9 crosses pods
        cluster = Cluster(TestbedConfig(
            nodes=nranks, topology="fat-tree", levels=3, leaf_ports=4,
            pod_leaves=2, spines=2, cores=2))
        cluster.launch(nranks, make_scheme("hardware"), 2, on_demand=on_demand)
        return cluster

    fresh = launch()
    total = run_job(crossed_ring, nranks, "hardware", 2, cluster=fresh).fc.total_msgs
    expected = _layer_counts(fresh)
    assert expected["messages_sent"] == total > 0
    assert expected["cross_pod_msgs"] > 0 and expected["link_msgs"]
    assert sum(expected["total_unexpected"]) == nranks
    assert set(expected["unexpected_peak"]) == {1}

    cluster = launch()
    for _ in range(3):
        run_job(crossed_ring, nranks, "hardware", 2, cluster=cluster)
        assert _layer_counts(cluster) == expected


def test_a_reused_cluster_keeps_the_prepost_it_was_launched_with():
    cluster = _launch("static", on_demand=False, prepost=2)
    with pytest.raises(ValueError, match="prepost 2, job wants 100"):
        run_job(_ring(1), NRANKS, "static", 100, cluster=cluster)


@pytest.mark.parametrize("launched", [False, True], ids=["mesh", "on-demand"])
def test_a_reused_cluster_keeps_the_wiring_it_was_launched_with(launched):
    """An explicit ``on_demand`` that contradicts the cluster is refused by
    name (a mesh cluster ran ``on_demand=True`` jobs and reported them as
    ``"wiring": "mesh"``); ``None`` follows the cluster."""
    cluster = _launch("static", on_demand=launched)
    with pytest.raises(ValueError, match=f"on_demand {launched}, job wants {not launched}"):
        run_job(_ring(1), NRANKS, "static", 2, cluster=cluster, on_demand=not launched)
    wiring = "on-demand" if launched else "mesh"
    for on_demand in (None, launched):
        r = run_job(_ring(1), NRANKS, "static", 2, cluster=cluster, on_demand=on_demand)
        assert r.completed and r.report()["wiring"] == wiring


# ----------------------------------------------------------------------
# an arming that cannot be honoured is refused at the boundary, by name
# ----------------------------------------------------------------------
BAD_ARMING = {
    "ft-dict": ({"ft": {"interval": 3}}, TypeError, "ft"),
    "recovery-str": ({"recovery": "yes"}, TypeError, "recovery"),
    "recovery-none": ({"recovery": None}, TypeError, "recovery"),
    "audit-str": ({"audit": "x"}, TypeError, "audit"),
    "faults-list": ({"faults": [1]}, TypeError, "faults"),
    "cm_chaos-list": ({"on_demand": True, "cm_chaos": ["loss_prob"]}, TypeError, "cm_chaos"),
    "cm_chaos-misspelt": ({"on_demand": True, "cm_chaos": {"los_prob": 0.1}},
                          ValueError, "cm_chaos"),
    "cm_chaos-on-a-mesh": ({"on_demand": False, "cm_chaos": {"loss_prob": 0.1}},
                           ValueError, "cm_chaos"),
    "keyword-misspelt": ({"recovry": True}, TypeError, "recovry"),
}


@pytest.mark.parametrize("case", BAD_ARMING)
def test_bad_arming_is_a_typed_error_naming_the_field(case, monkeypatch):
    arming, error, field = BAD_ARMING[case]

    def must_not_build(*args, **kwargs):
        raise AssertionError("a cluster was built before the arming was refused")

    monkeypatch.setattr(job_module, "Cluster", must_not_build)
    with pytest.raises(error, match=field):
        run_job(_ring(1), NRANKS, "static", 2, **arming)
    if "on_demand" not in arming:
        with pytest.raises(error, match=field):
            Arming(**arming)
        # out of the chaos cell: not a {"completed": False, "error": ...} entry
        with pytest.raises(error, match=field):
            chaos_cell("receiver-stall", "static", **arming)


def test_a_fuzz_spec_with_bad_arming_raises_instead_of_failing_the_scheme():
    spec = fuzz.generate_spec(1)
    with pytest.raises(TypeError, match="faults"):
        fuzz.run_spec({**spec, "faults": [1]}, "static")


def test_arming_validates_by_building_and_is_reusable():
    arming = Arming(audit=True, recovery=True, ft=FTConfig(seed=1),
                    faults={"seed": 4})
    first, second = arming.subsystems(), arming.subsystems()
    assert [s.name for s in first] == ["audit", "recovery", "ft", "faults"]
    assert not {id(s) for s in first} & {id(s) for s in second}
    assert isinstance(first[0], Auditor) and first[3].plan.seed == 4
    with pytest.raises(ValueError, match="loss_prob"):
        Arming(on_demand=True, cm_chaos={"loss_prob": 1.0})  # a bad value too
    # the fields round-trip through run_job's keywords
    r = run_job(_ring(1), NRANKS, "static", 2, **vars(arming))
    assert r.report()["armed"] == ["audit", "recovery", "ft", "faults"]
