"""One lifecycle for every armable subsystem, one report for every job,
one job for every cluster.

``run_job`` arms its ``Arming`` on a cluster that has not run a job and
reports the job as one document.  A cluster owns its connections for one
job, as an MPI job owns them from ``MPI_Init`` to ``MPI_Finalize``: a
cluster that ran a job is refused by name, before anything is armed or
spawned, so nothing armed is ever taken off a cluster and no counter is
reset.  The matrix below crosses every armable subsystem with a fresh
cluster built after it and with the used cluster's refusal.
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
from repro.ib.qp import Requester
from repro.recovery import RecoveryPolicy
from repro.recovery.manager import RecoveryManager
from repro.sim.units import us

from tests.test_faults_injection import _flood
from tests.test_quiescence import _ring as _ring_of_four

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
    # events (so the plan's clock matters) and a finite retry limit
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


def _launch(scheme, on_demand, prepost=2, congestion=None, nranks=NRANKS, config=None):
    if config is None:
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


def _attachments(cluster):
    """Every point a subsystem's ``arm`` attaches to."""
    cong = cluster.fabric.congestion
    qps = [qp for hca in cluster.hcas for qp in hca._qps.values()]
    return {
        "cluster": (cluster.observer, cluster._observers, cluster.ft),
        "endpoints": [(ep.observer, ep._recovery, ep._ft) for ep in cluster.endpoints],
        "fabric.fault": cluster.fabric.fault,
        "congestion.observer": cong.observer if cong is not None else None,
        "hca.fault_transport": {hca.fault_transport for hca in cluster.hcas},
        "qp transport retry": {
            (qp._req._xport_enabled, qp._req._xport_timeout_ns, qp._req._xport_limit,
             qp._req._xport_timer) for qp in qps
        },
        "cm._chaos": cluster.cm._chaos if cluster.cm is not None else None,
    }


def _as_it_stands(cluster):
    """What a refused job must leave as it found it: the attachments, the
    counters, the clock and the rank processes."""
    fabric = cluster.fabric
    return (_attachments(cluster), cluster.tracer.summary(),
            (fabric.messages_sent, fabric.control_msgs, fabric.wire_bytes),
            [(ep.cq.total_completions, len(ep.cq._entries), ep.matching.total_unexpected)
             for ep in cluster.endpoints],
            cluster.sim.now, cluster.sim.events_executed,
            [(p, p.alive, p.killed, p.result) for p in cluster.procs])


# ----------------------------------------------------------------------
# (a) arming x a fresh cluster: the armed job, then a plain one elsewhere
# ----------------------------------------------------------------------
#: set-up chaos needs a connection manager: no mesh arm
MATRIX = [(armable, on_demand) for armable in ARMABLE
          for on_demand in (False, True) if on_demand or armable != "cm_chaos"]


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize(
    "armable, on_demand", MATRIX,
    ids=[f"{a}-{'on-demand' if od else 'mesh'}" for a, od in MATRIX])
def test_an_armed_job_leaves_nothing_behind(armable, on_demand, scheme):
    """An armed job arms its own cluster and nothing else: a cluster built
    afterwards from the same configuration runs a plain job as one that
    nothing was ever armed beside (no shared configuration, plan or class
    carries the arming), and the used cluster refuses a second job."""
    make, section, free_when_clean = ARMABLE[armable]
    config = TestbedConfig(nodes=NRANKS)
    cluster = _launch(scheme, on_demand, config=config)
    r, _ = _job(cluster, 3, **make())
    doc = r.report()
    assert r.completed and doc["armed"] == [section] and section in doc
    if armable in ("drop-plan", "cm_chaos"):
        assert doc[section], "the armed job never engaged the subsystem"
    with pytest.raises(RuntimeError, match="already ran a job"):
        _job(cluster, 1)

    after, after_events = _job(_launch(scheme, on_demand, config=config), 1)
    never, never_events = _job(_launch(scheme, on_demand), 1)
    assert after_events == never_events and after.report() == never.report()
    assert after.report()["armed"] == [] and not SECTIONS & set(after.report())

    if free_when_clean:
        # the armed job changed nothing: it runs as its plain twin
        plain, _ = _job(_launch(scheme, on_demand), 3)
        assert r.elapsed_ns == plain.elapsed_ns and r.fc == plain.fc


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

    def launch():
        return _launch("static", on_demand=False,
                       congestion=make_congestion_config("pfc"))

    def the_slot(cluster):  # the one object every layer reads
        layers = [cluster.observer, cluster.fabric.congestion.observer,
                  *(ep.observer for ep in cluster.endpoints)]
        assert all(layer is layers[0] for layer in layers)
        return layers[0]

    cluster = launch()
    assert the_slot(cluster) is None
    full, deliveries = Full(), Deliveries()
    cluster.observe(full)
    assert the_slot(cluster) is full
    cluster.observe(deliveries)
    slot = the_slot(cluster)
    assert slot.on_emit == full.on_emit  # a bound method: no wrapper frame
    slot.on_deliver(None, None)
    assert calls == [("full", "on_deliver"), ("deliveries", "on_deliver")]

    cluster = launch()  # an observer answering one event, alone
    cluster.observe(deliveries)
    slot = the_slot(cluster)
    assert slot.on_deliver == deliveries.on_deliver
    assert not hasattr(slot.on_emit, "__code__")  # ignored: a C function
    slot.on_emit(None, None, False)
    assert len(calls) == 2


# ----------------------------------------------------------------------
# (b) the next arming: every ordered pair, the second on a new cluster
# ----------------------------------------------------------------------
@pytest.mark.parametrize("second", ARMABLE)
@pytest.mark.parametrize("first", ARMABLE)
def test_the_next_arming_replaces_the_previous_one(first, second):
    """The next job's arming takes a new cluster: the one the previous job
    ran on refuses it before arming anything and stays as that job left
    it, and on the new cluster it is the one arming the job reports."""
    cluster = _launch("static", on_demand=True)
    assert _job(cluster, 1, **ARMABLE[first][0]())[0].completed
    before = _as_it_stands(cluster)
    with pytest.raises(RuntimeError, match="already ran a job"):
        _job(cluster, 3, **ARMABLE[second][0]())
    assert _as_it_stands(cluster) == before
    r, _ = _job(_launch("static", on_demand=True), 3, **ARMABLE[second][0]())
    doc = r.report()
    assert r.completed
    assert doc["armed"] == [ARMABLE[second][1]]
    assert SECTIONS & set(doc) == {ARMABLE[second][1]}


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
    """Neither a refused job on the same cluster nor a later job sharing
    the fault plan, on a cluster of the same configuration, touches the
    document of the first."""
    cluster, plan = _launch("hardware", on_demand=True), _drop_plan()
    first, _ = _job(cluster, 3, faults=plan, audit=True, recovery=True,
                    ft=True, cm_chaos=CM_CHAOS)
    before = json.dumps(first.report(), sort_keys=True)
    with pytest.raises(RuntimeError, match="already ran a job"):
        _job(cluster, 1)
    _job(_launch("hardware", on_demand=True, config=cluster.config), 3,
         faults=plan, audit=True)
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
    """Plan times count from the job's start: on a cluster whose clock
    already stands past them, arming raised ``SimulationError: cannot
    schedule at t=...`` while they were absolute."""
    cluster = _launch("static", on_demand=False)
    cluster.sim.call_later(us(500), int)
    cluster.sim.run()
    assert cluster.sim.now > us(1)  # past the plan's first transition
    r, _ = _job(cluster, faults=_drop_plan())
    assert r.completed and r.report()["faults"]["faults.wire_drop"] > 0
    # ... and the same plan does the same thing at t0 = 0
    fresh = run_job(_ring(1), NRANKS, "static", 2, faults=_drop_plan(),
                    config=TestbedConfig(nodes=NRANKS))
    assert fresh.report() == r.report()


def test_arming_a_fault_plan_on_a_mesh_builds_no_requester(monkeypatch):
    """The ACK timeout is adapter-wide while a plan is armed
    (``hca.fault_transport``): the injector turns each wired QP's transport
    settings in place, a pair wired during the faulted
    job reads the adapter's settings, and the rest of the mesh stays
    unwired."""
    nranks = 32
    cluster = _launch("static", on_demand=False, nranks=nranks)
    for ep in cluster.endpoints:  # so that arming finds requesters to update ...
        cluster.wire(ep, (ep.rank + 1) % nranks)
        ep.idle_connection()  # (the reports' stand-in, built once)
    before = [qp for hca in cluster.hcas for qp in hca._qps.values()]
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


def test_counters_are_per_job_like_the_flow_control_report():
    """The tracer's counters and the flow-control report count the same
    job: ``ib.rnr_nak`` reads ``fc.rnr_naks``."""

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

    r = run_job(flood, NRANKS, "hardware", 2, cluster=_launch("hardware", on_demand=False))
    assert r.report()["counters"]["ib.rnr_nak"] == r.fc.rnr_naks > 0


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
    """The fabric's, the CQs' and the matching engines' own counters count
    the job as the flow-control report does: ``fabric.messages_sent`` reads
    ``fc.total_msgs``, and a second cluster's job reads alike."""
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
        cluster = _launch("static", on_demand=launched)
        r = run_job(_ring(1), NRANKS, "static", 2, cluster=cluster, on_demand=on_demand)
        assert r.completed and r.report()["wiring"] == wiring


def test_reused_cluster_validates_mismatches():
    scheme = make_scheme("static")
    cluster = Cluster(TestbedConfig(nodes=2))
    cluster.launch(2, scheme, prepost=2)
    with pytest.raises(ValueError):
        run_job(_ring(1), 3, scheme, prepost=2, cluster=cluster)
    with pytest.raises(ValueError):
        run_job(_ring(1), 2, "hardware", prepost=2, cluster=cluster)
    with pytest.raises(RuntimeError, match="never launched"):
        run_job(_ring(1), 2, scheme, prepost=2,
                cluster=Cluster(TestbedConfig(nodes=2)))


def _lost_pair(on_demand):
    """The first job loses its one pair for good: a link outage outlives
    the transport retries and the one recovery attempt."""
    cluster = Cluster(TestbedConfig(nodes=2))
    cluster.launch(2, make_scheme("static"), 2, on_demand=on_demand)
    plan = (FaultPlan(seed=7, transport_timeout_ns=us(40), transport_retry_limit=4)
            .link_flap(lid=1, at_ns=us(100), duration_ns=us(1_500)))
    r = run_job(_flood(30), 2, "static", 2, cluster=cluster, faults=plan,
                recovery=RecoveryPolicy(max_attempts=1))
    assert [f.cause for f in r.failures] == ["retry_exceeded"]
    return cluster, _flood(30)


def _rank_death():
    """Rank 2 dies mid-ring, and with its adapter rank 6; ft stands for
    them."""
    cluster = Cluster(TestbedConfig(nodes=4))
    cluster.launch(8, make_scheme("static"), 2)
    r = run_job(_ring_of_four, 8, "static", 2, cluster=cluster, ft=True,
                faults=FaultPlan(seed=7).rank_death(rank=2, at_ns=us(30)))
    assert sorted(f.rank for f in r.failures) == [2, 6]
    return cluster, _ring_of_four


def _completed():
    cluster = _launch("static", on_demand=False)
    assert _job(cluster)[0].completed
    return cluster, _ring(1)


FIRST_JOBS = {
    "completed": _completed,
    "lost-pair-mesh": lambda: _lost_pair(on_demand=False),
    "lost-pair-on-demand": lambda: _lost_pair(on_demand=True),
    "rank-death": _rank_death,
}


@pytest.mark.parametrize("first", FIRST_JOBS)
def test_a_cluster_that_ran_a_job_refuses_the_next_by_name(first, monkeypatch):
    """Whatever the first job left — a completed run, a pair lost for good
    (its QPs in ERROR, its flushed completions and a killed program's
    receive still posted), a dead rank — the next ``run_job`` on the
    cluster raises before it arms or spawns anything, and the cluster's
    counters, observers and processes stay as they were."""
    cluster, program = FIRST_JOBS[first]()
    before = _as_it_stands(cluster)

    def must_not(*args, **kwargs):
        raise AssertionError("armed or spawned on a used cluster")

    monkeypatch.setattr(type(cluster.sim), "spawn", must_not)
    for cls in (Auditor, RecoveryManager):
        monkeypatch.setattr(cls, "arm", must_not)
    ep = cluster.endpoints[0]
    with pytest.raises(RuntimeError,
                       match="this cluster already ran a job; build a fresh Cluster"):
        run_job(program, len(cluster.endpoints), ep.scheme.name.value,
                ep.requested_prepost, cluster=cluster, audit=True, recovery=True)
    assert _as_it_stands(cluster) == before


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
