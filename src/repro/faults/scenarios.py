"""Canonical chaos scenarios and the per-scheme robustness report.

A scenario is data: one JSON-able entry of :data:`SCENARIOS` with a
``description``, ``nranks``, ``prepost``, a ``workload`` (``{"name": <a
WORKLOADS key>, **params}``), ``faults`` (a :meth:`FaultPlan.from_spec`
dict or ``None``) and, optionally, ``arming`` (``run_job`` subsystem
keywords), ``testbed`` (:class:`TestbedConfig` overrides, ``ib`` nested)
and ``victim_rank`` (the rank whose finish time is a congestion
scenario's head-of-line-blocking metric: an innocent flow sharing switch
resources with the hot flows).  The run's seed fills in the plan's
``seed`` and the ``cm_chaos`` mapping's.  :func:`scenario_job` is the one
place an entry becomes a job.  ``EXPERIMENTS.md`` has the expected
per-scheme outcomes; ``tests/golden/chaos_golden.json`` pins the reports.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Generator, Iterable, List, Mapping, Optional, Tuple, Union

from repro.cluster.arming import Arming
from repro.cluster.config import TestbedConfig
from repro.cluster.job import run_job
from repro.congestion.config import DROP_RETRY_TIMEOUT_NS, make_congestion_config
from repro.core import SCHEME_NAMES
from repro.faults.plan import FaultPlan
from repro.ib.types import IBConfig
from repro.mpi.protocol import ANY_TAG
from repro.sim.units import to_us, us
from repro.workloads.microbench import manyflows_program


def _flood_program(msgs: int, msg_bytes: int) -> Callable:
    """Rank 0 floods rank 1 with eager messages; rank 1 consumes them."""

    def program(mpi) -> Generator:
        if mpi.rank == 0:
            reqs = []
            for _ in range(msgs):
                reqs.append((yield from mpi.isend(1, size=msg_bytes)))
            yield from mpi.waitall(reqs)
        else:
            for _ in range(msgs):
                yield from mpi.recv(0, capacity=msg_bytes)
        return mpi.now

    return program


def _ring_program(rounds: int, msg_bytes: int) -> Callable:
    """Neighbour exchange around a ring (every link carries traffic)."""

    def program(mpi) -> Generator:
        n = mpi.world_size
        right = (mpi.rank + 1) % n
        left = (mpi.rank - 1) % n
        for _ in range(rounds):
            rreq = yield from mpi.irecv(source=left, capacity=msg_bytes)
            sreq = yield from mpi.isend(right, size=msg_bytes)
            yield from mpi.waitall([rreq, sreq])
        return mpi.now

    return program


def _rank_death_program(victim: int) -> Callable:
    """Every survivor owes the victim a rendezvous-size send (in-flight
    data the transport will declare unreachable) and expects a reply that
    never comes (pending work the heartbeat detector watches); a light
    survivor-to-survivor ring shows the rest of the fabric stays live."""

    def program(mpi) -> Generator:
        n = mpi.world_size
        if mpi.rank == victim:
            for src in range(n):
                if src != victim:
                    yield from mpi.recv(src, capacity=1 << 16)
            for dst in range(n):  # never reached: death hits mid-receive
                if dst != victim:
                    yield from mpi.send(dst, size=256)
            return "victim-survived?"
        sreq = yield from mpi.isend(victim, size=50_000)
        rreq = yield from mpi.irecv(source=victim, capacity=1 << 16)
        survivors = [r for r in range(n) if r != victim]
        i = survivors.index(mpi.rank)
        right = survivors[(i + 1) % len(survivors)]
        left = survivors[(i - 1) % len(survivors)]
        ring_r = yield from mpi.irecv(source=left, capacity=1024)
        yield from mpi.send(right, size=512)
        st_send = yield from mpi.wait(sreq)
        st_recv = yield from mpi.wait(rreq)
        st_ring = yield from mpi.wait(ring_r)
        return {"send_error": st_send.error, "recv_error": st_recv.error,
                "ring_error": st_ring.error}

    return program


def _fuzz_program(seed: int, messages: List[list]) -> Callable:
    """The differential fuzzer's program (:mod:`repro.check.fuzz`): the
    ``[src, dst, tag, size]`` messages, each rank returning what it was
    delivered as ``[source, tag, size, uid]`` (``uid``: the message's index).

    Every rank posts receives for its inbound messages in a seeded shuffled
    order, a quarter of them *deferred* until after its sends (exercising
    the unexpected queue), issues its sends in list order and waits for
    everything.  A posted receive fits the pair's largest message, since
    the matcher may hand it any of them.  Per (src, dst) pair the receives
    are either all wildcard-tag or all specific-tag: mixing the two can
    strand a specific-tag receive behind a wildcard that stole its message
    (legal MPI, but then delivery depends on arrival order and the program
    may deadlock; the fuzzer wants scheme differences, not program races).
    """
    pair_max: Dict[Tuple[int, int], int] = {}
    for src, dst, _tag, size in messages:
        pair_max[src, dst] = max(size, pair_max.get((src, dst), 0))

    def program(ep) -> Generator:
        rank = ep.rank
        rng = random.Random(seed * 1_000_003 + rank)
        inbound = [(uid, m) for uid, m in enumerate(messages) if m[1] == rank]
        rng.shuffle(inbound)
        wildcard_sources = {src for src in sorted({m[0] for _, m in inbound})
                            if rng.random() < 0.25}
        recv_plan = [(src, ANY_TAG if src in wildcard_sources else tag,
                      pair_max[src, rank]) for _, (src, _dst, tag, _size) in inbound]
        n_early = len(recv_plan) - len(recv_plan) // 4

        recv_reqs = []
        for src, tag, cap in recv_plan[:n_early]:
            recv_reqs.append((yield from ep.irecv(source=src, capacity=cap, tag=tag)))
        requests = []
        for uid, (src, dst, tag, size) in enumerate(messages):
            if src == rank:
                requests.append((yield from ep.isend(dst, size, tag=tag,
                                                     payload=("uid", uid))))
        for src, tag, cap in recv_plan[n_early:]:
            recv_reqs.append((yield from ep.irecv(source=src, capacity=cap, tag=tag)))
        statuses = yield from ep.waitall(requests + recv_reqs)
        return [(st.source, st.tag, st.size,
                 st.payload[1] if isinstance(st.payload, tuple) else None)
                for st in statuses[len(requests):]]

    return program


#: a scenario's ``workload["name"]`` -> its program builder
WORKLOADS: Dict[str, Callable[..., Callable]] = {
    "flood": _flood_program,
    "ring": _ring_program,
    # flows are ``[src, dst, msgs, msg_bytes]``
    "manyflows": manyflows_program,
    "rank-death": _rank_death_program,
    "fuzz": _fuzz_program,
}


# ----------------------------------------------------------------------
# the scenario table
# ----------------------------------------------------------------------
# ~10 RNR-timer periods (320 us each) of starvation from just after
# launch: the receiver is descheduled while the sender's burst lands.
_STALL = {"events": [{"kind": "receiver_stall", "rank": 1,
                      "at_ns": us(5), "duration_ns": us(3200)}]}

# Burst sized to prepost + optimistic headroom: user-level senders
# absorb it exactly (4 paid sends + 3 rendezvous RTSs), while the
# hardware scheme overruns its 4 posted buffers and storms.
_BURST = {"name": "flood", "msgs": 7, "msg_bytes": 1024}

# No fault events — the plan only arms the transport ACK-timeout retry
# up front, with the same timeout a congestion drop would arm.
_CONGESTION = {"transport_timeout_ns": DROP_RETRY_TIMEOUT_NS}

SCENARIOS: Dict[str, Dict[str, Any]] = {
    "receiver-stall": {
        "description": "2-rank eager burst into a descheduled (slow-consumer) receiver",
        "nranks": 2,
        "prepost": 4,
        "workload": _BURST,
        "faults": _STALL,
    },
    "flappy-link": {
        "description": "4-rank ring exchange; one host link flaps down twice",
        "nranks": 4,
        "prepost": 8,
        "workload": {"name": "ring", "rounds": 40, "msg_bytes": 512},
        # The link under rank 2 drops twice while the ring is hot.
        "faults": {"events": [
            {"kind": "link_flap", "lid": 2, "at_ns": us(150), "duration_ns": us(250)},
            {"kind": "link_flap", "lid": 2, "at_ns": us(700), "duration_ns": us(250)}]},
    },
    "lossy-window": {
        "description": "2-rank eager flood through a 15% probabilistic drop window",
        "nranks": 2,
        "prepost": 8,
        "workload": {"name": "flood", "msgs": 150, "msg_bytes": 1024},
        # 15 % loss on the flood pair for 350 us, then a clean tail.
        "faults": {"events": [
            {"kind": "drop_window", "at_ns": us(50), "duration_ns": us(350),
             "probability": 0.15, "lids": [0, 1]}]},
    },
    "link-down-permanent": {
        "description": "2-rank flood; link outage outlives the transport retry budget",
        "nranks": 2,
        "prepost": 8,
        "workload": {"name": "flood", "msgs": 30, "msg_bytes": 1024},
        # A 1.5 ms outage against a 40 us ACK timeout with only 4 transport
        # retries: the go-back-N ladder is exhausted long before the link
        # returns, so the QP pair goes fatal (RETRY_EXCEEDED) mid-stream.
        "faults": {"transport_timeout_ns": us(40), "transport_retry_limit": 4,
                   "events": [{"kind": "link_flap", "lid": 1, "at_ns": us(100),
                               "duration_ns": us(1500)}]},
    },
    "retry-budget": {
        "description": "receiver-stall burst with a finite (3) RNR retry budget",
        "nranks": 2,
        "prepost": 4,
        "workload": _BURST,
        # Same starvation window as receiver-stall.
        "faults": _STALL,
        # 3 RNR retries instead of the verbs "infinite" sentinel: the paper's
        # hardware scheme leans on unbounded RNR replay, so a bounded budget
        # turns sustained starvation into a fatal completion.
        "testbed": {"ib": {"rnr_retry_count": 3}},
    },
    "rank-death": {
        "description": "4-rank exchange; rank 2 dies outright mid-run (needs --ft to "
                       "detect; without it the progress watchdog trips)",
        "nranks": 4,
        "prepost": 8,
        # rank 2: one rank per node on the 8-node default testbed, so only
        # this rank's HCA dies with it
        "workload": {"name": "rank-death", "victim": 2},
        # Default (infinite) transport retry: survivors' transports never give
        # up on the dead peer, so detection is purely the heartbeat detector's
        # doing (with ft) — and without ft the run goes quiet until the
        # progress watchdog declares it, the pre-ft failure mode.  The
        # declaration's Endpoint.sever force-errors the victim-facing QPs,
        # which stops the retry timers and lets the agenda drain.
        "faults": {"events": [{"kind": "rank_death", "rank": 2, "at_ns": us(40),
                               "duration_ns": 1}]},
        # the auditor's watchdog is the no-ft contrast arm, its dead-rank
        # exemptions the ft arm's check
        "arming": {"audit": True},
    },
    "cm-lossy-setup": {
        "description": "on-demand ring whose CM setup exchanges are lost/delayed "
                       "(bounded-retry exponential backoff on the control plane)",
        "nranks": 6,
        "prepost": 4,
        "workload": {"name": "ring", "rounds": 12, "msg_bytes": 512},
        "faults": None,  # control-plane chaos only
        # Lazy connection management, 25 % of its setup exchanges lost and the
        # rest uniformly delayed up to 120 us: enough churn to force retries
        # without (at stock seeds) exhausting the 5-attempt backoff budget.
        "arming": {"on_demand": True,
                   "cm_chaos": {"loss_prob": 0.25, "delay_ns": us(120)}},
    },
    "incast-n1": {
        "description": "8-to-1 incast into rank 0 plus a victim flow to an idle rank",
        "nranks": 10,
        "prepost": 8,
        # Ranks 1..8 flood rank 0; the victim flow 1 -> 9 shares sender 1's
        # injection port and the switch with the hot flows but targets an
        # idle destination.
        "workload": {"name": "manyflows", "flows": [
            *([s, 0, 25, 1024] for s in range(1, 9)), [1, 9, 8, 1024]]},
        "faults": _CONGESTION,
        "testbed": {"nodes": 10},
        "victim_rank": 9,
    },
    "hotspot-skew": {
        "description": "all ranks hammer rank 0 while a light ring flow rides along",
        "nranks": 8,
        "prepost": 8,
        # Every rank hammers rank 0 (the hotspot) while also running a light
        # ring flow 1->2->...->7->1 that measures collateral damage.
        "workload": {"name": "manyflows", "flows": [
            f for r in range(1, 8) for f in ([r, 0, 14, 1024], [r, r % 7 + 1, 10, 1024])]},
        "faults": _CONGESTION,
    },
    "victim-flow": {
        "description": "fat-tree single-spine: 3 hot flows + 1 victim share one uplink",
        "nranks": 8,
        "prepost": 8,
        # Fat-tree, one spine: hot flows 0,1,2 -> 4 and victim 3 -> 5 all
        # cross leaf 0 -> leaf 1 through the same lone uplink queue.
        "workload": {"name": "manyflows", "flows": [
            [0, 4, 20, 1024], [1, 4, 20, 1024], [2, 4, 20, 1024], [3, 5, 6, 1024]]},
        "faults": _CONGESTION,
        "testbed": {"nodes": 8, "topology": "fat-tree", "leaf_ports": 4, "spines": 1},
        "victim_rank": 5,
    },
}


def _entry(scenario: str) -> Mapping[str, Any]:
    try:
        return SCENARIOS[scenario]
    except KeyError:
        raise ValueError(
            f"unknown scenario {scenario!r} (know {sorted(SCENARIOS)})"
        ) from None


def scenario_job(
    scenario: Union[str, Mapping[str, Any]],
    seed: int = 7,
    prepost: Optional[int] = None,
    congestion: Optional[str] = None,
    **arming: Any,
) -> Dict[str, Any]:
    """The scenario — a :data:`SCENARIOS` name, or an entry of that shape
    such as a fuzz spec — as every ``run_job`` keyword but the scheme:
    ``run_job(scheme=..., **scenario_job(name))``.  ``congestion``
    (``"pfc" | "ecn" | "both"``) arms the switch model in the testbed;
    ``arming`` is merged over the scenario's own and validated here, so a
    bad one raises before any job runs."""
    sc = _entry(scenario) if isinstance(scenario, str) else scenario
    params = dict(sc["workload"])
    program = WORKLOADS[params.pop("name")](**params)
    testbed = dict(sc.get("testbed", {}))
    ib = dict(testbed.pop("ib", {}))
    if congestion is not None:
        ib["congestion"] = make_congestion_config(congestion)
    own = dict(sc.get("arming", {}))
    if "cm_chaos" in own:
        own["cm_chaos"] = {**own["cm_chaos"], "seed": seed}
    faults = sc["faults"]
    if isinstance(faults, dict):  # anything else is Arming's to refuse
        faults = FaultPlan.from_spec({**faults, "seed": seed})
    armed = Arming(faults=faults, **{**own, **arming})
    return {
        "program": program,
        "nranks": sc["nranks"],
        "prepost": sc["prepost"] if prepost is None else prepost,
        "config": TestbedConfig(**testbed, ib=IBConfig(**ib)),
        **vars(armed),
    }


# ----------------------------------------------------------------------
# the chaos harness
# ----------------------------------------------------------------------
def chaos_cell(
    scenario: str,
    scheme: str,
    seed: int = 7,
    prepost: Optional[int] = None,
    congestion: Optional[str] = None,
    **arming: Any,
) -> Dict:
    """Run one scheme under the named scenario and return its report entry
    — a projection of :meth:`repro.cluster.job.JobResult.report`.

    This is the unit of work the campaign orchestrator fans out
    (``repro.campaign``) and :func:`run_chaos` assembles.

    ``arming`` is ``run_job`` keywords (``recovery=True``, ``ft=True``)
    merged over the scenario's own; ``recovery`` and ``ft`` add their
    report sections to the entry.  A job that loses a QP pair or a rank
    for good reports ``completed: False`` with the structured failure
    records instead of an exception string; a bad ``arming`` raises — it
    is the caller's bug, not a result.

    With ``congestion`` set (``"pfc" | "ecn" | "both"``) the switch
    congestion subsystem is armed in that mode and the entry gains a
    ``congestion`` sub-dict (pause frames, ECN marks, drops, per-dest
    queue peaks) plus — for scenarios that define a victim flow —
    ``victim_finish_us``.
    """
    job = scenario_job(scenario, seed, prepost, congestion, **arming)
    try:
        result = run_job(scheme=scheme, **job)
    except Exception as exc:  # deterministic failures are part of the report
        return {"completed": False, "error": f"{type(exc).__name__}: {exc}"}
    doc = result.report()
    entry = {"completed": doc["completed"], "elapsed_us": result.elapsed_us}
    if doc["failures"]:
        entry["failures"] = doc["failures"]
    else:
        fc = doc["fc"]
        plan_end = job["faults"].end_ns if job["faults"] is not None else 0
        entry["recovery_us"] = to_us(max(0, doc["elapsed_ns"] - plan_end))
        for name in ("retransmissions", "rnr_naks", "backlog_max",
                     "backlogged_msgs", "rndv_fallbacks", "ecm_msgs"):
            entry[name] = fc[name]
        entry["faults"] = doc.get("faults", {})
        victim = SCENARIOS[scenario].get("victim_rank")
        if victim is not None:
            entry["victim_finish_us"] = to_us(result.rank_results[victim])
        if "congestion" in doc:
            entry["congestion"] = doc["congestion"]
        if "cm" in doc:
            entry["connections_established"] = doc["cm"]["established"]
        if doc.get("cm_chaos"):
            entry["cm"] = doc["cm_chaos"]
    for name in ("recovery", "ft"):
        if name in doc:
            entry[name] = doc[name]
    return entry


def chaos_report(
    scenario: str,
    result: Any,
    seed: int = 7,
    prepost: Optional[int] = None,
    **arming: Any,
) -> Dict:
    """The robustness report of a campaign ``result`` of the scenario's
    ``chaos_grid`` cells, as a plain dict (deterministic content for a
    fixed seed), with ``arming`` — plain-JSON cell parameters — recorded
    as given: the one assembler, behind :func:`run_chaos` and
    ``repro chaos``."""
    sc = _entry(scenario)
    plan = scenario_job(scenario, seed)["faults"]
    return {
        "scenario": scenario,
        "description": sc["description"],
        "seed": seed,
        "nranks": sc["nranks"],
        "prepost": sc["prepost"] if prepost is None else prepost,
        **{"recovery": False, "congestion": None, "ft": False, **arming},
        "fault_window_us": to_us(plan.end_ns) if plan is not None else 0.0,
        "schemes": {out.spec.params["scheme"]: out.metrics for out in result.outcomes},
    }


def chaos_specs(scenario: str, schemes: Iterable[str] = SCHEME_NAMES, **axes: Any) -> List:
    """The named scenario's ``chaos_grid`` cells, one a scheme: what
    :func:`run_chaos` and ``repro chaos`` run.  An unknown name is refused
    before any cell is built."""
    from repro.campaign import grids

    _entry(scenario)
    return grids.chaos_grid(scenarios=[scenario], schemes=schemes, **axes)


def run_chaos(scenario: str, seed: int = 7, schemes: Iterable[str] = SCHEME_NAMES,
              prepost: Optional[int] = None, workers: int = 1, **arming: Any) -> Dict:
    """Run :func:`chaos_specs` through :func:`repro.campaign.run_cells` and
    return its :func:`chaos_report`."""
    from repro.campaign import run_cells

    specs = chaos_specs(scenario, schemes, seed=seed, prepost=prepost, **arming)
    return chaos_report(scenario, run_cells(specs, workers=workers),
                        seed, prepost, **arming)
