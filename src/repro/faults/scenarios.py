"""Canonical chaos scenarios and the per-scheme robustness report.

Three named scenarios (see ``EXPERIMENTS.md`` for expected outcomes):

``receiver-stall`` — a two-rank eager flood whose receiver goes
slow-consumer mid-stream.  This is the paper's Figure-10 stressor: the
hardware scheme degenerates into RNR timeout-and-retransmit storms while
the user-level schemes park the overflow in the backlog queue and drain
it through the rendezvous fallback.

``flappy-link`` — a four-rank ring exchange across a host link that goes
down twice.  Wire loss exercises the transport ACK-timeout replay path
(and, for user-level schemes, credit recovery via ECMs after silence).

``lossy-window`` — the flood again under a probabilistic drop window
(seeded RNG, deterministic), the bounded-retry recovery stressor.

``link-down-permanent`` — the flood through a link outage that outlives a
*finite* transport retry budget: the QP pair goes fatal mid-stream.  With
``--recovery`` the connection recovery subsystem re-establishes the pair
and replays the un-acked suffix; without it the run reports a structured
connection failure instead of hanging.

``retry-budget`` — the receiver-stall burst with a finite RNR retry count:
the hardware scheme (whose only flow control *is* the RNR timer) blows its
retry budget while the user-level schemes ride through on credits.

``rank-death`` — a 4-rank exchange whose rank 2 dies outright mid-run
(HCA silent, program halted).  With ``--ft`` the heartbeat failure
detector (repro.ft) declares the rank dead, completes every pending
request toward it with ``PROC_FAILED``, and the job finishes with a
structured :class:`~repro.ft.RankFailure` record; without ``--ft`` the
same plan is caught by the auditor's progress watchdog instead of
hanging.

``cm-lossy-setup`` — control-plane chaos: a 6-rank ring on an on-demand
cluster whose CM setup exchanges are probabilistically lost and delayed;
the connection manager retries with exponential backoff (the
``cm.setup_*`` counters land in the report).

Three congestion scenarios (meaningful with ``--congestion``, but they run
fine without it as the uncongested baseline):

``incast-n1`` — eight senders flood one sink while a victim flow crosses
the same switch to an idle destination.  With PFC armed the sink's egress
queue hits XOFF and pauses *whole ingress ports*, so the victim is
head-of-line blocked behind traffic it shares nothing with; with ECN the
hot flows are rate-limited individually and the victim rides through.

``hotspot-skew`` — every rank hammers rank 0 while also running a light
ring flow; measures how far hotspot backpressure spreads.

``victim-flow`` — a fat-tree with a single spine: three hot flows and one
victim flow share the lone uplink, the classic HoL-blocking topology.

``run_chaos`` runs the requested schemes under a scenario and returns a
plain-dict report (stable key order) so the CLI can render/serialise it
and the determinism check can compare two runs byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Iterable, Optional

from repro.cluster.arming import Arming
from repro.cluster.config import TestbedConfig
from repro.cluster.job import run_job
from repro.congestion.config import DROP_RETRY_TIMEOUT_NS
from repro.faults.plan import FaultPlan
from repro.sim.units import to_us, us
from repro.workloads.microbench import manyflows_program

SCHEMES = ("hardware", "static", "dynamic")


# ----------------------------------------------------------------------
# workload programs
# ----------------------------------------------------------------------
def _flood_program(msgs: int, msg_bytes: int) -> Callable:
    """Rank 0 floods rank 1 with eager messages; rank 1 consumes them."""

    def program(mpi) -> Generator:
        if mpi.rank == 0:
            reqs = []
            for _ in range(msgs):
                req = yield from mpi.isend(1, size=msg_bytes)
                reqs.append(req)
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


# ----------------------------------------------------------------------
# scenario registry
# ----------------------------------------------------------------------
@dataclass
class Scenario:
    name: str
    description: str
    nranks: int
    prepost: int
    make_program: Callable[[], Callable]
    make_plan: Callable[[int], Optional[FaultPlan]]
    #: scenario-specific testbed overrides (e.g. finite RNR retries);
    #: None = the calibrated defaults
    make_config: Optional[Callable[[], TestbedConfig]] = None
    #: congestion scenarios: the rank whose finish time is the
    #: HoL-blocking metric (an innocent flow sharing switch resources
    #: with the hot flows); None = no victim metric
    victim_rank: Optional[int] = None
    #: seed -> what the scenario itself arms besides its plan, as
    #: ``run_job`` keywords (the caller's arming is merged over it)
    arming: Callable[[int], Dict[str, Any]] = lambda seed: {}

    @property
    def audit(self) -> bool:
        """Whether the scenario runs under the invariant auditor."""
        return self.arming(0).get("audit", False)


def _receiver_stall_plan(seed: int) -> FaultPlan:
    # ~10 RNR-timer periods (320 us each) of starvation from just after
    # launch: the receiver is descheduled while the sender's burst lands.
    return FaultPlan(seed=seed).receiver_stall(
        rank=1, at_ns=us(5), duration_ns=us(3200)
    )


def _flappy_link_plan(seed: int) -> FaultPlan:
    # The link under rank 2 drops twice while the ring is hot.
    return (
        FaultPlan(seed=seed)
        .link_flap(lid=2, at_ns=us(150), duration_ns=us(250))
        .link_flap(lid=2, at_ns=us(700), duration_ns=us(250))
    )


def _lossy_window_plan(seed: int) -> FaultPlan:
    # 15 % loss on the flood pair for 350 us, then a clean tail.
    return FaultPlan(seed=seed).drop_window(
        at_ns=us(50), duration_ns=us(350), probability=0.15, lids=(0, 1)
    )


def _link_down_plan(seed: int) -> FaultPlan:
    # A 1.5 ms outage against a 40 us ACK timeout with only 4 transport
    # retries: the go-back-N ladder is exhausted long before the link
    # returns, so the QP pair goes fatal (RETRY_EXCEEDED) mid-stream.
    return FaultPlan(
        seed=seed, transport_timeout_ns=us(40), transport_retry_limit=4
    ).link_flap(lid=1, at_ns=us(100), duration_ns=us(1500))


def _retry_budget_plan(seed: int) -> FaultPlan:
    # Same starvation window as receiver-stall; the finite RNR budget
    # comes from the scenario's config override.
    return FaultPlan(seed=seed).receiver_stall(
        rank=1, at_ns=us(5), duration_ns=us(3200)
    )


#: the rank the rank-death scenario kills (one rank per node on the
#: 8-node default testbed, so only this rank's HCA dies with it)
RANK_DEATH_VICTIM = 2


def _rank_death_plan(seed: int) -> FaultPlan:
    # Default (infinite) transport retry: survivors' transports never give
    # up on the dead peer, so detection is purely the heartbeat detector's
    # doing (with ft) — and without ft the run goes quiet until the
    # progress watchdog declares it, the pre-ft failure mode.  The
    # detector's _sever force-errors the victim-facing QPs, which stops
    # the retry timers and lets the agenda drain.
    return FaultPlan(seed=seed).rank_death(rank=RANK_DEATH_VICTIM, at_ns=us(40))


def _rank_death_program(nranks: int, victim: int) -> Callable:
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
        return {
            "send_error": st_send.error,
            "recv_error": st_recv.error,
            "ring_error": st_ring.error,
        }

    return program


def _cm_lossy_arming(seed: int) -> Dict[str, Any]:
    # Lazy connection management, 25 % of its setup exchanges lost and the
    # rest uniformly delayed up to 120 us: enough churn to force retries
    # without (at stock seeds) exhausting the 5-attempt backoff budget.
    return {"on_demand": True,
            "cm_chaos": {"loss_prob": 0.25, "delay_ns": us(120), "seed": seed}}


def _congestion_plan(seed: int) -> FaultPlan:
    # No fault events — the plan only arms the transport ACK-timeout retry
    # up front, with the same timeout a congestion drop would arm.
    return FaultPlan(seed=seed, transport_timeout_ns=DROP_RETRY_TIMEOUT_NS)


def _incast_flows():
    # Ranks 1..8 flood rank 0; the victim flow 1 -> 9 shares sender 1's
    # injection port and the switch with the hot flows but targets an
    # idle destination.
    flows = [(s, 0, 25, 1024) for s in range(1, 9)]
    flows.append((1, 9, 8, 1024))
    return flows


def _incast_config() -> TestbedConfig:
    return TestbedConfig(nodes=10)


def _hotspot_flows():
    # Every rank hammers rank 0 (the hotspot) while also running a light
    # ring flow 1->2->...->7->1 that measures collateral damage.
    flows = []
    for r in range(1, 8):
        flows.append((r, 0, 14, 1024))
        flows.append((r, r % 7 + 1, 10, 1024))
    return flows


def _victim_flows():
    # Fat-tree, one spine: hot flows 0,1,2 -> 4 and victim 3 -> 5 all
    # cross leaf 0 -> leaf 1 through the same lone uplink queue.
    flows = [(0, 4, 20, 1024), (1, 4, 20, 1024), (2, 4, 20, 1024)]
    flows.append((3, 5, 6, 1024))
    return flows


def _victim_config() -> TestbedConfig:
    return TestbedConfig(nodes=8, topology="fat-tree", leaf_ports=4, spines=1)


def _retry_budget_config() -> TestbedConfig:
    cfg = TestbedConfig()
    # 3 RNR retries instead of the verbs "infinite" sentinel: the paper's
    # hardware scheme leans on unbounded RNR replay, so a bounded budget
    # turns sustained starvation into a fatal completion.
    cfg.ib.rnr_retry_count = 3
    return cfg


SCENARIOS: Dict[str, Scenario] = {
    "receiver-stall": Scenario(
        "receiver-stall",
        "2-rank eager burst into a descheduled (slow-consumer) receiver",
        nranks=2,
        prepost=4,
        # Burst sized to prepost + optimistic headroom: user-level senders
        # absorb it exactly (4 paid sends + 3 rendezvous RTSs), while the
        # hardware scheme overruns its 4 posted buffers and storms.
        make_program=lambda: _flood_program(msgs=7, msg_bytes=1024),
        make_plan=_receiver_stall_plan,
    ),
    "flappy-link": Scenario(
        "flappy-link",
        "4-rank ring exchange; one host link flaps down twice",
        nranks=4,
        prepost=8,
        make_program=lambda: _ring_program(rounds=40, msg_bytes=512),
        make_plan=_flappy_link_plan,
    ),
    "lossy-window": Scenario(
        "lossy-window",
        "2-rank eager flood through a 15% probabilistic drop window",
        nranks=2,
        prepost=8,
        make_program=lambda: _flood_program(msgs=150, msg_bytes=1024),
        make_plan=_lossy_window_plan,
    ),
    "link-down-permanent": Scenario(
        "link-down-permanent",
        "2-rank flood; link outage outlives the transport retry budget",
        nranks=2,
        prepost=8,
        make_program=lambda: _flood_program(msgs=30, msg_bytes=1024),
        make_plan=_link_down_plan,
    ),
    "retry-budget": Scenario(
        "retry-budget",
        "receiver-stall burst with a finite (3) RNR retry budget",
        nranks=2,
        prepost=4,
        make_program=lambda: _flood_program(msgs=7, msg_bytes=1024),
        make_plan=_retry_budget_plan,
        make_config=_retry_budget_config,
    ),
    "rank-death": Scenario(
        "rank-death",
        "4-rank exchange; rank 2 dies outright mid-run (needs --ft to "
        "detect; without it the progress watchdog trips)",
        nranks=4,
        prepost=8,
        make_program=lambda: _rank_death_program(4, RANK_DEATH_VICTIM),
        make_plan=_rank_death_plan,
        # the auditor's watchdog is the no-ft contrast arm, its dead-rank
        # exemptions the ft arm's check
        arming=lambda seed: {"audit": True},
    ),
    "cm-lossy-setup": Scenario(
        "cm-lossy-setup",
        "on-demand ring whose CM setup exchanges are lost/delayed "
        "(bounded-retry exponential backoff on the control plane)",
        nranks=6,
        prepost=4,
        make_program=lambda: _ring_program(rounds=12, msg_bytes=512),
        make_plan=lambda seed: None,  # control-plane chaos only
        arming=_cm_lossy_arming,
    ),
    "incast-n1": Scenario(
        "incast-n1",
        "8-to-1 incast into rank 0 plus a victim flow to an idle rank",
        nranks=10,
        prepost=8,
        make_program=lambda: manyflows_program(_incast_flows()),
        make_plan=_congestion_plan,
        make_config=_incast_config,
        victim_rank=9,
    ),
    "hotspot-skew": Scenario(
        "hotspot-skew",
        "all ranks hammer rank 0 while a light ring flow rides along",
        nranks=8,
        prepost=8,
        make_program=lambda: manyflows_program(_hotspot_flows()),
        make_plan=_congestion_plan,
    ),
    "victim-flow": Scenario(
        "victim-flow",
        "fat-tree single-spine: 3 hot flows + 1 victim share one uplink",
        nranks=8,
        prepost=8,
        make_program=lambda: manyflows_program(_victim_flows()),
        make_plan=_congestion_plan,
        make_config=_victim_config,
        victim_rank=5,
    ),
}


# ----------------------------------------------------------------------
# the chaos harness
# ----------------------------------------------------------------------
def _scenario(scenario: str) -> Scenario:
    try:
        return SCENARIOS[scenario]
    except KeyError:
        raise ValueError(
            f"unknown scenario {scenario!r} (know {sorted(SCENARIOS)})"
        ) from None


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
    (``repro.campaign``); :func:`run_chaos` assembles the same entries
    sequentially, so the two paths are bit-identical by construction.

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
    sc = _scenario(scenario)
    depth = sc.prepost if prepost is None else prepost
    plan = sc.make_plan(seed)  # fresh plan (and RNG) per run
    config = sc.make_config() if sc.make_config is not None else None
    if congestion is not None:
        from repro.congestion import make_congestion_config

        if config is None:
            config = TestbedConfig()
        config.ib.congestion = make_congestion_config(congestion)
    armed = Arming(faults=plan, **{**sc.arming(seed), **arming})
    try:
        result = run_job(sc.make_program(), sc.nranks, scheme, depth,
                         config=config, **vars(armed))
    except Exception as exc:  # deterministic failures are part of the report
        return {
            "completed": False,
            "error": f"{type(exc).__name__}: {exc}",
        }
    doc = result.report()
    entry = {"completed": doc["completed"], "elapsed_us": result.elapsed_us}
    if doc["failures"]:
        entry["failures"] = doc["failures"]
    else:
        fc = doc["fc"]
        plan_end = plan.end_ns if plan is not None else 0
        entry["recovery_us"] = to_us(max(0, doc["elapsed_ns"] - plan_end))
        for name in ("retransmissions", "rnr_naks", "backlog_max",
                     "backlogged_msgs", "rndv_fallbacks", "ecm_msgs"):
            entry[name] = fc[name]
        entry["faults"] = doc.get("faults", {})
        if sc.victim_rank is not None:
            entry["victim_finish_us"] = to_us(result.rank_results[sc.victim_rank])
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


def chaos_report_header(
    scenario: str, seed: int = 7, prepost: Optional[int] = None, **arming: Any,
) -> Dict:
    """The scenario-level fields shared by every scheme's entry; ``arming``
    is what the caller hands :func:`chaos_cell`, recorded as given."""
    sc = _scenario(scenario)
    depth = sc.prepost if prepost is None else prepost
    plan = sc.make_plan(seed)
    return {
        "scenario": sc.name,
        "description": sc.description,
        "seed": seed,
        "nranks": sc.nranks,
        "prepost": depth,
        "recovery": False,
        "congestion": None,
        "ft": False,
        **arming,
        "fault_window_us": to_us(plan.end_ns) if plan is not None else 0.0,
        "schemes": {},
    }


def run_chaos(
    scenario: str,
    seed: int = 7,
    schemes: Iterable[str] = SCHEMES,
    prepost: Optional[int] = None,
    **arming: Any,
) -> Dict:
    """Run ``schemes`` under the named scenario; returns the robustness
    report as a plain dict (deterministic content for a fixed seed)."""
    report = chaos_report_header(scenario, seed=seed, prepost=prepost, **arming)
    for scheme in schemes:
        report["schemes"][scheme] = chaos_cell(
            scenario, scheme, seed=seed, prepost=prepost, **arming)
    return report
