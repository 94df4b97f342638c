"""Job launching: run an MPI program (one generator per rank) to completion
and collect results.

A *program* is ``Callable[[Endpoint], Generator]``; the runner spawns one
simulated process per rank, runs the event loop until every rank returns,
and packages timing plus flow-control statistics into a :class:`JobResult`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Union

from repro.cluster.arming import Arming
from repro.cluster.builder import Cluster
from repro.cluster.config import TestbedConfig
from repro.core import FlowControlReport, FlowControlScheme, collect_report, make_scheme, memory
from repro.core.base import SchemeName
from repro.core.stats import collect_congestion_report
from repro.ft.failures import RankFailedError
from repro.mpi.endpoint import Endpoint
from repro.recovery.failures import ConnectionFailedError
from repro.sim.units import seconds, to_us

Program = Callable[[Endpoint], Generator]

#: Hard event ceiling for any single job — a livelock detector, far above
#: what the largest NAS proxy needs.
MAX_JOB_EVENTS = 300_000_000


@dataclass
class JobResult:
    """Everything the benchmark harness needs from one run."""

    scheme: str
    nranks: int
    prepost: int
    elapsed_ns: int
    rank_results: List[Any]
    rank_finish_ns: List[int]
    fc: FlowControlReport
    endpoints: List[Endpoint] = field(repr=False, default_factory=list)
    #: the cluster's tracer (counters incl. ``faults.*``), for robustness
    #: reports — populated whether or not record-tracing was enabled
    tracer: Any = field(repr=False, default=None)
    #: unordered pairs wired by the connection manager (None = static mesh)
    connections_established: Optional[int] = None
    #: the runtime invariant auditor, when the job ran with ``audit=``
    audit: Any = field(repr=False, default=None)
    #: structured per-pair connection-loss records (repro.recovery).  Empty
    #: on success; populated instead of raising/hanging when a QP pair is
    #: lost for good (recovery disabled, or its attempt budget exhausted)
    failures: List[Any] = field(default_factory=list)
    #: the recovery manager, when the job ran with ``recovery=``
    recovery: Any = field(repr=False, default=None)
    #: the failure-tolerance manager (heartbeat failure detector), when
    #: the job ran with ``ft=``; ``failures`` then also carries
    #: :class:`repro.ft.RankFailure` records for ranks declared dead
    ft: Any = field(repr=False, default=None)
    #: :class:`repro.core.stats.CongestionReport` when the cluster ran
    #: with the switch congestion subsystem armed; ``None`` otherwise
    congestion: Any = field(default=None)
    #: :class:`repro.core.memory.MemoryReport` — per-scheme pinned-vbuf /
    #: QP / CQ byte accounting (the Table-2 quantity, in bytes)
    memory: Any = field(repr=False, default=None)
    # What :meth:`report` adds to the attributes above, copied when the job
    # ended (the handles are live objects of the cluster).
    #: ``"off"`` or the armed switch model's ``CongestionConfig.mode``
    congestion_mode: str = "off"
    #: the tracer's counter totals by name, sorted
    counters: Dict[str, int] = field(repr=False, default_factory=dict)
    #: subsystem name -> its ``summary()``, in arming order
    sections: Dict[str, Dict[str, Any]] = field(repr=False, default_factory=dict)

    @property
    def completed(self) -> bool:
        return not self.failures

    @property
    def elapsed_us(self) -> float:
        return to_us(self.elapsed_ns)

    @property
    def elapsed_s(self) -> float:
        return seconds(self.elapsed_ns)

    def fc_dict(self) -> Dict[str, Any]:
        """Flow-control statistics as a plain JSON-serialisable dict.

        This is the shape campaign workers ship back across process
        boundaries (``repro.campaign``): every ``FlowControlReport``
        field plus the derived ``ecm_fraction``.
        """
        d = asdict(self.fc)
        d["ecm_fraction"] = self.fc.ecm_fraction
        return d

    def report(self) -> Dict[str, Any]:
        """The run as one JSON-serialisable document (DESIGN §6.7 has the
        schema field by field): the same bytes for the same run, unchanged
        by what happens to the cluster afterwards.  ``cm``, ``congestion``
        and the subsystem sections appear only when armed — no ``None``."""
        doc: Dict[str, Any] = {
            "schema": 1,
            "scheme": self.scheme,
            "nranks": self.nranks,
            "prepost": self.prepost,
            "wiring": "mesh" if self.connections_established is None else "on-demand",
            "armed": list(self.sections),
            "congestion_mode": self.congestion_mode,
            "elapsed_ns": self.elapsed_ns,
            "completed": self.completed,
            "failures": [f.to_dict() for f in self.failures],
            "fc": self.fc_dict(),
            "memory": self.memory.to_dict(),
            "counters": dict(self.counters),
        }
        if self.connections_established is not None:
            doc["cm"] = {"established": self.connections_established}
        if self.congestion is not None:
            doc["congestion"] = self.congestion.to_dict()
        for name, section in self.sections.items():
            doc[name] = dict(section)
        return doc


def run_job(
    program: Program,
    nranks: int,
    scheme: Union[str, SchemeName, FlowControlScheme],
    prepost: int,
    config: Optional[TestbedConfig] = None,
    finalize: bool = True,
    trace: bool = False,
    on_demand: Optional[bool] = None,
    max_events: int = MAX_JOB_EVENTS,
    faults: Optional[Any] = None,
    audit: Union[bool, Any] = False,
    recovery: Union[bool, Any] = False,
    ft: Union[bool, Any] = False,
    cm_chaos: Optional[Dict[str, Any]] = None,
    cluster: Optional[Cluster] = None,
) -> JobResult:
    """Build a cluster, run ``program`` on every rank, return the result.

    ``on_demand``, ``faults``, ``audit``, ``recovery``, ``ft`` and
    ``cm_chaos`` are the fields of one :class:`~repro.cluster.arming.Arming`,
    validated before anything is built: an ill-typed value is a
    ``TypeError`` / ``ValueError`` naming the keyword.

    Parameters
    ----------
    program:
        ``program(mpi_endpoint)`` generator; its return value lands in
        ``JobResult.rank_results``.
    scheme:
        A scheme name (``"hardware" | "static" | "dynamic"``) or a
        pre-built :class:`FlowControlScheme` (for custom parameters).
    prepost:
        Receive vbufs pre-posted per connection — the paper's central
        experimental variable.
    on_demand:
        Establish connections lazily on first communication instead of a
        full mesh at init (the paper's suggested scalability combination;
        see repro.cluster.on_demand).  Left at ``None``, jobs with at
        least ``TestbedConfig.on_demand_threshold`` ranks go on-demand
        automatically; an explicit ``True``/``False`` always wins.
    finalize:
        Append an ``mpi.finalize()`` after the program (recommended; keeps
        statistics exact and guards against in-flight stragglers).
    faults:
        A :class:`repro.faults.FaultPlan` (or declarative spec dict) of
        deterministic fault events to inject while the job runs; its
        times count from the job's start.
    audit:
        ``True`` to run under a fresh :class:`repro.check.Auditor`, or a
        pre-built auditor instance.  Invariant violations raise
        :class:`repro.check.InvariantViolation`; the attached auditor is
        returned on ``JobResult.audit``.
    recovery:
        ``True`` to install a :class:`repro.recovery.RecoveryManager`
        (default policy), or a :class:`repro.recovery.RecoveryPolicy` for
        custom backoff/attempt budgets.  Without it a fatal completion
        surfaces as a structured record on ``JobResult.failures``.
    ft:
        ``True`` to install a :class:`repro.ft.FTManager` (heartbeat
        failure detector + ULFM-style error propagation), or a
        :class:`repro.ft.FTConfig` for custom detection timing.  Rank
        deaths (``FaultPlan.rank_death``) then complete pending requests
        with ``Status.error == PROC_FAILED`` and surface as structured
        :class:`repro.ft.RankFailure` records instead of hanging the job.
    cm_chaos:
        Keyword dict for :class:`repro.cluster.on_demand.SetupChaos`
        (``loss_prob`` / ``delay_ns`` / ``policy`` / ``seed``) — lose or
        delay on-demand setup exchanges; requires an on-demand cluster.
    cluster:
        Run on an already-launched cluster instead of building a fresh one
        (scheme, nranks, prepost and an explicit ``on_demand`` must match
        what it was launched with).  A cluster runs one job, as an MPI job
        owns its connections from ``MPI_Init`` to ``MPI_Finalize``: one
        that already ran a job is refused with ``RuntimeError`` before
        anything is armed or spawned.
    """
    arming = Arming(on_demand=on_demand, faults=faults, audit=audit,
                    recovery=recovery, ft=ft, cm_chaos=cm_chaos)
    subsystems = arming.subsystems()  # this job's; Arming() proved they build
    if not isinstance(scheme, FlowControlScheme):
        scheme = make_scheme(scheme)

    if cluster is None:
        cluster = Cluster(config, trace=trace)
        endpoints = cluster.launch(nranks, scheme, prepost, on_demand=arming.on_demand)
    else:
        endpoints = cluster.endpoints
        if not endpoints:
            raise RuntimeError("cluster was never launched")
        if cluster.procs:
            raise RuntimeError("this cluster already ran a job; build a fresh Cluster")
        ep = endpoints[0]
        for what, launched, wanted in (
            ("nranks", len(endpoints), nranks),
            ("scheme", ep.scheme.name.value, scheme.name.value),
            ("prepost", ep.requested_prepost, prepost),
            # None follows the cluster
            ("on_demand", not ep.mesh, not ep.mesh if on_demand is None else on_demand),
        ):
            if launched != wanted:
                raise ValueError(f"cluster was launched with {what} "
                                 f"{launched!r}, job wants {wanted!r}")
        scheme = ep.scheme  # the live policy object, not a clone

    for sub in subsystems:  # one lifecycle for every subsystem
        sub.arm(cluster)

    finish_ns = [0] * nranks
    t0 = cluster.sim.now  # the job's clock starts where the cluster's stands

    def wrap(ep: Endpoint) -> Generator:
        result = yield from program(ep)
        if finalize:
            yield from ep.finalize()
        finish_ns[ep.rank] = cluster.sim.now - t0
        return result

    procs = cluster.procs = [cluster.sim.spawn(wrap(ep), name=f"rank{ep.rank}")
                             for ep in endpoints]
    expected = (ConnectionFailedError, RankFailedError)
    # Both ends of a lost pair (and every survivor of a rank death) report
    # the same event: keyed by the record's stable identity, first seen wins.
    failures: Dict[tuple, Any] = {}
    try:
        cluster.sim.run(max_events=cluster.sim.events_executed + max_events)
    except expected as exc:
        failures[exc.failure.dedup_key()] = exc.failure

    if cluster.ft is not None and not failures:
        # A rank declared dead while still running (the fault plan killed
        # the ones it took down) is no hang — terminate it so the liveness
        # check below covers the *survivors* (the acceptance criterion:
        # zero hung ranks).  A run a failure stopped is not drained: the
        # job ends where it stopped.
        for r in sorted(cluster.ft.dead):
            procs[r].kill()

    harvest = [p.failure.failure for p in procs if isinstance(p.failure, expected)]
    for sub in subsystems:
        harvest.extend(sub.failures)
    for f in harvest:
        failures.setdefault(f.dedup_key(), f)

    failed = [p for p in procs if p.failure is not None
              and not isinstance(p.failure, expected)]
    if failed:
        raise failed[0].failure
    rank_only = bool(failures) and all(key[0] == "rank" for key in failures)
    if not failures or rank_only:
        # a program the fault plan killed did not finish either, unless ft
        # stands for the rank (its death is reported as a failure)
        hung = [p for p in procs if p.alive or (p.killed and cluster.ft is None)]
        if hung:
            raise RuntimeError(
                f"deadlock: ranks {[p.name for p in hung]} never finished "
                f"(sim time {cluster.sim.now} ns)"
            )
        if cluster.observer is not None and not failures:
            cluster.observer.on_job_end(finalize)

    cong_state = cluster.fabric.congestion
    handles = {sub.name: sub for sub in subsystems}
    return JobResult(
        scheme=scheme.name.value,
        nranks=nranks,
        prepost=prepost,
        elapsed_ns=max(finish_ns),
        rank_results=[p.result for p in procs],
        rank_finish_ns=finish_ns,
        fc=collect_report(endpoints),
        endpoints=endpoints,
        tracer=cluster.tracer,
        connections_established=(cluster.cm.established if cluster.cm else None),
        audit=handles.get("audit"),
        failures=list(failures.values()),
        recovery=handles.get("recovery"),
        ft=handles.get("ft"),
        congestion=(collect_congestion_report(cong_state)
                    if cong_state is not None else None),
        memory=memory.collect_memory_report(endpoints, cluster.config),
        congestion_mode=cong_state.cfg.mode if cong_state is not None else "off",
        counters=cluster.tracer.summary(),
        sections={name: sub.summary() for name, sub in handles.items()},
    )
