"""Deterministic fault plans.

A :class:`FaultPlan` is a *schedule* of adverse events — link flaps,
degraded links, lossy windows, receiver stalls, HCA pauses — composed
through a chainable builder API or loaded from a declarative dict/JSON
spec.  Plans are pure data: nothing here touches a simulator.  The
:class:`~repro.faults.injector.FaultInjector` turns a plan into scheduled
events against one cluster.

Determinism contract: every random decision (lossy-window drops) is drawn
from ``random.Random(plan.seed)`` owned by the injector, never from the
global RNG, and draws happen in fabric-transmit order — so a fixed seed
yields a bit-identical simulation, which the chaos CLI's ``--check`` mode
and ``tests/test_faults_injection.py`` enforce.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.ib.types import INFINITE_RETRY
from repro.sim.units import us

#: Event kinds understood by the injector (spec files use these strings).
KINDS = (
    "link_flap",
    "link_degrade",
    "drop_window",
    "receiver_stall",
    "hca_pause",
    "rank_death",
)

#: Default requester ACK-timeout while a fault plan is armed.  Generously
#: above the healthy round trip (~10 us) so the timer only ever fires on a
#: genuine loss, and short enough that lossy windows resolve quickly.
DEFAULT_TRANSPORT_TIMEOUT_NS = us(200)


class FaultPlanError(ValueError):
    pass


@dataclass
class FaultEvent:
    """One scheduled fault.  Which fields matter depends on ``kind``:

    ``link_flap``      — ``lid`` down for ``duration_ns`` (data + control)
    ``link_degrade``   — ``lid`` gains ``extra_latency_ns`` and/or runs at
                         ``bw_factor`` of nominal bandwidth
    ``drop_window``    — data messages dropped with ``probability`` while
                         the window is open; ``lids`` restricts it to
                         traffic touching those LIDs (empty = fabric-wide);
                         ``corrupt`` counts losses as CRC kills instead
    ``receiver_stall`` — rank ``rank`` stops re-posting vbufs / returning
                         credits (slow-consumer model)
    ``hca_pause``      — both engines of the HCA at ``lid`` freeze
    ``rank_death``     — rank ``rank`` dies outright at ``at_ns``: its
                         process is killed, its HCA stops answering, and it
                         never comes back (``duration_ns`` is nominal)
    """

    kind: str
    at_ns: int
    duration_ns: int
    lid: int = -1
    rank: int = -1
    probability: float = 0.0
    corrupt: bool = False
    extra_latency_ns: int = 0
    bw_factor: float = 1.0
    lids: Tuple[int, ...] = ()

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise FaultPlanError(f"unknown fault kind {self.kind!r} (know {KINDS})")
        if self.at_ns < 0:
            raise FaultPlanError(f"{self.kind}: at_ns must be >= 0")
        if self.duration_ns <= 0:
            raise FaultPlanError(f"{self.kind}: duration_ns must be > 0")
        if self.kind in ("link_flap", "link_degrade", "hca_pause") and self.lid < 0:
            raise FaultPlanError(f"{self.kind}: needs a target lid")
        if self.kind in ("receiver_stall", "rank_death") and self.rank < 0:
            raise FaultPlanError(f"{self.kind}: needs a target rank")
        if self.kind == "drop_window" and not 0.0 < self.probability <= 1.0:
            raise FaultPlanError("drop_window: probability must be in (0, 1]")
        if self.kind == "link_degrade":
            if self.bw_factor <= 0:
                raise FaultPlanError("link_degrade: bw_factor must be > 0")
            if self.extra_latency_ns == 0 and self.bw_factor == 1.0:
                raise FaultPlanError("link_degrade: degrade nothing? set "
                                     "extra_latency_ns and/or bw_factor")

    @property
    def end_ns(self) -> int:
        return self.at_ns + self.duration_ns

    def to_spec(self) -> Dict[str, Any]:
        """Minimal dict form: defaults omitted, tuples listified."""
        d = asdict(self)
        out: Dict[str, Any] = {"kind": d.pop("kind")}
        defaults = FaultEvent("link_flap", 0, 1)
        for key, value in d.items():
            if key in ("at_ns", "duration_ns") or value != getattr(defaults, key):
                out[key] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "FaultEvent":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(spec) - known
        if unknown:
            raise FaultPlanError(f"unknown fault-event fields {sorted(unknown)}")
        kwargs = dict(spec)
        if "lids" in kwargs:
            kwargs["lids"] = tuple(kwargs["lids"])
        try:
            ev = cls(**kwargs)
        except TypeError as exc:
            raise FaultPlanError(str(exc)) from None
        ev.validate()
        return ev


@dataclass
class FaultPlan:
    """A seeded, ordered collection of :class:`FaultEvent`.

    The builder methods return ``self`` so plans compose fluently::

        plan = (FaultPlan(seed=7)
                .receiver_stall(rank=1, at_ns=us(100), duration_ns=us(500))
                .drop_window(at_ns=us(50), duration_ns=us(200), probability=0.2))
        run_job(program, 2, "static", prepost=4, faults=plan)
    """

    seed: int = 0
    #: requester ACK-timeout armed on every QP while the plan is active —
    #: the recovery mechanism for wire drops (RNR covers receiver overrun).
    transport_timeout_ns: int = DEFAULT_TRANSPORT_TIMEOUT_NS
    #: per-message transport retries before RETRY_EXCEEDED fails the QP;
    #: INFINITE_RETRY never gives up (matching the paper's RNR setting).
    transport_retry_limit: int = INFINITE_RETRY
    events: List[FaultEvent] = field(default_factory=list)

    # ----------------------------------------------------------- builders
    def add(self, event: FaultEvent) -> "FaultPlan":
        event.validate()
        self.events.append(event)
        return self

    def link_flap(self, lid: int, at_ns: int, duration_ns: int) -> "FaultPlan":
        """Take the host link at ``lid`` down: every data *and* control
        packet touching it during the window vanishes."""
        return self.add(FaultEvent("link_flap", at_ns, duration_ns, lid=lid))

    def link_degrade(
        self,
        lid: int,
        at_ns: int,
        duration_ns: int,
        extra_latency_ns: int = 0,
        bw_factor: float = 1.0,
    ) -> "FaultPlan":
        """Degrade the link at ``lid``: add fixed latency and/or stretch
        serialisation by ``1 / bw_factor`` (0.5 = half bandwidth)."""
        return self.add(FaultEvent(
            "link_degrade", at_ns, duration_ns, lid=lid,
            extra_latency_ns=extra_latency_ns, bw_factor=bw_factor,
        ))

    def drop_window(
        self,
        at_ns: int,
        duration_ns: int,
        probability: float,
        lids: Iterable[int] = (),
        corrupt: bool = False,
    ) -> "FaultPlan":
        """Open a lossy window: data messages are dropped (or, with
        ``corrupt``, CRC-killed at the receiver — same fate, separate
        counter) with ``probability``, drawn from the plan's seeded RNG."""
        return self.add(FaultEvent(
            "drop_window", at_ns, duration_ns,
            probability=probability, corrupt=corrupt, lids=tuple(lids),
        ))

    def receiver_stall(self, rank: int, at_ns: int, duration_ns: int) -> "FaultPlan":
        """Model a slow consumer: the rank keeps computing/progressing but
        re-posts no vbufs and returns no credits until the window closes."""
        return self.add(FaultEvent("receiver_stall", at_ns, duration_ns, rank=rank))

    def hca_pause(self, lid: int, at_ns: int, duration_ns: int) -> "FaultPlan":
        """Freeze both engines of one adapter (firmware hiccup model)."""
        return self.add(FaultEvent("hca_pause", at_ns, duration_ns, lid=lid))

    def rank_death(self, rank: int, at_ns: int) -> "FaultPlan":
        """Kill ``rank`` outright at ``at_ns``: its simulated process is
        killed, its HCA's engines stop, its QPs flush to ERROR and inbound
        packets vanish unanswered — permanently (the event's
        ``duration_ns`` is a nominal 1 ns; death does not end).

        Retry policy shapes *how* the detector notices: with the default
        infinite ``transport_retry_limit`` detection is purely the
        heartbeat path (the detector's severing then force-errors the
        victim-facing QPs, stopping the retry timers so the agenda
        drains); with a finite limit, transport retry exhaustion against
        the dead HCA confirms the death earlier.  On multi-rank nodes
        the whole adapter dies: under ft the co-located ranks' processes
        are killed with it, without ft they run on over a dead adapter
        until a flushed connection stops the job; the stock rank-death
        scenario keeps one rank per node.  Requires
        ``run_job(..., ft=True)`` for structured detection.  Without the
        failure-tolerance layer an armed auditor's progress watchdog
        trips (that contrast is scenario arm 2), and a finite retry limit
        ends the job as a ``retry_exceeded`` failure; with neither, under
        the infinite default, the survivors retransmit to the dead adapter
        until ``run_job``'s ``max_events`` (``MAX_JOB_EVENTS`` by default)
        raises ``SimulationError``.
        """
        return self.add(FaultEvent("rank_death", at_ns, 1, rank=rank))

    # ------------------------------------------------------------ queries
    @property
    def end_ns(self) -> int:
        """When the last fault window closes (0 for an empty plan)."""
        return max((ev.end_ns for ev in self.events), default=0)

    def validate(self) -> None:
        for ev in self.events:
            ev.validate()

    # ------------------------------------------------- declarative specs
    def to_spec(self) -> Dict[str, Any]:
        spec: Dict[str, Any] = {"seed": self.seed}
        if self.transport_timeout_ns != DEFAULT_TRANSPORT_TIMEOUT_NS:
            spec["transport_timeout_ns"] = self.transport_timeout_ns
        if self.transport_retry_limit != INFINITE_RETRY:
            spec["transport_retry_limit"] = self.transport_retry_limit
        spec["events"] = [ev.to_spec() for ev in self.events]
        return spec

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(spec, dict):
            raise FaultPlanError(f"fault spec must be a dict, got {type(spec).__name__}")
        unknown = set(spec) - {"seed", "transport_timeout_ns", "transport_retry_limit", "events"}
        if unknown:
            raise FaultPlanError(f"unknown fault-plan fields {sorted(unknown)}")
        plan = cls(
            seed=int(spec.get("seed", 0)),
            transport_timeout_ns=int(
                spec.get("transport_timeout_ns", DEFAULT_TRANSPORT_TIMEOUT_NS)
            ),
            transport_retry_limit=int(spec.get("transport_retry_limit", INFINITE_RETRY)),
        )
        for ev_spec in spec.get("events", []):
            plan.add(FaultEvent.from_spec(ev_spec))
        return plan

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_spec(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_spec(json.loads(text))

    def __repr__(self) -> str:  # pragma: no cover
        kinds = ",".join(ev.kind for ev in self.events)
        return f"<FaultPlan seed={self.seed} events=[{kinds}]>"
