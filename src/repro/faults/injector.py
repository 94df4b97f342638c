"""Turning a :class:`~repro.faults.plan.FaultPlan` into live simulation
events against one cluster.

Two pieces:

:class:`FabricFaultState` — the per-fabric verdict object consulted from
the transmit hot paths (``Fabric.transmit`` / ``send_control``).  It holds
the *currently open* fault windows; the begin/end transitions are ordinary
agenda events scheduled by the injector, so the hot path never scans the
plan.  All randomness (lossy windows) comes from one ``random.Random``
seeded by the plan and is drawn in transmit order — deterministic given
the deterministic kernel.

:class:`FaultInjector` — arms the state onto the fabric and the
transport ACK-timeout retry on every QP (the recovery mechanism for wire
loss; see ``QueuePair.arm_transport``), applies receiver-stall /
HCA-pause events to endpoints and adapters, emits ``faults.*`` counters
for the robustness report.  It arms one job, on the cluster it runs on.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from repro.faults.plan import FaultEvent, FaultPlan


class FaultInjectorError(RuntimeError):
    pass


class _DropWindow:
    """One open lossy window (identity matters: begin appends, end removes
    this exact instance, so overlapping windows coexist)."""

    __slots__ = ("probability", "corrupt", "lids")

    def __init__(self, ev: FaultEvent):
        self.probability = ev.probability
        self.corrupt = ev.corrupt
        self.lids = frozenset(ev.lids) if ev.lids else None


class FabricFaultState:
    """Open fault windows, consulted per transmitted message.

    ``on_data`` returns ``None`` to drop the message, else
    ``(extra_latency_ns, ser_scale)`` where a ``ser_scale`` of 0 means "no
    scaling" (so the healthy common case stays integer-only).
    ``on_control`` returns ``None`` (link down) or extra latency ns.
    """

    def __init__(self, seed: int, tracer):
        self.rng = random.Random(seed)
        self.tracer = tracer
        #: lid -> count of open link_flap windows (down while > 0)
        self.down: Dict[int, int] = {}
        #: lid -> list of (extra_latency_ns, ser_scale) degradations
        self.degrade: Dict[int, List[Tuple[int, float]]] = {}
        #: open lossy windows, in begin order
        self.drops: List[_DropWindow] = []

    # ----------------------------------------------------------- verdicts
    def on_data(self, src_lid: int, dst_lid: int, payload_bytes: int):
        down = self.down
        if down.get(src_lid) or down.get(dst_lid):
            self.tracer.count("faults.link_drop", (src_lid, dst_lid))
            return None
        for window in self.drops:
            lids = window.lids
            if lids is None or src_lid in lids or dst_lid in lids:
                if self.rng.random() < window.probability:
                    name = "faults.wire_corrupt" if window.corrupt else "faults.wire_drop"
                    self.tracer.count(name, (src_lid, dst_lid))
                    return None
        extra = 0
        scale = 0.0
        degrade = self.degrade
        if degrade:
            for lid in (src_lid, dst_lid):
                for e, s in degrade.get(lid, ()):
                    extra += e
                    if s > scale:
                        scale = s
        return (extra, scale)

    def on_control(self, src_lid: int, dst_lid: int):
        if src_lid == dst_lid:
            return 0  # loopback never crosses a host link
        down = self.down
        if down.get(src_lid) or down.get(dst_lid):
            self.tracer.count("faults.ctrl_drop", (src_lid, dst_lid))
            return None
        extra = 0
        degrade = self.degrade
        if degrade:
            for lid in (src_lid, dst_lid):
                for e, _s in degrade.get(lid, ()):
                    extra += e
        return extra


class FaultInjector:
    """One job's fault plan as an armable subsystem (``run_job``'s
    lifecycle: ``arm`` / ``failures`` / ``summary``)."""

    name = "faults"
    failures = ()  # the losses it causes are recorded by whoever notices

    def __init__(self, plan: FaultPlan):
        plan.validate()
        self.plan = plan
        self.cluster = None  # set by arm()
        self.state: Optional[FabricFaultState] = None
        #: id(event) -> open _DropWindow, so _end removes the exact
        #: instance _begin added (plans may be shared across clusters)
        self._open_windows: Dict[int, _DropWindow] = {}

    def arm(self, cluster) -> None:
        """Attach fault state to the fabric, arm transport retries on every
        QP (current and future: a QP built meanwhile — a static-mesh pair
        wired at first touch too — reads its adapter's setting, so an
        unwired pair needs nothing), and put every begin/end transition on
        the agenda.  A plan's clock is the job's: its times count from now.
        Call once, after ``cluster.launch`` and before ``run``."""
        if self.cluster is not None:
            raise FaultInjectorError("fault plan already installed")
        if cluster.fabric.fault is not None:
            raise FaultInjectorError("fabric already has a fault state installed")
        self._check_targets(cluster)
        self.cluster = cluster
        plan = self.plan
        self.state = cluster.fabric.fault = FabricFaultState(plan.seed, cluster.tracer)
        arm = (plan.transport_timeout_ns, plan.transport_retry_limit)
        for hca in cluster.hcas:
            hca.fault_transport = arm  # what requesters built from now on get
            for qp in hca._qps.values():
                qp.arm_transport(arm)
        sim = cluster.sim
        t0 = sim.now  # the job's clock, as run_job's
        if cluster.observer is not None:
            # the plan's windows stall progress legitimately
            cluster.observer.on_quiet(t0 + plan.end_ns)
        for ev in plan.events:
            sim.call_at(t0 + ev.at_ns, self._begin, ev)
            sim.call_at(t0 + ev.end_ns, self._end, ev)

    def summary(self) -> Dict[str, int]:
        """The job's ``faults.*`` counter totals: events, losses, ACK timeouts."""
        return self.cluster.tracer.summary("faults.")

    def _check_targets(self, cluster) -> None:
        nodes = len(cluster.hcas)
        ranks = len(cluster.endpoints)
        for ev in self.plan.events:
            if ev.kind in ("link_flap", "link_degrade", "hca_pause") and ev.lid >= nodes:
                raise FaultInjectorError(
                    f"{ev.kind}: lid {ev.lid} outside cluster of {nodes} nodes")
            if ev.kind in ("receiver_stall", "rank_death") and ev.rank >= ranks:
                raise FaultInjectorError(
                    f"{ev.kind}: rank {ev.rank} outside world of {ranks}")
            if ev.kind == "drop_window":
                bad = [lid for lid in ev.lids if lid >= nodes]
                if bad:
                    raise FaultInjectorError(
                        f"drop_window: lids {bad} outside cluster of {nodes} nodes")

    # --------------------------------------------------------- transitions
    def _begin(self, ev: FaultEvent) -> None:
        state = self.state
        state.tracer.count(f"faults.{ev.kind}")
        if ev.kind == "link_flap":
            state.down[ev.lid] = state.down.get(ev.lid, 0) + 1
        elif ev.kind == "link_degrade":
            scale = 0.0 if ev.bw_factor == 1.0 else 1.0 / ev.bw_factor
            state.degrade.setdefault(ev.lid, []).append((ev.extra_latency_ns, scale))
        elif ev.kind == "drop_window":
            window = _DropWindow(ev)
            state.drops.append(window)
            self._open_windows[id(ev)] = window
        elif ev.kind == "receiver_stall":
            self.cluster.endpoints[ev.rank].fault_stall(ev.duration_ns)
        elif ev.kind == "hca_pause":
            self.cluster.hcas[ev.lid].pause(ev.duration_ns)
        elif ev.kind == "rank_death":
            cluster = self.cluster
            ft = cluster.ft
            hca = cluster.endpoints[ev.rank].hca
            # the victim's program ends before the flush WCs could wake it;
            # under ft every rank its adapter serves is cut off with it
            dying = [ep.rank for ep in cluster.endpoints
                     if ep.rank == ev.rank or (ft is not None and ep.hca is hca)]
            for rank in dying:
                cluster.procs[rank].kill()
            cluster.wire_adapter(hca)  # a mesh's: kill flushes them all
            hca.kill()
            if ft is not None:
                for rank in dying:
                    ft.note_injected_death(rank, cluster.sim.now)

    def _end(self, ev: FaultEvent) -> None:
        state = self.state
        if ev.kind == "link_flap":
            state.down[ev.lid] -= 1
        elif ev.kind == "link_degrade":
            scale = 0.0 if ev.bw_factor == 1.0 else 1.0 / ev.bw_factor
            state.degrade[ev.lid].remove((ev.extra_latency_ns, scale))
        elif ev.kind == "drop_window":
            state.drops.remove(self._open_windows.pop(id(ev)))
        elif ev.kind == "receiver_stall":
            self.cluster.endpoints[ev.rank].fault_release_stall()
        # hca_pause ends by itself (the busy horizons pass)
