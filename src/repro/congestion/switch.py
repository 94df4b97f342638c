"""Egress-port queue model: finite buffers, PFC pause frames, ECN marking.

When a :class:`~repro.congestion.config.CongestionConfig` is armed, every
fabric transmit is routed hop-by-hop through :class:`PortQueue` objects —
one per traversed egress port — instead of the straight-line busy-until
path math.  The model is *store-and-forward at message granularity*:

* a port serves its queue one message at a time, draining at the
  injection-bottleneck rate; the next hop's admission happens one
  link-propagation + switch-pipeline delay after service completes;
* **admission** charges the message's wire bytes against the port's
  finite buffer (host injection ports are unbounded); an admission that
  would overflow is tail-dropped — the transport ACK-timeout retry
  recovers it, exactly like a fault-window wire loss;
* **PFC**: crossing ``xoff_bytes`` sends pause frames one hop upstream
  to every distinct feeder port with traffic queued here (and to any
  feeder that shows up while the XOFF is standing).  A paused port
  finishes its in-service message but starts no new one, so its *whole*
  queue stalls — victim flows sharing the port experience head-of-line
  blocking, and a stalled port's own queue growth propagates the pause
  further upstream (pause storms emerge, they are not scripted).
  Draining below ``xon_bytes`` sends resume frames to the same feeders;
* **ECN/DCQCN**: admissions at/above ``ecn_mark_bytes`` are CE-marked;
  on delivery the destination echoes a CNP to the *sender's* per-flow
  rate limiter, which cuts the flow's injection rate multiplicatively
  (coalesced per ``cnp_interval_ns``) and recovers additively on a
  timer.  A throttled flow's messages are released into its host port
  no faster than ``ser / rate``.

Everything runs on the integer-ns simulation clock through ordinary
agenda events — no RNG, no wall clock — so armed runs are bit-identical
for a fixed seed, and a disarmed fabric (``fabric.congestion is None``)
pays exactly one attribute check per transmit.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.congestion.config import DROP_RETRY_TIMEOUT_NS, CongestionConfig
from repro.ib.types import INFINITE_RETRY
from repro.sim import Simulator
from repro.sim.trace import Tracer

#: ("hup", lid) | ("down", lid) host access ports, plus one key per
#: interior fat-tree link (see repro.ib.fattree.LinkKey): ("up", leaf,
#: spine) | ("sdown", spine, leaf) | ("sup", spine, core) | ("cdown",
#: core, spine)
PortKey = Tuple


class _Transit:
    """One message in flight through the port queues."""

    __slots__ = ("message", "dst", "wire", "ser", "extra", "path", "hop",
                 "from_port", "marked", "flow")

    def __init__(self, message: Any, dst: int, wire: int, ser: int,
                 extra: int, path: tuple):
        self.message = message
        self.dst = dst
        self.wire = wire
        self.ser = ser
        self.extra = extra  # fault-window latency, charged at delivery
        self.path = path
        self.hop = 0
        self.from_port: Optional["PortQueue"] = None
        self.marked = False
        self.flow: Optional["_Flow"] = None


class _Flow:
    """DCQCN rate-limiter state for one (src, dst) flow."""

    __slots__ = ("key", "rate", "next_free", "last_cut_ns", "recover_armed",
                 "min_rate_seen")

    def __init__(self, key: tuple):
        self.key = key
        self.rate = 1.0
        self.next_free = 0
        self.last_cut_ns = -(1 << 62)
        self.recover_armed = False
        self.min_rate_seen = 1.0


class PortQueue:
    """FIFO egress queue of one port: finite buffer, one-at-a-time service.

    ``finite=False`` marks a host injection port: unbounded (the host can
    always buffer), never drops, never marks, never generates XOFF — but
    it *can be paused* by its downstream port, which is what gates
    injection into the fabric.
    """

    __slots__ = ("state", "key", "finite", "q", "depth", "busy",
                 "xoff_active", "paused_by", "_feeders", "_feeder_keys",
                 "peak_depth", "drops", "pause_frames_rx")

    def __init__(self, state: "CongestionState", key: PortKey, finite: bool):
        self.state = state
        self.key = key
        self.finite = finite
        self.q: Deque[_Transit] = deque()
        self.depth = 0  # queued bytes (wire)
        self.busy = False
        self.xoff_active = False
        #: downstream port keys currently pausing this port
        self.paused_by: Set[PortKey] = set()
        #: feeders this port has paused (FIFO order for deterministic XON)
        self._feeders: List["PortQueue"] = []
        self._feeder_keys: Set[PortKey] = set()
        # observability
        self.peak_depth = 0
        self.drops = 0
        self.pause_frames_rx = 0

    # ------------------------------------------------------------------
    def admit(self, item: _Transit) -> None:
        state = self.state
        cfg = state.cfg
        wire = item.wire
        if self.finite and self.depth + wire > cfg.buffer_bytes:
            self.drops += 1
            tr = state.tracer
            tr.count("cong.drop", self.key)
            tr.record(state.sim.now, "cong.drop", self.key, item.dst)
            # tail drop: the requester's ACK-timeout retry recovers it —
            # a fault plan's, when one is armed, else an unlimited one.  A
            # dead incarnation's message (its QP destroyed) is owed nothing.
            msg = item.message
            hca = state.fabric.hca_at(msg.src_lid)
            qp = hca.qp(msg.src_qpn)
            if qp is not None:
                qp.arm_transport(hca.fault_transport or (DROP_RETRY_TIMEOUT_NS, INFINITE_RETRY))
                if state.observer is not None:
                    # the replay comes at the first ACK-less timer period,
                    # at most two periods away: not a hang until then
                    state.observer.on_quiet(state.sim.now + 2 * DROP_RETRY_TIMEOUT_NS)
            return
        depth = self.depth = self.depth + wire
        if depth > self.peak_depth:
            self.peak_depth = depth
        if state.observer is not None:
            state.observer.on_queue_depth(self.key, depth,
                                          cfg.buffer_bytes if self.finite else None)
        if (state.ecn_on and self.finite and not item.marked
                and depth >= cfg.ecn_mark_bytes):
            item.marked = True
            tr = state.tracer
            tr.count("cong.ecn_mark", self.key)
            tr.record(state.sim.now, "cong.ecn_mark", self.key, item.dst)
        self.q.append(item)
        if state.pfc_on and self.finite:
            if not self.xoff_active and depth >= cfg.xoff_bytes:
                self._raise_xoff()
            elif self.xoff_active:
                fp = item.from_port
                if fp is not None and fp.key not in self._feeder_keys:
                    self._pause_feeder(fp)
        if not self.busy and not self.paused_by:
            self._start()

    # ------------------------------------------------------------------
    # PFC
    # ------------------------------------------------------------------
    def _raise_xoff(self) -> None:
        state = self.state
        self.xoff_active = True
        tr = state.tracer
        tr.count("cong.xoff", self.key)
        tr.record(state.sim.now, "cong.xoff", self.key)
        if state.observer is not None:
            state.observer.on_xoff(self.key)
        for item in self.q:
            fp = item.from_port
            if fp is not None and fp.key not in self._feeder_keys:
                self._pause_feeder(fp)

    def _pause_feeder(self, feeder: "PortQueue") -> None:
        state = self.state
        self._feeder_keys.add(feeder.key)
        self._feeders.append(feeder)
        state.tracer.count("cong.pause_frame", feeder.key)
        state.sim.call_at(state.sim.now + state.cfg.pause_frame_ns,
                          feeder.pause, self.key)

    def _lower_xoff(self) -> None:
        state = self.state
        self.xoff_active = False
        tr = state.tracer
        now = state.sim.now
        tr.count("cong.xon", self.key)
        tr.record(now, "cong.xon", self.key)
        if state.observer is not None:
            state.observer.on_xon(self.key)
        resume_at = now + state.cfg.pause_frame_ns
        sim = state.sim
        for feeder in self._feeders:
            tr.count("cong.resume_frame", feeder.key)
            sim.call_at(resume_at, feeder.resume, self.key)
        self._feeders.clear()
        self._feeder_keys.clear()

    def pause(self, downstream: PortKey) -> None:
        """A pause frame from ``downstream`` arrived: stop starting new
        service (the in-flight message, if any, completes — PFC acts at
        packet boundaries)."""
        self.pause_frames_rx += 1
        self.paused_by.add(downstream)

    def resume(self, downstream: PortKey) -> None:
        self.paused_by.discard(downstream)
        if not self.paused_by and not self.busy and self.q:
            self._start()

    # ------------------------------------------------------------------
    # service
    # ------------------------------------------------------------------
    def _start(self) -> None:
        self.busy = True
        state = self.state
        state.sim.call_at(state.sim.now + self.q[0].ser, self._complete)

    def _complete(self) -> None:
        item = self.q.popleft()
        self.depth -= item.wire
        self.busy = False
        state = self.state
        cfg = state.cfg
        if self.xoff_active and self.depth <= cfg.xon_bytes:
            self._lower_xoff()
        sim = state.sim
        item.hop += 1
        if item.hop < len(item.path):
            nxt = item.path[item.hop]
            item.from_port = self
            sim.call_at(sim.now + state.hop_ns, nxt.admit, item)
        else:
            arrival = sim.now + state.link_prop_ns + item.extra
            sim.call_at(arrival, state.fabric.hca_at(item.dst)._deliver,
                        item.message)
            if item.marked:
                flow = item.flow
                if flow is not None:
                    sim.call_at(arrival + cfg.cnp_ns, state._on_cnp, flow)
        if self.q and not self.paused_by:
            self._start()

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<PortQueue {self.key} depth={self.depth} "
                f"q={len(self.q)} xoff={self.xoff_active}>")


class CongestionState:
    """All port queues + per-flow rate limiters of one armed fabric.

    Installed by the cluster builder as ``fabric.congestion`` when
    ``IBConfig.congestion`` is set; :meth:`inject` is the fabric's
    transmit hand-off (wire/ser already computed, fault verdict already
    applied).
    """

    def __init__(self, sim: Simulator, fabric: Any, cfg: CongestionConfig,
                 tracer: Optional[Tracer] = None):
        self.sim = sim
        self.fabric = fabric
        self.cfg = cfg
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.pfc_on = cfg.pfc
        self.ecn_on = cfg.ecn
        ib = fabric.config
        self.hop_ns = ib.link_prop_ns + ib.switch_delay_ns
        self.link_prop_ns = ib.link_prop_ns
        self.ports: Dict[PortKey, PortQueue] = {}
        self._paths: Dict[tuple, tuple] = {}
        self.flows: Dict[tuple, _Flow] = {}
        #: the observer slot (``Cluster.observe`` resolves it)
        self.observer = None

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def _port(self, key: PortKey, finite: bool) -> PortQueue:
        port = self.ports.get(key)
        if port is None:
            port = self.ports[key] = PortQueue(self, key, finite)
        return port

    def _build_path(self, src: int, dst: int) -> tuple:
        hops = [self._port(("hup", src), finite=False)]
        # one finite egress queue per interior link the fabric's route
        # traverses (fat tree: leaf-up, spine-up, core-down, spine-down;
        # none on a crossbar)
        for link in self.fabric.path_links(src, dst):
            hops.append(self._port(link, finite=True))
        hops.append(self._port(("down", dst), finite=True))
        return tuple(hops)

    def path_for(self, src: int, dst: int) -> tuple:
        key = (src, dst)
        path = self._paths.get(key)
        if path is None:
            path = self._paths[key] = self._build_path(src, dst)
        return path

    # ------------------------------------------------------------------
    # fabric hand-off
    # ------------------------------------------------------------------
    def inject(self, src: int, dst: int, wire: int, ser: int,
               message: Any, extra: int) -> None:
        path = self.path_for(src, dst)
        # A message bigger than a whole port buffer is packetised on the
        # real wire and streams through; here it is charged as one full
        # buffer, so an empty port admits it — charged in full, every
        # retry of it would be tail-dropped again, forever.
        if wire > self.cfg.buffer_bytes:
            wire = self.cfg.buffer_bytes
        item = _Transit(message, dst, wire, ser, extra, path)
        entry = path[0]
        if self.ecn_on:
            flow = self._flow(src, dst)
            item.flow = flow
            if flow.rate < 1.0:
                now = self.sim.now
                release = flow.next_free
                if release < now:
                    release = now
                flow.next_free = release + int(ser / flow.rate)
                if release > now:
                    self.sim.call_at(release, entry.admit, item)
                    return
        entry.admit(item)

    # ------------------------------------------------------------------
    # DCQCN rate control
    # ------------------------------------------------------------------
    def _flow(self, src: int, dst: int) -> _Flow:
        key = (src, dst)
        flow = self.flows.get(key)
        if flow is None:
            flow = self.flows[key] = _Flow(key)
        return flow

    def _on_cnp(self, flow: _Flow) -> None:
        cfg = self.cfg
        now = self.sim.now
        self.tracer.count("cong.cnp", flow.key)
        if now - flow.last_cut_ns < cfg.cnp_interval_ns:
            return  # coalesced into the previous cut
        flow.last_cut_ns = now
        rate = flow.rate * cfg.rate_decrease_factor
        if rate < cfg.min_rate:
            rate = cfg.min_rate
        flow.rate = rate
        if rate < flow.min_rate_seen:
            flow.min_rate_seen = rate
        self.tracer.record(now, "cong.rate_cut", flow.key, rate)
        if not flow.recover_armed:
            flow.recover_armed = True
            self.sim.call_at(now + cfg.rate_recover_ns, self._recover, flow)

    def _recover(self, flow: _Flow) -> None:
        cfg = self.cfg
        now = self.sim.now
        if now - flow.last_cut_ns < cfg.rate_recover_ns:
            # a fresh cut restarted the clock; try again when it elapses
            self.sim.call_at(flow.last_cut_ns + cfg.rate_recover_ns,
                             self._recover, flow)
            return
        rate = flow.rate + cfg.rate_recover_step
        if rate >= 1.0:
            flow.rate = 1.0
            flow.recover_armed = False
        else:
            flow.rate = rate
            self.sim.call_at(now + cfg.rate_recover_ns, self._recover, flow)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def quiescent(self) -> bool:
        """True when every port queue is empty and unpaused-for-service."""
        return all(p.depth == 0 and not p.busy and not p.xoff_active
                   for p in self.ports.values())

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<CongestionState ports={len(self.ports)} "
                f"flows={len(self.flows)} pfc={self.pfc_on} ecn={self.ecn_on}>")
