"""The wire: host links, a crossbar switch, and contention.

Topology matches the paper's testbed: every node's HCA connects by one 4X
link to a single InfiniScale-style crossbar (8 ports there; any port count
here).  The model is *virtual cut-through* at message granularity:

* each unidirectional link keeps a ``busy_until`` time; a message reserves
  the link FIFO-fashion for its serialisation time ``wire_bytes / rate``;
* the switch adds a fixed pipeline delay per traversal;
* the message's last byte reaches the destination HCA at
  ``max(output-port free, head arrival) + serialisation``.

Acknowledgements and NAKs travel the same fixed-latency path but, being a
few dozen bytes, are not charged link occupancy (they ride header gaps),
which keeps the event count per message low.

Same-node traffic (two ranks per node in the 16-process runs) takes an HCA
loopback path: no switch hop, bandwidth limited by the host bus.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.ib.types import IBConfig
from repro.sim import Simulator
from repro.sim.trace import Tracer
from repro.sim.units import transfer_ns


class FabricError(RuntimeError):
    pass


class Fabric:
    """Single-switch IBA subnet with per-link FIFO contention.

    Also the one implementation of link reservation and control-path
    latency for multi-switch topologies: a subclass supplies
    :meth:`path_links` (the interior links between the two host access
    links) and a per-pair route table; a crossbar is the topology whose
    interior path is always empty.
    """

    #: A routed topology's per-pair records, keyed ``src_lid << 16 | dst_lid``
    #: and built by its ``_resolve`` at a pair's first data or control packet:
    #: ``slots`` (interior links as ``_link_busy`` indices), ``ctrl_ns`` and
    #: ``msgs`` (data messages).  ``None`` on the crossbar: no lookup there.
    _routes: Optional[Dict[int, Any]] = None

    def __init__(self, sim: Simulator, config: IBConfig, tracer: Optional[Tracer] = None):
        self.sim = sim
        self.config = config
        self.tracer = tracer or Tracer(enabled=False)
        # busy_until per unidirectional host link, keyed by LID, and per
        # interior link, at the slot a route record holds
        self._up_busy: Dict[int, int] = {}
        self._down_busy: Dict[int, int] = {}
        self._lo_busy: Dict[int, int] = {}  # per adapter's loopback path
        self._link_busy: List[int] = []
        self._lids: Dict[int, Any] = {}  # lid -> HCA (deliver target)
        self._deliver_cb: Dict[int, Callable] = {}  # lid -> HCA._deliver, prebound
        # Per-size timing caches.  A fabric is built per job from a frozen
        # view of the config (nothing mutates IBConfig once traffic flows),
        # and real workloads reuse a handful of message sizes thousands of
        # times, so (wire bytes, serialisation ns) become one dict hit.
        self._ser_cache: Dict[int, tuple] = {}  # payload -> (wire, ser)
        self._lo_cache: Dict[int, int] = {}  # payload -> loopback ser
        self._ctrl_ser_ns: Optional[int] = None
        #: the crossbar's one remote control latency (every remote pair is
        #: one switch apart), computed by the first ACK
        self._xbar_ctrl_ns: Optional[int] = None
        #: Optional :class:`repro.faults.injector.FabricFaultState`.  Left
        #: ``None`` on healthy runs so the hot path pays one identity check.
        self.fault = None
        #: Optional :class:`repro.congestion.CongestionState`.  When armed,
        #: transmits route through per-egress-port queues (PFC/ECN) instead
        #: of the busy-until path math below; ``None`` (the default) keeps
        #: the baseline model bit-identical at the cost of one check.
        self.congestion = None
        # observability
        self.messages_sent = 0
        self.payload_bytes = 0
        self.wire_bytes = 0
        self.control_msgs = 0

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def attach(self, lid: int, hca: Any) -> None:
        """Connect an HCA at ``lid``.  The HCA must expose
        ``_deliver(message)`` for inbound traffic."""
        if lid in self._lids:
            raise FabricError(f"LID {lid} already attached")
        if not 0 <= lid <= 0xBFFF:  # IBA unicast; a route key packs two in 32 bits
            raise FabricError(f"LID {lid} outside the unicast range 0..0xbfff")
        self._lids[lid] = hca
        self._deliver_cb[lid] = hca._deliver
        self._up_busy[lid] = 0
        self._down_busy[lid] = 0
        self._lo_busy[lid] = 0

    def hca_at(self, lid: int) -> Any:
        try:
            return self._lids[lid]
        except KeyError:
            raise FabricError(f"no HCA at LID {lid}") from None

    def path_links(self, src_lid: int, dst_lid: int) -> tuple:
        """The interior (switch-to-switch) links a ``src→dst`` message
        traverses, as stable keys in traversal order; host access links
        are not included.  Always empty on a single crossbar."""
        return ()

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def transmit(self, src_lid: int, dst_lid: int, payload_bytes: int, message: Any) -> int:
        """Inject a message; returns (and schedules delivery at) the arrival
        time of its last byte at the destination HCA.

        Must be called from within a simulation event at the moment the
        source HCA finishes staging the message (DMA complete).
        """
        cfg = self.config
        if dst_lid not in self._lids:
            raise FabricError(f"no HCA at LID {dst_lid}")
        sim = self.sim
        now = sim.now
        self.messages_sent += 1
        if payload_bytes > 0:
            self.payload_bytes += payload_bytes

        if src_lid == dst_lid:
            # HCA-internal loopback: no switch, host-bus limited, one FIFO
            # per adapter (a message after a long one arrives after it).
            ser = self._lo_cache.get(payload_bytes)
            if ser is None:
                ser = transfer_ns(cfg.wire_bytes(payload_bytes), cfg.pci_bytes_per_ns)
                self._lo_cache[payload_bytes] = ser
            start = self._lo_busy[src_lid]
            if start < now:
                start = now
            self._lo_busy[src_lid] = start + ser
            arrival = start + cfg.loopback_ns + ser
            sim.call_at(arrival, self._deliver_cb[dst_lid], message)
            return arrival

        extra = 0
        fault = self.fault
        if fault is not None:
            verdict = fault.on_data(src_lid, dst_lid, payload_bytes)
            if verdict is None:
                return now  # lost on the wire: never reaches the far HCA
            extra, scale = verdict
        else:
            scale = 0

        cached = self._ser_cache.get(payload_bytes)
        if cached is None:
            wire = cfg.wire_bytes(payload_bytes)
            ser = transfer_ns(wire, cfg.effective_bytes_per_ns())
            cached = self._ser_cache[payload_bytes] = (wire, ser)
        wire, ser = cached
        self.wire_bytes += wire
        if scale:
            ser = max(1, int(ser * scale))  # degraded-link serialisation
        routes = self._routes
        if routes is None:
            slots = ()
        else:
            route = routes.get(src_lid << 16 | dst_lid) or self._resolve(src_lid, dst_lid)
            route.msgs += 1
            slots = route.slots

        cong = self.congestion
        if cong is not None:
            # Congested path: per-egress-port queues (one PortQueue per
            # port, however many routes share it) own the timing from
            # here — store-and-forward, pause frames, ECN — and schedule
            # the delivery themselves when the last port drains.
            cong.inject(src_lid, dst_lid, wire, ser, message, extra)
            if self.tracer.enabled:
                self.tracer.record(now, "fabric.tx", src_lid, dst_lid,
                                   payload_bytes, -1)
            return now

        # host -> switch link (FIFO)
        hop_ns = cfg.link_prop_ns + cfg.switch_delay_ns
        start = self._up_busy[src_lid]
        if start < now:
            start = now
        self._up_busy[src_lid] = start + ser
        head = start + hop_ns

        # interior links (FIFO, cut-through from head arrival)
        if slots:
            busy = self._link_busy
            for slot in slots:
                start = busy[slot] if busy[slot] > head else head
                busy[slot] = start + ser
                head = start + hop_ns

        # switch -> host link
        start = self._down_busy[dst_lid]
        if start < head:
            start = head
        self._down_busy[dst_lid] = start + ser

        arrival = start + ser + cfg.link_prop_ns + extra
        # The delivery's (arrival, seq) key is fixed here: arrivals at one
        # LID fire in arrival order, ties in transmit order.
        sim.call_at(arrival, self._deliver_cb[dst_lid], message)
        if self.tracer.enabled:
            self.tracer.record(now, "fabric.tx", src_lid, dst_lid, payload_bytes, arrival)
        return arrival

    # ------------------------------------------------------------------
    # control path (ACK / NAK / remote error)
    # ------------------------------------------------------------------
    def control_path_ns(self, src_lid: int, dst_lid: int) -> int:
        """Fixed latency of a small control packet from src to dst."""
        cfg = self.config
        if src_lid == dst_lid:
            return cfg.loopback_ns
        ser = self._ctrl_ser_ns
        if ser is None:
            ser = self._ctrl_ser_ns = transfer_ns(cfg.ack_bytes, cfg.link_rate.bytes_per_ns)
        # switches on the path: one more than the interior link count
        hops = 1 + len(self.path_links(src_lid, dst_lid))
        return (hops + 1) * cfg.link_prop_ns + hops * cfg.switch_delay_ns + ser

    def send_control(
        self, src_lid: int, dst_lid: int, callback: Callable, *args: Any
    ) -> int:
        """Deliver a control packet (uncontended fixed-latency path)."""
        self.control_msgs += 1
        sim = self.sim
        extra = 0
        fault = self.fault
        if fault is not None:
            extra = fault.on_control(src_lid, dst_lid)
            if extra is None:
                return sim.now  # link down: the ACK/NAK is lost
        routes = self._routes
        if routes is not None:
            route = routes.get(src_lid << 16 | dst_lid) or self._resolve(src_lid, dst_lid)
            latency = route.ctrl_ns
        elif src_lid == dst_lid:
            latency = self.control_path_ns(src_lid, dst_lid)
        else:
            latency = self._xbar_ctrl_ns
            if latency is None:
                latency = self._xbar_ctrl_ns = self.control_path_ns(src_lid, dst_lid)
        arrival = sim.now + latency + extra
        sim.call_at(arrival, callback, *args)
        return arrival

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Fabric lids={sorted(self._lids)} msgs={self.messages_sent}>"
