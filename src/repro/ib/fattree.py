"""Multi-level fat-tree fabric — the topology of the large clusters the
paper's introduction targets ("in the order of 1,000 to 10,000 nodes").

The single-crossbar :class:`~repro.ib.fabric.Fabric` models the paper's
8-port InfiniScale testbed; this subclass scales past one switch.

Two-level (``levels=2``, the default): hosts attach to *leaf* switches
(``leaf_ports`` hosts each), and every leaf has one uplink to each of
``spines`` spine switches.

Three-level (``levels=3``): leaves are grouped into *pods* of
``pod_leaves`` leaves; each pod has its own ``spines`` spine switches,
and every spine has one uplink to each of ``cores`` core switches.
Intra-pod traffic turns around at a pod spine; inter-pod traffic ascends
host→leaf→spine→core and descends core→spine→leaf→host.

Routing is the standard d-mod-k scheme generalized across tiers: the
spine index is ``dst_lid % spines`` (in the source pod on the way up and
the destination pod on the way down — the same index, so the route is
symmetric about the core) and the core is ``dst_lid % cores``.  All
choices depend only on the destination, so every flow stays ordered.

This class is topology arithmetic and counters only.  The timing model
is :class:`~repro.ib.fabric.Fabric`'s: every traversed link carries FIFO
busy-until contention and every switch hop adds pipeline latency, over
the interior links :meth:`path_links` enumerates as stable keys, which a
pair resolves once into a :class:`Route`.  The congestion subsystem keys
its egress-port queues on the same keys, and ``link_msgs`` derives
per-link data messages from each route's count for hop accounting
(``tests/test_fattree_property.py``).

This keeps every transport/MPI layer byte-for-byte identical — only path
latency and contention change — so flow-control experiments can be re-run
on big simulated clusters unchanged (see
``tests/test_fattree.py::test_dynamic_scheme_on_64_rank_fat_tree``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ib.fabric import Fabric, FabricError
from repro.ib.types import IBConfig
from repro.sim import Simulator
from repro.sim.trace import Tracer

#: Interior-link keys (see :meth:`FatTreeFabric.path_links`):
#: ``("up", leaf, spine)`` leaf→spine, ``("sdown", spine, leaf)``
#: spine→leaf, ``("sup", spine, core)`` spine→core, ``("cdown", core,
#: spine)`` core→spine.  Spine ids are global (``pod * spines + index``)
#: so two pods' uplinks never alias.
LinkKey = Tuple


class Route:
    """A pair's record in :attr:`Fabric._routes`, with the link keys
    :meth:`FatTreeFabric.path_links` returns."""

    __slots__ = ("links", "slots", "ctrl_ns", "msgs")

    def __init__(self, links: tuple, slots: tuple):
        self.links, self.slots, self.ctrl_ns, self.msgs = links, slots, 0, 0


class FatTreeFabric(Fabric):
    """Hosts → leaves → spines (→ cores), FIFO contention per link."""

    def __init__(
        self,
        sim: Simulator,
        config: IBConfig,
        tracer: Optional[Tracer] = None,
        leaf_ports: int = 8,
        spines: int = 2,
        levels: int = 2,
        pod_leaves: Optional[int] = None,
        cores: Optional[int] = None,
    ):
        super().__init__(sim, config, tracer)
        if leaf_ports < 1 or spines < 1:
            raise FabricError("fat tree needs >=1 leaf port and >=1 spine")
        if levels not in (2, 3):
            raise FabricError(f"fat tree supports 2 or 3 levels, not {levels}")
        if levels == 3:
            if min(pod_leaves or 0, cores or 0) < 1:
                raise FabricError("3-level fat tree needs pod_leaves >= 1 and cores >= 1")
        else:
            pod_leaves = None  # one implicit pod spanning every leaf
            cores = None
        self.leaf_ports = leaf_ports
        self.spines = spines  # per pod when levels == 3
        self.levels = levels
        self.pod_leaves = pod_leaves
        self.cores = cores
        self._routes: Dict[int, Route] = {}  # paths are static: one record per pair
        self._slot_of: Dict[LinkKey, int] = {}  # interior link -> _link_busy index
        #: the one key object per interior link, by slot: every route that
        #: crosses a link holds this key, not a copy of its own
        self._link_keys: List[LinkKey] = []

    # ------------------------------------------------------------------
    # topology arithmetic
    # ------------------------------------------------------------------
    def leaf_of(self, lid: int) -> int:
        return lid // self.leaf_ports

    def pod_of(self, leaf: int) -> int:
        return leaf // self.pod_leaves if self.pod_leaves else 0

    def _spine_for(self, dst_lid: int) -> int:
        """Pod-local spine index — d-mod-k: deterministic, in-order."""
        return dst_lid % self.spines

    # ------------------------------------------------------------------
    # path enumeration
    # ------------------------------------------------------------------
    def path_links(self, src_lid: int, dst_lid: int) -> tuple:
        """The interior links a ``src→dst`` data message traverses, as
        stable keys, in traversal order.  Host access links are not
        included (they are per-endpoint, keyed by LID alone).  Empty for
        same-leaf (and loopback) traffic."""
        route = self._routes.get(src_lid << 16 | dst_lid)
        return (route or self._resolve(src_lid, dst_lid)).links

    def _resolve(self, src_lid: int, dst_lid: int) -> Route:
        """Build the pair's record, once; a link no earlier route took
        gets the next busy-until slot and becomes the link's key."""
        slot_of, keys = self._slot_of, self._link_keys
        slots = []
        for link in self._build_links(src_lid, dst_lid):
            slot = slot_of.get(link)
            if slot is None:
                slot = slot_of[link] = len(keys)
                keys.append(link)
                self._link_busy.append(0)
            slots.append(slot)
        links = tuple([keys[slot] for slot in slots])
        route = self._routes[src_lid << 16 | dst_lid] = Route(links, tuple(slots))
        route.ctrl_ns = self.control_path_ns(src_lid, dst_lid)  # reads route.links
        return route

    def _build_links(self, src_lid: int, dst_lid: int) -> tuple:
        src_leaf, dst_leaf = self.leaf_of(src_lid), self.leaf_of(dst_lid)
        if src_leaf == dst_leaf:
            return ()
        idx = self._spine_for(dst_lid)
        if self.levels == 2:
            return (("up", src_leaf, idx), ("sdown", idx, dst_leaf))
        src_pod, dst_pod = self.pod_of(src_leaf), self.pod_of(dst_leaf)
        s_src = src_pod * self.spines + idx
        if src_pod == dst_pod:
            return (("up", src_leaf, s_src), ("sdown", s_src, dst_leaf))
        core = dst_lid % self.cores
        s_dst = dst_pod * self.spines + idx
        return (
            ("up", src_leaf, s_src),
            ("sup", s_src, core),
            ("cdown", core, s_dst),
            ("sdown", s_dst, dst_leaf),
        )

    @property
    def link_msgs(self) -> Dict[LinkKey, int]:
        """Data messages per traversed link, host links included
        (``("hup", lid)`` host→leaf, ``("down", lid)`` leaf→host)."""
        counts: Dict[LinkKey, int] = {}
        for key, route in self._routes.items():
            if route.msgs:
                for link in (("hup", key >> 16), *route.links, ("down", key & 0xFFFF)):
                    counts[link] = counts.get(link, 0) + route.msgs
        return counts

    @property
    def cross_leaf_msgs(self) -> int:
        return sum(route.msgs for route in self._routes.values() if route.links)

    @property
    def cross_pod_msgs(self) -> int:
        return sum(route.msgs for route in self._routes.values() if len(route.links) == 4)

    def __repr__(self) -> str:  # pragma: no cover
        shape = f"leaf_ports={self.leaf_ports} spines={self.spines}"
        if self.levels == 3:
            shape += f" pod_leaves={self.pod_leaves} cores={self.cores}"
        return (
            f"<FatTreeFabric lids={len(self._lids)} levels={self.levels} "
            f"{shape}>"
        )
