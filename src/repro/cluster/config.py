"""Testbed configuration: the simulated counterpart of the paper's cluster.

The paper's testbed (§6.1): 8 SuperMicro SUPER P4DL6 nodes, dual 2.4 GHz
Xeons, Mellanox InfiniHost MT23108 4X HCAs on PCI-X 64/133, one InfiniScale
MT43132 8-port switch, Linux RH 7.2.

:class:`TestbedConfig` composes the hardware model (:class:`IBConfig`) with
the MPI software model (:class:`MPIConfig`) and the cluster shape.  The
defaults are calibrated (``tests/test_calibration.py``) to the paper's two
anchor numbers: ≈7.5 µs 4-byte MPI latency for the send/recv-based
implementation and ≈860 MB/s peak large-message bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.ib.types import IBConfig
from repro.mpi.config import MPIConfig


@dataclass
class TestbedConfig:
    """Everything needed to build a simulated cluster.

    Attributes
    ----------
    nodes:
        Number of physical nodes (each with one HCA); the paper uses 8.
    ib:
        Hardware timing model.
    mpi:
        MPI software timing model.
    """

    #: keep pytest from collecting this dataclass as a test class
    __test__ = False

    nodes: int = 8
    ib: IBConfig = field(default_factory=IBConfig)
    mpi: MPIConfig = field(default_factory=MPIConfig)

    #: "crossbar" = the testbed's single InfiniScale switch;
    #: "fat-tree" = multi-level leaf/spine(/core) for larger clusters.
    topology: str = "crossbar"
    leaf_ports: int = 8  # hosts per leaf switch (fat-tree only)
    spines: int = 2  # spine switches, per pod when levels=3 (fat-tree only)
    levels: int = 2  # fat-tree tiers: 2 = leaf/spine, 3 = pod/core
    pod_leaves: Optional[int] = None  # leaves per pod (3-level only)
    cores: Optional[int] = None  # core switches (3-level only)

    #: With ``on_demand`` unspecified, jobs at or above this many ranks
    #: establish connections lazily instead of wiring the full O(P²)
    #: mesh at init — the paper's suggested scalability combination,
    #: made the default at scale.  The paper-scale experiments (8–64
    #: ranks) stay on the full mesh, bit-identical to before.
    on_demand_threshold: int = 128

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError("need at least one node")
        if self.topology not in ("crossbar", "fat-tree"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.levels not in (2, 3):
            raise ValueError(f"fat tree supports 2 or 3 levels, not {self.levels}")
        if self.leaf_ports < 1 or self.spines < 1:
            raise ValueError("a fat tree needs leaf_ports >= 1 and spines >= 1")
        if self.topology == "fat-tree" and self.levels == 3:
            if min(self.pod_leaves or 0, self.cores or 0) < 1:
                raise ValueError("a 3-level fat tree needs pod_leaves >= 1 and cores >= 1")
        if self.on_demand_threshold < 2:
            raise ValueError("on_demand_threshold must be >= 2")


def fat_tree_shape(nodes: int) -> Dict[str, Any]:
    """Canonical fat-tree shape for a rank count — the scaling ladder's
    topology policy (``repro scaling`` / ``campaign.grids.scaling_grid``).

    Up to 128 nodes a two-level leaf/spine tree with 2:1 oversubscription
    suffices; 1,024 nodes needs the three-level pod topology (64 leaves
    of 16 hosts, 8 pods x 8 leaves, 8 spines per pod, 16 cores).
    """
    if nodes < 1:
        raise ValueError("need at least one node")
    if nodes <= 128:
        leaf_ports = 8 if nodes <= 64 else 16
        return dict(topology="fat-tree", leaf_ports=leaf_ports,
                    spines=max(1, nodes // (2 * leaf_ports)))
    if nodes <= 512:
        return dict(topology="fat-tree", leaf_ports=16,
                    spines=max(2, nodes // 32))
    return dict(topology="fat-tree", levels=3, leaf_ports=16,
                pod_leaves=8, spines=8,
                cores=max(8, nodes // 64))
