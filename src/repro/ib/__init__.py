"""InfiniBand substrate: verbs-level objects over the simulated fabric.

Public surface mirrors the slice of the IBA verbs the paper's MPI uses:

* :class:`Fabric` + :class:`HCA` — subnet and adapters (the fat tree,
  :class:`repro.ib.fattree.FatTreeFabric`, loads with the first cluster
  that asks for one),
* :class:`QueuePair` (RC service) with :meth:`post_send` / :meth:`post_recv`,
* :class:`CompletionQueue` with poll / blocking-wait,
* :class:`MemoryRegion` registration with protection keys,
* work request/completion types :class:`SendWR`, :class:`RecvWR`, :class:`WC`,
* :class:`IBConfig` — every hardware timing knob in one dataclass.

See ``repro.ib.qp`` for the RC reliability model (RNR NAK, retry timer,
replay) that the hardware-based flow control scheme depends on.
"""

from repro.ib.cq import CompletionQueue, CQOverflow
from repro.ib.fabric import Fabric, FabricError
from repro.ib.hca import HCA
from repro.ib.mr import MemoryRegion, MRError, RegistrationTable, RemoteAccessError
from repro.ib.qp import QPError, QueuePair
from repro.ib.types import INFINITE_RETRY, IBConfig, LinkRate, Opcode, QPState, WCStatus
from repro.ib.wr import WC, RecvWR, SendWR

__all__ = [
    "CQOverflow",
    "CompletionQueue",
    "Fabric",
    "FabricError",
    "HCA",
    "IBConfig",
    "INFINITE_RETRY",
    "LinkRate",
    "MRError",
    "MemoryRegion",
    "Opcode",
    "QPError",
    "QPState",
    "QueuePair",
    "RecvWR",
    "RegistrationTable",
    "RemoteAccessError",
    "SendWR",
    "WC",
    "WCStatus",
]
