"""The paper's contribution: three flow-control schemes for MPI over
InfiniBand.

* :class:`HardwareScheme` — rely on IBA end-to-end flow control (RNR NAK +
  timer retry); zero software overhead, no adaptivity.
* :class:`StaticScheme` — user-level credits fixed at init, returned via
  piggybacking and explicit credit messages; optimistic (non-flow-
  controlled) ECMs avoid deadlock.
* :class:`DynamicScheme` — static's machinery plus feedback-driven growth
  of the per-connection pre-post depth (went-through-backlog bit).

Use :func:`make_scheme` to construct by name — the benchmark harness and
examples do.
"""

from __future__ import annotations

from typing import Union

from repro.core.base import FlowControlScheme, SchemeName
from repro.core.dynamic import DynamicScheme
from repro.core.hardware import HardwareScheme
from repro.core.memory import (
    MemoryReport,
    collect_memory_report,
    mesh_pinned_bytes,
    predicted_connection_bytes,
)
from repro.core.rdma_eager import DEFAULT_RECLAIM_WATERMARK, RdmaEagerScheme
from repro.core.static import DEFAULT_ECM_THRESHOLD, StaticScheme
from repro.core.stats import (
    CongestionReport,
    FlowControlReport,
    collect_congestion_report,
    collect_report,
    per_connection_max_buffers,
)

#: The canonical evaluation order used by every figure in the paper.
ALL_SCHEMES = (SchemeName.HARDWARE, SchemeName.STATIC, SchemeName.DYNAMIC)

#: The paper's three plus the RDMA-write ring eager design — the order
#: used by the harnesses that compare all registered schemes.
EXTENDED_SCHEMES = ALL_SCHEMES + (SchemeName.RDMA_EAGER,)

#: the same two orders as names: the scheme axis of every CLI command and grid
SCHEME_NAMES = tuple(s.value for s in ALL_SCHEMES)
EXTENDED_SCHEME_NAMES = tuple(s.value for s in EXTENDED_SCHEMES)

_SCHEME_CLASSES = {
    SchemeName.HARDWARE.value: HardwareScheme,
    SchemeName.STATIC.value: StaticScheme,
    SchemeName.DYNAMIC.value: DynamicScheme,
    SchemeName.RDMA_EAGER.value: RdmaEagerScheme,
}


def make_scheme(name: Union[str, SchemeName], **kwargs) -> FlowControlScheme:
    """Build a scheme by name (``"hardware"``, ``"static"``, ``"dynamic"``,
    ``"rdma-eager"``).

    Keyword arguments are forwarded to the scheme constructor (e.g.
    ``ecm_threshold=5``, ``growth_step=2``, ``reclaim_watermark=2``).
    """
    if isinstance(name, SchemeName):
        name = name.value
    try:
        cls = _SCHEME_CLASSES[name]
    except KeyError:
        valid = ", ".join(sorted(_SCHEME_CLASSES))
        raise ValueError(
            f"unknown flow control scheme {name!r} (valid schemes: {valid})"
        ) from None
    return cls(**kwargs)


__all__ = [
    "ALL_SCHEMES",
    "DEFAULT_ECM_THRESHOLD",
    "DEFAULT_RECLAIM_WATERMARK",
    "EXTENDED_SCHEMES",
    "EXTENDED_SCHEME_NAMES",
    "SCHEME_NAMES",
    "CongestionReport",
    "DynamicScheme",
    "FlowControlReport",
    "FlowControlScheme",
    "HardwareScheme",
    "MemoryReport",
    "RdmaEagerScheme",
    "SchemeName",
    "StaticScheme",
    "collect_congestion_report",
    "collect_memory_report",
    "collect_report",
    "make_scheme",
    "mesh_pinned_bytes",
    "per_connection_max_buffers",
    "predicted_connection_bytes",
]
