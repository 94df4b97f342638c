"""Named sweep grids: the paper's figure/table campaigns as cell lists.

Each builder expands a figure's experimental grid (scheme x size/window x
pre-post x seed x scenario) into :class:`JobSpec` cells with defaults
matching the ``benchmarks/`` suite exactly, so a ``repro sweep`` artifact
is cell-for-cell comparable with the pytest figure output.  ``GRIDS``
maps the names accepted by ``python -m repro sweep --grid``.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Iterable, List, NamedTuple, Optional

from repro.campaign.spec import JobSpec
from repro.core import EXTENDED_SCHEME_NAMES as EXTENDED_SCHEMES
from repro.core import SCHEME_NAMES as SCHEMES

#: The bandwidth figures' window axis (Figures 3-8).
BW_WINDOWS = (1, 2, 4, 8, 16, 32, 64, 100)

#: The latency figure's message-size axis (Figure 2).
LATENCY_SIZES = (4, 16, 64, 256, 1024, 4096, 16384)


def latency_grid(
    schemes: Iterable[str] = SCHEMES,
    sizes: Iterable[int] = LATENCY_SIZES,
    iterations: int = 50,
    prepost: int = 100,
) -> List[JobSpec]:
    return [
        JobSpec("latency", {"scheme": scheme, "size": size,
                            "iterations": iterations, "prepost": prepost})
        for scheme in schemes
        for size in sizes
    ]


def bandwidth_grid(
    schemes: Iterable[str] = SCHEMES,
    size: int = 4,
    windows: Iterable[int] = BW_WINDOWS,
    repetitions: int = 10,
    blocking: bool = True,
    prepost: int = 100,
) -> List[JobSpec]:
    return [
        JobSpec("bandwidth", {"scheme": scheme, "size": size,
                              "window": window, "repetitions": repetitions,
                              "blocking": blocking, "prepost": prepost})
        for scheme in schemes
        for window in windows
    ]


def nas_grid(
    kernels: Optional[Iterable[str]] = None,
    schemes: Iterable[str] = SCHEMES,
    preposts: Iterable[int] = (100, 1),
) -> List[JobSpec]:
    from repro.workloads.nas import KERNEL_ORDER

    return [
        JobSpec("nas", {"kernel": kernel, "scheme": scheme,
                        "prepost": prepost})
        for prepost in preposts
        for kernel in (kernels if kernels is not None else KERNEL_ORDER)
        for scheme in schemes
    ]


def chaos_grid(
    scenarios: Optional[Iterable[str]] = None,
    schemes: Iterable[str] = SCHEMES,
    seed: int = 7,
    prepost: Optional[int] = None,
    **arming: Any,
) -> List[JobSpec]:
    """``arming`` is what every cell hands ``faults.chaos_cell`` besides
    the axes (``recovery=True``, ``congestion="pfc"``, ``ft=True``)."""
    from repro.faults import SCENARIOS

    names = list(scenarios) if scenarios is not None else sorted(SCENARIOS)
    # only keyed when on, so the cache keys of unarmed cells stay valid
    arming = {k: v for k, v in arming.items() if v}
    specs = []
    for name in names:
        # Resolve the scenario's default depth now so a cell's key never
        # depends on how the depth was spelled.
        depth = SCENARIOS[name]["prepost"] if prepost is None else prepost
        for scheme in schemes:
            specs.append(JobSpec("chaos", {"scenario": name, "scheme": scheme,
                                           "seed": seed, "prepost": depth,
                                           **arming}))
    return specs


#: The incast campaign's congestion-scheme axis.
CONGESTION_MODES = ("pfc", "ecn", "both")


def incast_grid(
    scenarios: Iterable[str] = ("incast-n1", "hotspot-skew", "victim-flow"),
    schemes: Iterable[str] = SCHEMES,
    modes: Iterable[str] = CONGESTION_MODES,
    seed: int = 7,
) -> List[JobSpec]:
    """Congestion scenarios x congestion modes x flow-control schemes."""
    specs = []
    for name in scenarios:
        for mode in modes:
            specs.extend(chaos_grid(scenarios=[name], schemes=schemes,
                                    seed=seed, congestion=mode))
    return specs


#: The scaling sweep's rank ladder — the paper's "order of 1,000 nodes".
RANK_LADDER = (64, 256, 1024)


def scaling_grid(
    ranks: Iterable[int] = RANK_LADDER,
    schemes: Iterable[str] = EXTENDED_SCHEMES,
    modes: Iterable[str] = ("mesh", "on-demand"),
    prepost: int = 1,
    iterations: int = 3,
) -> List[JobSpec]:
    """Ranks x schemes x {mesh, on-demand} ring exchange on the canonical
    fat-tree for each rank count (:func:`repro.cluster.fat_tree_shape`;
    three-level at 1,024).  Every cell is simulated: a static mesh wires
    only the pairs the ring touches."""
    return [
        JobSpec("ring", {"nodes": r, "scheme": scheme, "prepost": prepost,
                         "iterations": iterations,
                         "on_demand": mode == "on-demand"})
        for r in ranks
        for scheme in schemes
        for mode in modes
    ]


class Grid(NamedTuple):
    description: str
    build: object  # Callable[..., List[JobSpec]]


def _fig(size: int, prepost: int, blocking: bool, **axes: Any):
    """A bandwidth figure's grid; a caller's keywords override these."""
    return partial(bandwidth_grid, size=size, prepost=prepost, blocking=blocking, **axes)


GRIDS: Dict[str, Grid] = {
    "fig2": Grid("latency sweep, Figure 2 (21 cells)", latency_grid),
    "fig3": Grid("BW 4B pre-post=100 blocking, Figure 3 (24 cells)",
                 _fig(4, 100, True)),
    "fig4": Grid("BW 4B pre-post=100 non-blocking, Figure 4 (24 cells)",
                 _fig(4, 100, False)),
    "fig5": Grid("BW 4B pre-post=10 blocking, Figure 5 (24 cells)",
                 _fig(4, 10, True)),
    "fig6": Grid("BW 4B pre-post=10 non-blocking, Figure 6 (24 cells)",
                 _fig(4, 10, False)),
    "fig7": Grid("BW 32K pre-post=10 blocking, Figure 7 (24 cells)",
                 _fig(32 * 1024, 10, True)),
    "fig8": Grid("BW 32K pre-post=10 non-blocking, Figure 8 (24 cells)",
                 _fig(32 * 1024, 10, False)),
    "fig3-smoke": Grid("small Figure-3 grid for CI smoke (9 cells)",
                       _fig(4, 100, True, windows=(1, 4, 16))),
    "nas": Grid("NAS kernels x schemes x pre-post {100,1}; Figures 9-10, "
                "Tables 1-2 (42 cells)", nas_grid),
    "chaos": Grid("fault scenarios x schemes robustness sweep (30 cells)", chaos_grid),
    "incast": Grid("congestion scenarios x {pfc,ecn,both} x schemes (27 cells)",
                   incast_grid),
    "scaling": Grid("ranks 64-1024 x all four schemes x {mesh, on-demand} "
                    "ring on fat-trees (24 cells)", scaling_grid),
}


def build_grid(name: str, **overrides) -> List[JobSpec]:
    try:
        grid = GRIDS[name]
    except KeyError:
        raise ValueError(
            f"unknown grid {name!r} (know {', '.join(sorted(GRIDS))})"
        ) from None
    return grid.build(**{k: v for k, v in overrides.items() if v is not None})
