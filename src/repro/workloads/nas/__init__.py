"""NAS Parallel Benchmark communication-skeleton proxies (Class A).

The paper evaluates IS, FT, LU, CG and MG with 8 processes on 8 nodes and
BT, SP with 16 processes on 8 nodes (§6.3).  :data:`KERNELS` maps kernel
name → :class:`~repro.workloads.nas.common.NASKernel` descriptor with the
canonical rank count; call ``KERNELS["lu"].build()`` for the default
(scaled) program or pass ``timesteps=``/``iterations=`` to resize.  A
kernel's module loads at its first build.
"""

from importlib import import_module

from repro.workloads.nas.common import ComputeModel, NASKernel


def _build(module: str, *head):
    """``module``'s ``build`` (given ``head`` first), the module loaded at
    the first call."""
    return lambda *args, **kwargs: import_module(f"{__name__}.{module}").build(
        *head, *args, **kwargs)


KERNELS = {
    "is": NASKernel("is", 8, _build("is_"), "integer sort: allreduce + alltoallv"),
    "ft": NASKernel("ft", 8, _build("ft"), "3-D FFT: big alltoall transposes"),
    "lu": NASKernel("lu", 8, _build("lu"), "SSOR wavefront: deep eager pipelines"),
    "cg": NASKernel("cg", 8, _build("cg"), "conjugate gradient: symmetric exchanges"),
    "mg": NASKernel("mg", 8, _build("mg"), "multigrid: multi-scale halo exchanges"),
    "bt": NASKernel("bt", 16, _build("adi", "bt"), "block-tridiagonal ADI, 16 ranks"),
    "sp": NASKernel("sp", 16, _build("adi", "sp"), "scalar-pentadiagonal ADI, 16 ranks"),
}

#: The paper's presentation order (Figures 9-10, Tables 1-2).
KERNEL_ORDER = ("is", "ft", "lu", "cg", "mg", "bt", "sp")

__all__ = ["ComputeModel", "KERNELS", "KERNEL_ORDER", "NASKernel"]
