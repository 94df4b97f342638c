"""Workloads: micro-benchmarks and NAS Parallel Benchmark proxies.

The micro-benchmark names below load :mod:`repro.workloads.microbench` on
first use, and :data:`repro.workloads.nas.KERNELS` a kernel's module on its
first build: a caller that wants one NAS kernel loads that one alone.
"""

__all__ = ["BWResult", "bandwidth_program", "latency_program", "manyflows_program"]


def __getattr__(name: str):
    if name in __all__:
        from repro.workloads import microbench

        return getattr(microbench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
