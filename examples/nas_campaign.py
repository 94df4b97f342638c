#!/usr/bin/env python3
"""Reproduce the paper's NAS evaluation in miniature.

Runs a subset of the NAS Parallel Benchmark proxies under every flow
control scheme at pre-post depths 100 and 1, and prints the Figure-10
degradation table plus the Table-1/Table-2 flow-control statistics.

The grid goes through the campaign orchestrator (``repro.campaign``):
``--workers N`` fans the independent (kernel, scheme, prepost) cells
across worker processes, and a repeated run with ``--cache-dir`` is
served entirely from the content-addressed result cache.

The full campaign (all seven kernels) lives in the benchmark harness
(``pytest benchmarks/ --benchmark-only``) and in ``python -m repro sweep
--grid nas``; this example keeps to the three most interesting kernels so
it finishes in under a minute.

Run:  python examples/nas_campaign.py [--workers N] [kernels...]
      python examples/nas_campaign.py lu mg cg is ft bt sp   # everything
"""

import argparse

from repro.analysis import Table, pct_change
from repro.campaign import ResultCache, grids, run_cells
from repro.core import SCHEME_NAMES as SCHEMES
from repro.workloads.nas import KERNELS

DEFAULT_KERNELS = ("lu", "mg", "cg")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kernels", nargs="*", default=list(DEFAULT_KERNELS))
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for independent cells")
    parser.add_argument("--cache-dir", default=None,
                        help="optional result-cache directory (re-runs "
                             "skip completed cells)")
    args = parser.parse_args()
    for name in args.kernels:
        if name not in KERNELS:
            raise SystemExit(
                f"unknown kernel {name!r}; pick from {sorted(KERNELS)}")

    specs = grids.nas_grid(kernels=args.kernels, schemes=SCHEMES,
                           preposts=(100, 1))
    print(f"running {len(specs)} cells "
          f"({', '.join(args.kernels)} x {len(SCHEMES)} schemes x "
          f"pre-post {{100, 1}}) with {args.workers} worker(s) ...",
          flush=True)
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    res = run_cells(specs, workers=args.workers, cache=cache)
    cell = {(o.spec.params["kernel"], o.spec.params["scheme"],
             o.spec.params["prepost"]): o.metrics for o in res.outcomes}
    print(f"  {res.executed} executed, {res.hits} from cache "
          f"in {res.wall_s:.1f}s")

    degradation = Table("Degradation going from pre-post=100 to pre-post=1 (%)",
                        list(SCHEMES))
    fc_stats = Table("Flow control statistics",
                     ["ecm_share_%", "max_buffers_dynamic", "hw_rnr_naks_pp1"])

    for name in args.kernels:
        row = [
            pct_change(cell[(name, scheme, 1)]["elapsed_ns"],
                       cell[(name, scheme, 100)]["elapsed_ns"])
            for scheme in SCHEMES
        ]
        degradation.add_row(name, *row)
        fc_stats.add_row(
            name,
            100.0 * cell[(name, "static", 100)]["fc"]["ecm_fraction"],
            cell[(name, "dynamic", 1)]["fc"]["max_posted_buffers"],
            cell[(name, "hardware", 1)]["fc"]["rnr_naks"],
        )

    print()
    print(degradation.render())
    print()
    print(fc_stats.render())
    print(
        "\nReading guide (paper Figures 9-10, Tables 1-2):\n"
        "  * dynamic stays flat everywhere — it adapts the buffer pool;\n"
        "  * hardware collapses on LU/MG (RNR timeout storms, see naks);\n"
        "  * static loses the most on LU, whose one-directional sweeps\n"
        "    also force it to ship credits explicitly (ecm_share).\n"
    )


if __name__ == "__main__":
    main()
