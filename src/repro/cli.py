"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's experiments:

* ``latency``   — Figure-2 style latency sweep;
* ``bandwidth`` — Figures 3-8 style windowed bandwidth test;
* ``nas``       — run NAS proxies under the three schemes (Figures 9-10,
  Tables 1-2 statistics);
* ``scaling``   — the beyond-the-paper experiment: dynamic scheme +
  on-demand connections on a fat-tree cluster;
* ``chaos``     — deterministic fault injection: compare the schemes'
  robustness under a named fault scenario (``repro.faults``);
* ``sweep``     — run a named figure/table campaign through the parallel
  orchestrator with result caching (``repro.campaign``).

Every experiment command is one parser row: a ``cells`` function that
expands its flags into declarative :class:`~repro.campaign.JobSpec` cells
and a ``render`` function that prints the result, both run by
:func:`cmd_experiment` through the one ``--workers`` and ``--check`` path,
:func:`_run`.  ``latency``, ``bandwidth``, ``nas`` and ``scaling`` print
through the renderers the figure suite saves.  The paper's three schemes
are the default axis except where the comparison is ours (``repro
scaling``: all four).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis import Table, scaling_report, scheme_figure, scheme_table
from repro.campaign import GRIDS, build_grid, grids
from repro.campaign.cache import MemoryCache, ResultCache
from repro.campaign.runner import run_cells
from repro.check import fuzz
from repro.cluster import TestbedConfig
from repro.cluster.builder import check_setup_budget
from repro.core import EXTENDED_SCHEME_NAMES, SCHEME_NAMES, make_scheme
from repro.faults.scenarios import SCENARIOS, chaos_report, chaos_specs
from repro.workloads.nas import KERNEL_ORDER

DEFAULT_CACHE_DIR = "benchmarks/results/.sweep-cache"

CHECK_HELP = ("compare every record against a second in-process run and "
              "exit 1 unless bit-identical")


def _add_common(p: argparse.ArgumentParser, schemes=SCHEME_NAMES,
                prepost: Optional[int] = 100, check: bool = False) -> None:
    """An experiment command's shared flags, with the command's defaults."""
    p.add_argument("--schemes", nargs="+", default=list(schemes),
                   choices=EXTENDED_SCHEME_NAMES,
                   help="flow control schemes to compare")
    p.add_argument("--prepost", type=_positive_int, default=prepost,
                   help="receive buffers pre-posted per connection"
                        + ("" if prepost else " (default: the scenario's)"))
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="worker processes for independent cells (1 = "
                        "run everything in this process)")
    if check:
        p.add_argument("--check", action="store_true", help=CHECK_HELP)


def _positive_int(text: str) -> int:
    """``type=`` of a count that must reach one (repetitions a benchmark
    averages over, fuzz runs, workers): a usage error, not a failed cell."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _ring_size(text: str) -> int:
    """``type=`` of ``scaling --nodes``: a ring needs two ranks (one would
    send to itself, which the device does not support)."""
    value = _positive_int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"a ring needs at least 2 ranks, got {text}")
    return value


def _non_negative_int(text: str) -> int:
    """``type=`` of a message size or shrink budget: 0 B / no shrinking is legal."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")
    return value


def _progress(out, done, total) -> None:
    tag = {"run": "run", "worker": "run", "failed": "FAIL"}.get(
        out.source, out.source)
    detail = out.error if out.source == "failed" else f"{out.wall_s:.2f}s"
    print(f"  [{done}/{total}] {tag} {out.spec.label()} ({detail})",
          file=sys.stderr)


def _run(args: argparse.Namespace, specs, cache=None, **options):
    """Run ``specs``; ``None`` when ``--check`` found drift (reported).  The
    one ``--check``, of every command that declares the flag: the cells run
    through ``cache`` (the sweep's disk cache, else a fresh one), then again
    over it with ``check=True`` — every record against an in-process run."""
    cache = MemoryCache() if cache is None else cache
    res = run_cells(specs, workers=args.workers, cache=cache, **options)
    if not getattr(args, "check", False) or res.failures:
        return res
    drift = run_cells(specs, cache=cache, check=True, strict=False).check_failures
    for m in drift:
        print(f"CHECK MISMATCH ({m['source']}): {m['label']}", file=sys.stderr)
    if drift:
        print("DETERMINISM DRIFT: records are not bit-identical to an "
              "in-process re-run", file=sys.stderr)
        return None
    print("determinism check passed (every record bit-identical to an "
          "in-process re-run)", file=sys.stderr)
    return res


def cmd_experiment(args: argparse.Namespace) -> int:
    """Every experiment command: run the grid the command's flags select
    (``args.cells``) and print it (``args.render``); 1 on ``--check`` drift."""
    res = _run(args, args.cells(args))
    if res is None:
        return 1
    print(args.render(res, args))
    return 0


def _nas_table(res, args: argparse.Namespace) -> str:
    if args.verbose:
        for out in res.outcomes:
            fc = out.metrics["fc"]
            print(f"  {out.spec.params['kernel']}/{out.spec.params['scheme']}: "
                  f"ecm={fc['ecm_msgs']} maxbuf={fc['max_posted_buffers']} "
                  f"naks={fc['rnr_naks']}", file=sys.stderr)
    return scheme_table(res, f"NAS proxy runtimes (s), pre-post={args.prepost}").render()


def _scaling_cells(args: argparse.Namespace):
    # climb the standard ladder up to --nodes (so `--nodes 1024` shows the
    # full 64 -> 256 -> 1024 trajectory), plus the requested count itself
    ladder = sorted({r for r in grids.RANK_LADDER if r < args.nodes}
                    | {args.nodes})
    return grids.scaling_grid(ranks=ladder, schemes=args.schemes,
                              prepost=args.prepost, iterations=args.iterations)


def _chaos_axes(args: argparse.Namespace) -> dict:
    """The axes but the schemes, and what the flags arm: one mapping down
    the chaos chain, to the cells and to the report."""
    return dict(seed=args.seed, prepost=args.prepost,
                **{k: getattr(args, k) for k in ("recovery", "congestion", "ft")})


def _chaos_render(res, args: argparse.Namespace) -> str:
    report = chaos_report(args.scenario, res, **_chaos_axes(args))
    return (json.dumps(report, indent=2, sort_keys=True) if args.json
            else _chaos_table(report).render())


def _chaos_table(report: dict) -> Table:
    """The chaos report as one row per scheme (``repro chaos`` sans ``--json``)."""
    congested = report["congestion"] is not None
    columns = ["done", "time_us", "recovery_us", "retrans", "rnr_naks",
               "backlog_max", "ecms", "fallbacks", "reconnects",
               "replayed"]
    if congested:
        columns += ["pauses", "marks", "drops", "victim_us"]
    title = (
        f"Chaos '{report['scenario']}' seed={report['seed']} "
        f"prepost={report['prepost']} "
        f"recovery={'on' if report['recovery'] else 'off'} "
    )
    if report.get("ft"):
        title += "ft=on "
    if congested:
        title += f"congestion={report['congestion']} "
    title += f"(faults end at {report['fault_window_us']:.0f} us)"
    table = Table(title, columns)
    for scheme, entry in report["schemes"].items():
        # one column -> value mapping a row; a column it lacks reads "-"
        row = {}
        rec, cong = entry.get("recovery"), entry.get("congestion")
        if rec:
            row.update(reconnects=rec["completed"],
                       replayed=rec["messages_replayed"])
        if cong:
            row.update(pauses=cong["pause_frames"], marks=cong["ecn_marks"],
                       drops=cong["drops"])
        if "victim_finish_us" in entry:
            row["victim_us"] = entry["victim_finish_us"]
        if entry.get("completed"):
            name = scheme
            row.update(done="yes", time_us=entry["elapsed_us"],
                       recovery_us=entry["recovery_us"],
                       retrans=entry["retransmissions"],
                       rnr_naks=entry["rnr_naks"],
                       backlog_max=entry["backlog_max"],
                       ecms=entry["ecm_msgs"], fallbacks=entry["rndv_fallbacks"])
        elif "failures" in entry:
            f = entry["failures"][0]
            if f.get("kind") == "rank-death":
                # a detected rank failure is the subsystem *working*:
                # show who died, who noticed, and how fast
                name = (f"{scheme}: rank {f['rank']} dead ({f['cause']}), "
                        f"detected by {f['detected_by']} in "
                        f"{f['detection_latency_ns'] / 1000:.0f} us")
                row["done"] = "DEAD"
            else:
                name = (f"{scheme}: {f['cause']} {f['rank']}<->{f['peer']} "
                        f"attempts={f['attempts']}")
                row["done"] = "FAILED"
        else:
            name, row["done"] = f"{scheme}: {entry['error']}", "FAILED"
        table.add_row(name, *(row.get(c, "-") for c in columns))
    return table


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.list:
        for name in sorted(GRIDS):
            print(f"{name:>12}  {GRIDS[name].description}")
        return 0
    if args.grid is None:
        print("error: --grid is required (or --list to see the campaigns)",
              file=sys.stderr)
        return 2
    # the axes a flag overrides (build_grid drops the ones left unset)
    overrides = {k: getattr(args, k)
                 for k in ("schemes", "repetitions", "windows", "kernels", "seed")}
    try:
        specs = build_grid(args.grid, **overrides)
    except (TypeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    out_path = args.out or f"benchmarks/results/sweep_{args.grid}.jsonl"
    print(f"sweep '{args.grid}': {len(specs)} cells, "
          f"workers={args.workers}, cache="
          f"{'off' if cache is None else args.cache_dir}", file=sys.stderr)
    res = _run(args, specs, cache, jsonl_path=out_path, strict=False,
               progress=_progress)
    if res is None:
        return 1

    print(f"sweep '{args.grid}': {len(res.outcomes)} cells — "
          f"{res.executed} executed, {res.hits} cached, "
          f"{len(res.failures)} failed in {res.wall_s:.2f}s -> {out_path}",
          file=sys.stderr)
    if res.failures:
        for out in res.failures:
            print(f"FAILED: {out.spec.label()}: {out.error}", file=sys.stderr)
        return 1
    if args.require_all_cached and res.executed:
        print(f"error: --require-all-cached but {res.executed} cell(s) "
              f"were executed (cold cache?)", file=sys.stderr)
        return 1
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    if args.replay:
        try:
            with open(args.replay) as fh:
                artifact = json.load(fh)
        except (OSError, ValueError) as err:
            print(f"error: cannot read artifact {args.replay}: {err}",
                  file=sys.stderr)
            return 2
        try:
            comparison = fuzz.replay(artifact)
        except (TypeError, ValueError) as err:  # a malformed spec, not a finding
            print(f"error: {args.replay}: {err}", file=sys.stderr)
            return 2
        return 1 if comparison["failure"] is not None else 0

    sweep = dict(seed=args.seed, runs=args.runs, schemes=tuple(args.schemes),
                 scenarios=[None if s == "none" else s for s in args.scenarios],
                 on_demand=args.on_demand)
    cache = MemoryCache()  # after --check, run_fuzz is served from it
    if args.check and _run(args, fuzz.fuzz_grid(**sweep), cache) is None:
        return 1
    summary = fuzz.run_fuzz(out_dir=args.out_dir, max_shrink=args.max_shrink,
                            cache=cache, **sweep)
    if summary["failures"]:
        print(f"{len(summary['failures'])}/{args.runs} runs failed; replay "
              f"artifacts in {args.out_dir}/", file=sys.stderr)
        return 1
    print(f"all {args.runs} runs passed: delivered multisets identical "
          f"across {', '.join(args.schemes)}; 0 invariant violations")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Flow Control Schemes in MPI over "
                    "InfiniBand' (Liu & Panda, IPPS 2004) on a simulated cluster",
    )
    # Not ``required=True``: a missing subcommand is handled in ``main``
    # with a printed usage + exit code 2 instead of an argparse traceback.
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("latency", help="latency sweep (Figure 2)")
    _add_common(p)
    p.add_argument("--sizes", nargs="+", type=_non_negative_int,
                   default=[4, 64, 1024, 16384])
    p.add_argument("--iterations", type=_positive_int, default=50)
    p.set_defaults(
        fn=cmd_experiment,
        cells=lambda a: grids.latency_grid(schemes=a.schemes, sizes=a.sizes,
                                           iterations=a.iterations, prepost=a.prepost),
        render=lambda res, a: scheme_figure(res, "MPI latency").render())

    p = sub.add_parser("bandwidth", help="windowed bandwidth test (Figures 3-8)")
    _add_common(p)
    p.add_argument("--size", type=_non_negative_int, default=4)
    p.add_argument("--windows", nargs="+", type=_positive_int,
                   default=[1, 4, 16, 64, 100])
    p.add_argument("--repetitions", type=_positive_int, default=10)
    p.add_argument("--blocking", action="store_true")
    p.set_defaults(
        fn=cmd_experiment,
        cells=lambda a: grids.bandwidth_grid(
            schemes=a.schemes, size=a.size, windows=a.windows,
            repetitions=a.repetitions, blocking=a.blocking, prepost=a.prepost),
        render=lambda res, a: scheme_figure(
            res, f"MPI bandwidth, {a.size}B messages, pre-post={a.prepost}, "
                 f"{'blocking' if a.blocking else 'non-blocking'}",
        ).render(fmt="{:>12.3f}"))

    p = sub.add_parser("nas", help="NAS proxies (Figures 9-10)")
    _add_common(p)
    p.add_argument("--kernels", nargs="+", default=list(KERNEL_ORDER),
                   choices=list(KERNEL_ORDER))
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(fn=cmd_experiment, render=_nas_table,
                   cells=lambda a: grids.nas_grid(kernels=a.kernels, schemes=a.schemes,
                                                  preposts=(a.prepost,)))

    p = sub.add_parser(
        "scaling",
        help="ranks 64-1024 x schemes x {mesh, on-demand} on fat trees, "
             "with the Table-2-at-scale memory table")
    # all four schemes by default: the memory story is the point here
    _add_common(p, schemes=EXTENDED_SCHEME_NAMES, prepost=1, check=True)
    p.add_argument("--nodes", type=_ring_size, default=64,
                   help="top of the rank ladder (1024 = the three-level "
                        "pod fat-tree)")
    p.add_argument("--iterations", type=_positive_int, default=3)
    p.set_defaults(fn=cmd_experiment, cells=_scaling_cells,
                   render=lambda res, a: scaling_report(res))

    p = sub.add_parser(
        "sweep",
        help="run a named figure/table campaign through the parallel "
             "orchestrator with result caching (repro.campaign)",
    )
    p.add_argument("--grid", default=None, choices=sorted(GRIDS),
                   help="named campaign (see --list)")
    p.add_argument("--list", action="store_true",
                   help="list the available campaign grids and exit")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="worker processes (1 = sequential reference path)")
    p.add_argument("--out", default=None, metavar="JSONL",
                   help="campaign artifact "
                        "(default benchmarks/results/sweep_<grid>.jsonl)")
    p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                   help="content-addressed result cache directory (the "
                        "checkpoint: a rerun executes only the cells it lacks)")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the result cache, and with it the checkpoint")
    p.add_argument("--check", action="store_true", help=CHECK_HELP)
    p.add_argument("--require-all-cached", action="store_true",
                   help="exit 1 if any cell had to execute (warm-cache "
                        "assertion for CI)")
    p.add_argument("--schemes", nargs="+", default=None,
                   choices=EXTENDED_SCHEME_NAMES,
                   help="override the grid's schemes")
    p.add_argument("--windows", nargs="+", type=_positive_int, default=None,
                   help="override a bandwidth grid's window axis")
    p.add_argument("--repetitions", type=_positive_int, default=None,
                   help="override a bandwidth grid's repetitions per cell")
    p.add_argument("--kernels", nargs="+", default=None,
                   choices=list(KERNEL_ORDER),
                   help="override the NAS grid's kernel list")
    p.add_argument("--seed", type=int, default=None,
                   help="override the chaos grid's fault-plan seed")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser(
        "chaos",
        help="fault-injection robustness comparison (repro.faults)",
    )
    _add_common(p, prepost=None, check=True)
    p.add_argument("--scenario", required=True, choices=sorted(SCENARIOS),
                   help="named fault scenario (see EXPERIMENTS.md)")
    p.add_argument("--seed", type=int, default=7,
                   help="fault-plan RNG seed (fixed seed -> bit-identical run)")
    p.add_argument("--recovery", action="store_true",
                   help="install the connection recovery subsystem "
                        "(repro.recovery): lost QP pairs are re-established "
                        "with credit resync instead of failing the run")
    p.add_argument("--congestion", nargs="?", const="pfc", default=None,
                   choices=["pfc", "ecn", "both"],
                   help="arm the switch congestion subsystem "
                        "(repro.congestion): finite egress queues with PFC "
                        "pause frames and/or ECN/DCQCN rate control "
                        "(bare flag = pfc)")
    p.add_argument("--ft", action="store_true",
                   help="install the rank-failure tolerance subsystem "
                        "(repro.ft): a heartbeat failure detector turns "
                        "dead ranks into structured RankFailure records "
                        "and PROC_FAILED request statuses instead of a "
                        "watchdog hang (pair with --scenario rank-death)")
    p.add_argument("--json", action="store_true",
                   help="emit the report as canonical JSON")
    p.set_defaults(fn=cmd_experiment, render=_chaos_render,
                   cells=lambda a: chaos_specs(a.scenario, a.schemes, **_chaos_axes(a)))

    p = sub.add_parser(
        "fuzz",
        help="cross-scheme differential fuzzing with the invariant "
             "auditor armed (repro.check)",
    )
    p.add_argument("--seed", type=int, default=1,
                   help="base workload seed (run k uses seed+k)")
    p.add_argument("--runs", type=_positive_int, default=25,
                   help="number of seeded workloads")
    p.add_argument("--schemes", nargs="+", default=list(SCHEME_NAMES),
                   choices=EXTENDED_SCHEME_NAMES,
                   help="schemes every workload runs under")
    scenario_names = ["none" if s is None else s for s in fuzz.FUZZ_SCENARIOS]
    p.add_argument("--scenarios", nargs="+",
                   default=scenario_names[:len(fuzz.SCENARIOS)],
                   choices=scenario_names,
                   help="fault scenarios cycled across runs (link-down "
                        "runs under the connection recovery subsystem; "
                        "rank-death under the failure detector, comparing "
                        "survivors' deliveries only)")
    p.add_argument("--on-demand", action="store_true",
                   help="run every workload under lazy (on-demand) "
                        "connection establishment, so the differential "
                        "comparator covers the CM exchange path")
    p.add_argument("--out-dir", default="fuzz-failures",
                   help="where minimized replay artifacts land ('' to skip)")
    p.add_argument("--max-shrink", type=_non_negative_int, default=200,
                   help="rerun budget for minimizing a failing workload")
    p.add_argument("--replay", default=None, metavar="FILE",
                   help="re-run a failure artifact; exit 1 if it reproduces")
    p.add_argument("--check", action="store_true", help=CHECK_HELP)
    p.set_defaults(fn=cmd_fuzz, workers=1)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on --help (code 0) and on errors such as an
        # unknown subcommand (code 2, usage already printed to stderr);
        # surface that as a return code instead of an exception.
        return exc.code if isinstance(exc.code, int) else 2
    if getattr(args, "fn", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        _check_setup_budgets(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return args.fn(args)


def _check_setup_budgets(args: argparse.Namespace) -> None:
    """A ``--prepost`` the receive queue cannot hold is a usage error, not
    a failed cell: the check ``Cluster.launch`` makes, before any cell runs."""
    if getattr(args, "prepost", None) is None:
        return  # no such flag, or chaos's scenario default
    for name in args.schemes:
        check_setup_budget(make_scheme(name), args.prepost, TestbedConfig())


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
