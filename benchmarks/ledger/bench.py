#!/usr/bin/env python3
"""The layered performance ledger: one command, six workloads, every
metric by name (see README.md in this directory).

    python3 benchmarks/ledger/bench.py [--seed 7] [--repeats 5] [--quick]
    python3 benchmarks/ledger/bench.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/ledger/bench.py --compare A.json B.json

Every measurement runs in a fresh child process (``--child``), one at a
time: in-process ordering moved a workload's wall time by 25 % in the
prototype, and a child yields per-workload peak RSS for free.  Timing
metrics are CPU seconds at the reference host's speed (``calibrate.py``
samples the host's speed while the child runs), the median over the
children, with quartiles and the wall-clock median printed beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import manifest  # noqa: E402 - sibling module, needs HERE on the path

#: a child that has not finished by then is killed and reported
CHILD_TIMEOUT_S = 170
#: fewest untraced children per driver invocation, however long they take
MIN_CHILDREN = 3
#: the issue's R = 10 for the workload whose metric of interest, set-up,
#: is the shortest timed phase and read 50 % high in one noisy set of 5
REPEAT_FACTOR = {"mesh_build256": 2}
HOST_METRICS = [m["name"] for m in manifest.END_TO_END if m["kind"] == "host"]
SIM_METRICS = [m["name"] for m in manifest.END_TO_END if m["kind"] == "sim"]
UNITS = {m["name"]: m["unit"] for m in manifest.END_TO_END + manifest.PER_LAYER}
BOUNDS = {m["name"]: m["bound"] for m in manifest.END_TO_END}
EXACT = {m["name"] for m in manifest.END_TO_END + manifest.PER_LAYER if m["exact"]}
#: normalised timing -> the wall-clock reading it was made from
WALL = {"run_s": "run_wall_s", "setup_s": "setup_wall_s"}


# ------------------------------------------------------------------- child
def child_main(workload: str, inputs: Dict[str, Any], t0: float, mode: str,
               out_dir: str) -> int:
    """Run one workload once in this (fresh) process; print one JSON line.

    ``mode`` is ``plain`` (the measured configuration), ``spans``
    (boundary wrappers installed) or ``profile`` (cProfile over set-up
    and run).
    """
    import resource

    import calibrate

    # sample the host's speed from here on (not under cProfile, whose call
    # counts must repeat exactly): the timings are CPU seconds at reference
    # speed.  The process's CPU clock starts at 0 with the interpreter.
    started = time.perf_counter() - (time.time() - t0)
    speed = calibrate.HostSpeed() if mode != "profile" else None
    if speed is not None:
        speed.start()
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    spans = tracing.Spans()
    if mode == "spans":
        tracing.install(spans)
    profile = None
    if mode == "profile":
        import cProfile

        # import every optional layer first: the profile then shows a
        # disabled subsystem as exactly zero calls, not its import
        import repro.check, repro.congestion, repro.faults  # noqa: E401,F401
        import repro.ft, repro.recovery  # noqa: E401,F401

        profile = cProfile.Profile()
    wl = workloads.REGISTRY[workload]()
    normalised = (speed.normalised if speed is not None
                  else lambda start, end, memory_share=0.0: end - start)
    ctx = workloads.Context(spans, out_dir, normalised)
    try:
        if profile is not None:
            profile.enable()
        with spans.span("setup"):
            state = wl.setup(inputs, ctx)
        ready, ready_cpu = time.perf_counter(), time.thread_time()
        with spans.span("run") as run_span:
            wl.run(inputs, state, ctx)
        done_cpu = time.thread_time()
        if profile is not None:
            profile.disable()
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        checks = workloads.completion_checks(ctx.jobs) + wl.checks(inputs, ctx)
        result: Dict[str, Any] = {
            "workload": workload,
            "mode": mode,
            "setup_s": normalised(0.0, ready_cpu),
            "run_s": normalised(ready_cpu, done_cpu, wl.memory_share),
            "setup_wall_s": ready - started,
            "run_wall_s": run_span["end"] - run_span["start"],
            "peak_rss_mib": peak_kib / 1024.0,
            "sim_events": sum(j.events for j in ctx.jobs),
            "sim_elapsed_us": sum(j.elapsed_ns for j in ctx.jobs) / 1000.0,
            "sim_digest": ctx.digest(),
            "checks": checks,
            "counters": ctx.counters(),
            **wl.extras(ctx),
        }
        if mode == "spans":
            result["spans"] = span_metrics(spans)
            if wl.twin is not None:
                with spans.span("twin"):
                    result["twin"] = wl.twin()
            trace_path = pathlib.Path(out_dir) / f"trace_{workload}.json"
            trace_path.write_text(json.dumps(
                {"workload": workload, "spans": spans.finished()}, indent=1))
        if profile is not None:
            import repro

            result["profile"] = tracing.layer_profile(
                profile, str(pathlib.Path(repro.__file__).parent))
            if not wl.arms_subsystems:
                stray = {layer: result["profile"][f"{layer}.calls"]
                         for layer in ("check", "recovery", "ft", "congestion")}
                checks.append(("disabled_is_zero_cost", not any(stray.values()),
                               f"calls into disarmed subsystems: {stray}"))
            profile_path = pathlib.Path(out_dir) / f"profile_{workload}.json"
            profile_path.write_text(json.dumps(result["profile"], indent=1))
    finally:
        if speed is not None:
            speed.stop()
        ctx.cleanup()
    print(json.dumps(result))
    return 0 if all(ok for _, ok, _ in checks) else 1


def span_metrics(spans: Any) -> Dict[str, float]:
    return {
        "cluster.launch_s": spans.total("cluster.launch"),
        "cluster.launch_n": spans.count("cluster.launch"),
        "sim.run_s": spans.total("sim.run"),
        "cluster.run_job_self_s": spans.total("cluster.run_job", "self_s"),
        "core.collect_s": spans.total("core.collect_report")
        + spans.total("core.collect_memory_report"),
        "cluster.on_demand_requests": spans.tick_count("cluster.on_demand_request"),
        "ib.create_qp_n": spans.tick_count("ib.create_qp"),
        "trace.spans": len(spans.records),
    }


# ------------------------------------------------------------------ parent
def spawn_child(workload: str, inputs: Dict[str, Any], mode: str,
                out_dir: pathlib.Path) -> Dict[str, Any]:
    """One fresh child, waited for (and killed on timeout) before returning."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "bench.py"), "--child", workload,
           "--inputs", json.dumps(inputs), "--mode", mode, "--out", str(out_dir),
           "--t0", repr(time.time())]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload} ({mode}) child exceeded {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{workload} ({mode}) child died with code {proc.returncode}")
    return json.loads(lines[-1])


def summarise(plain: List[Dict[str, Any]],
              spans: Optional[Dict[str, Any]] = None,
              profile: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Fold one workload's children into its ledger entry."""
    first = plain[0]
    children = plain + [c for c in (spans, profile) if c is not None]
    checks = [check for child in children for check in child["checks"]]
    same = all(
        (c["sim_events"], c["sim_elapsed_us"], c["sim_digest"])
        == (first["sim_events"], first["sim_elapsed_us"], first["sim_digest"])
        for c in children)
    checks.append(["repeats_identical", same,
                   "sim_events/sim_elapsed_us/sim_digest differ between children"])
    failing = [[name, detail] for name, ok, detail in checks if not ok]
    entry: Dict[str, Any] = {
        "end_to_end": {},
        "sim_digest": first["sim_digest"],
        "checks": {"attempted": len(checks), "failed": len(failing),
                   "failing": failing[:20]},
    }
    for name in HOST_METRICS:
        runs = [c[name] for c in plain]
        q = (statistics.quantiles(runs, n=4) if len(runs) > 1 else [runs[0]] * 3)
        entry["end_to_end"][name] = {
            "value": q[1], "unit": UNITS[name], "stat": "median",
            "median": q[1], "q1": q[0], "q3": q[2], "runs": runs}
        if name in WALL:  # the same timings before normalisation
            entry["end_to_end"][name]["wall"] = [c[WALL[name]] for c in plain]
    for name in SIM_METRICS:
        entry["end_to_end"][name] = {"value": first[name], "unit": UNITS[name],
                                     "stat": "exact"}
    if spans is not None and profile is not None:
        # the same statistic as run_s: each arm's median over the children
        arms = {arm: statistics.median(c["arms"][arm] for c in plain)
                for arm in first.get("arms", {})}
        run = entry["end_to_end"]["run_s"]
        entry["per_layer"] = per_layer(first, run["value"],
                                       statistics.median(run["wall"]), arms,
                                       spans, profile)
    elif "accuracy" in first:
        entry["accuracy"] = first["accuracy"]
    return entry


def per_layer(plain: Dict[str, Any], run_s: float, run_wall_s: float,
              arms: Dict[str, float], spans: Dict[str, Any],
              profile: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric of the manifest, from one plain, one
    span-wrapped and one profiled child (0 where a layer was not used).
    ``run_s``, ``run_wall_s`` and ``arms`` are the untraced run time
    (normalised, and as the clock read it) and the per-arm times of
    ``armed_lu8`` that the overheads and rates refer to."""
    prof = profile["profile"]
    values: Dict[str, float] = {m["name"]: 0 for m in manifest.PER_LAYER}
    values.update({k: v for k, v in prof.items() if k in values})
    values.update(spans["spans"])
    values.update(plain["counters"])
    values.update(plain.get("campaign", {}))
    values.update(plain.get("accuracy", {}))
    values.update(spans.get("twin", {}))
    events = plain["sim_events"]
    values["sim.events_per_s"] = events / run_s
    values["sim.ns_per_event"] = run_s * 1e9 / events
    values["sim.calls_per_event"] = prof["total.calls"] / events
    values["mpi.calls_per_msg"] = prof["mpi.calls"] / values["mpi.msgs"]
    for arm in arms:
        if arm != "plain":
            values[f"{arm}.overhead_frac"] = arms[arm] / arms["plain"] - 1.0
    values["trace.overhead_frac"] = spans["run_s"] / run_s - 1.0
    # cProfile runs unsampled: wall time against wall time
    values["trace.profile_overhead_frac"] = profile["run_wall_s"] / run_wall_s - 1.0
    return values


def fmt(value: float) -> str:
    if isinstance(value, int):
        return f"{value:,}"
    return f"{value:.4g}" if abs(value) < 1e3 else f"{value:,.1f}"


def print_entry(workload: str, entry: Dict[str, Any]) -> None:
    print(f"\n== {workload}: {manifest.WORKLOADS[workload]}")
    for name, m in entry["end_to_end"].items():
        line = f"  {name:<28} {fmt(m['value']):>14} {m['unit']:<6} [{m['stat']}]"
        if "runs" in m and len(m["runs"]) > 1:
            line += f"  q1-q3 {fmt(m['q1'])}-{fmt(m['q3'])}, n={len(m['runs'])}"
        if "wall" in m:
            line += f", wall median {fmt(statistics.median(m['wall']))}"
        print(line)
    c = entry["checks"]
    print(f"  {'failed_frac':<28} {c['failed'] / c['attempted']:>14.4g} "
          f"{'ratio':<6} [{c['failed']} of {c['attempted']} checks]")
    print(f"  {'sim_digest':<28} {entry['sim_digest']:>14}")
    for name, detail in c["failing"]:
        print(f"  FAILED CHECK {name}: {detail}")
    values = entry.get("per_layer") or entry.get("accuracy") or {}
    for name, paper in manifest.PAPER.items():
        if values.get(name):
            print(f"  {name:<28} {fmt(values[name]):>14} {UNITS[name]:<6} "
                  f"[exact]  paper {paper}, error "
                  f"{abs(values[name] - paper) / paper:.1%}")
    if "per_layer" in entry:
        print("  -- per layer (traced children; .self_s under cProfile)")
        for name, value in entry["per_layer"].items():
            if name not in manifest.PAPER:
                print(f"  {name:<28} {fmt(value):>14} {UNITS[name]}")


def measure(names: Sequence[str], seed: int, size: str, out_dir: pathlib.Path,
            repeats: Optional[int] = None, seconds: float = 0.0,
            trace: bool = True) -> Dict[str, Any]:
    """Run the children for ``names`` and summarise them.

    Untraced children go round-robin over the workloads (so a slow host
    phase hits all of them): ``repeats`` each (times ``REPEAT_FACTOR``)
    or, with ``repeats`` unset, until
    ``seconds`` have passed and each has ``MIN_CHILDREN``.  Then one
    span-wrapped and one profiled child per workload when ``trace``.
    """
    import workloads  # imports repro: only once src/ is known to exist

    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = {n: workloads.make_inputs(n, seed, size) for n in names}
    runs: Dict[str, List[Dict[str, Any]]] = {n: [] for n in names}
    started = time.monotonic()

    def wants_more(n: str) -> bool:
        if repeats is not None:
            return len(runs[n]) < repeats * REPEAT_FACTOR.get(n, 1)
        return (len(runs[n]) < MIN_CHILDREN
                or time.monotonic() - started < seconds)

    while any(wants_more(n) for n in names):
        for n in names:
            if wants_more(n):
                runs[n].append(spawn_child(n, inputs[n], "plain", out_dir))
    ledger = {}
    for n in names:
        traced = {mode: spawn_child(n, inputs[n], mode, out_dir)
                  for mode in (("spans", "profile") if trace else ())}
        ledger[n] = summarise(runs[n], traced.get("spans"), traced.get("profile"))
        ledger[n]["inputs"] = inputs[n]
    return ledger


def host_description() -> Dict[str, Any]:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine(), "system": platform.system()}


# ----------------------------------------------------------------- compare
def compare(path_a: str, path_b: str) -> int:
    """One row per (workload, end-to-end metric): both values, the ratio
    with its base, and a verdict.  Exact metrics must be identical."""
    a, b = (json.loads(pathlib.Path(p).read_text()) for p in (path_a, path_b))
    comparable = (a["seed"], a["size"]) == (b["seed"], b["size"])
    if not comparable:
        print(f"note: seeds/sizes differ ({a['seed']}/{a['size']} vs "
              f"{b['seed']}/{b['size']}): exact metrics are not comparable")
    print(f"{'workload':<15} {'metric':<18} {'A':>14} {'B':>14} "
          f"{'B/A (base A)':>13}  verdict")
    bad = 0
    for wl in manifest.WORKLOADS:
        if wl not in a["workloads"] or wl not in b["workloads"]:
            continue
        ea, eb = a["workloads"][wl], b["workloads"][wl]
        for name, ma in ea["end_to_end"].items():
            mb = eb["end_to_end"][name]
            if name in EXACT:
                verdict = exact_verdict(ma["value"], mb["value"], comparable)
            else:
                verdict = bounded_verdict(ma, mb, BOUNDS[name])
            bad += verdict in ("worse", "DIFFERENT")
            ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
            print(f"{wl:<15} {name:<18} {fmt(ma['value']):>14} "
                  f"{fmt(mb['value']):>14} {ratio:>13.4f}  {verdict}")
        verdict = exact_verdict(ea["sim_digest"], eb["sim_digest"], comparable)
        bad += verdict == "DIFFERENT"
        print(f"{wl:<15} {'sim_digest':<18} {ea['sim_digest']:>14} "
              f"{eb['sim_digest']:>14} {'':>13}  {verdict}")
        la, lb = ea.get("per_layer", {}), eb.get("per_layer", {})
        moved = [n for n in la if n in EXACT and n in lb and la[n] != lb[n]]
        if comparable and la and lb:
            bad += bool(moved)
            print(f"{wl:<15} {'per-layer exact':<18} {'':>14} {'':>14} {'':>13}  "
                  + (f"DIFFERENT: {', '.join(moved)}" if moved else "identical"))
    return 1 if bad else 0


def exact_verdict(va: Any, vb: Any, comparable: bool) -> str:
    if not comparable:
        return "not-comparable"
    return "identical" if va == vb else "DIFFERENT"


def bounded_verdict(ma: Dict[str, Any], mb: Dict[str, Any], bound: float) -> str:
    """``worse`` when B's median is worse than A's by more than the bound;
    ``unresolved`` when the run-to-run spread is wider than the bound and
    the two sets of runs overlap (choosing-metrics guide, section 6.5)."""
    spread = max((m["q3"] - m["q1"]) / m["median"] for m in (ma, mb))
    overlap = min(ma["runs"]) <= max(mb["runs"]) and min(mb["runs"]) <= max(ma["runs"])
    if spread > bound and overlap:
        return "unresolved"
    return "worse" if mb["median"] > ma["median"] * (1.0 + bound) else "within-bound"


# --------------------------------------------------------------------- cli
def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--repeats", type=int, default=5,
                    help="untraced children per workload (twice for mesh_build256)")
    ap.add_argument("--quick", action="store_true",
                    help="every workload at about a tenth, one repeat")
    ap.add_argument("--out", default=str(HERE / "out"),
                    help="directory for ledger.json, trace_*.json, profile_*.json")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    ap.add_argument("--manifest", action="store_true",
                    help="print BENCHMARK.json as manifest.py defines it")
    driver = ap.add_argument_group("driver contract (one workload, one JSON line)")
    driver.add_argument("--workload", choices=list(manifest.WORKLOADS))
    driver.add_argument("--seconds", type=float, default=manifest.RUN_SECONDS)
    driver.add_argument("--trace", type=int, choices=(0, 1), default=0)
    child = ap.add_argument_group("internal: one measured child process")
    child.add_argument("--child", choices=list(manifest.WORKLOADS))
    child.add_argument("--inputs", type=json.loads)
    child.add_argument("--mode", choices=("plain", "spans", "profile"),
                       default="plain")
    child.add_argument("--t0", type=float)
    args = ap.parse_args(argv)

    if args.manifest:
        print(json.dumps(manifest.to_benchmark_json(), indent=2))
        return 0
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench.py: no simulator source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args.child, args.inputs, args.t0, args.mode, args.out)

    sys.path.insert(0, str(SRC))
    out_dir = pathlib.Path(args.out)
    size = "quick" if args.quick else "full"
    if args.workload:
        # --trace 1 needs one untraced child only, as the overhead baseline
        entry = measure([args.workload], args.seed, size, out_dir,
                        repeats=1 if args.trace else None, seconds=args.seconds,
                        trace=bool(args.trace))[args.workload]
        print_entry(args.workload, entry)
        section = entry["per_layer"] if args.trace else {
            n: m["value"] for n, m in entry["end_to_end"].items()}
        failed = entry["checks"]["failed"]
        print(json.dumps({
            "correct": failed == 0,
            "attempted": entry["checks"]["attempted"],
            "failed": failed,
            "metrics": {n: {"value": v, "unit": UNITS[n]} for n, v in section.items()},
        }))
        return 1 if failed else 0

    ledger = measure(list(manifest.WORKLOADS), args.seed, size, out_dir,
                     repeats=1 if args.quick else args.repeats)
    for name, entry in ledger.items():
        print_entry(name, entry)
    report = {"schema": 1, "seed": args.seed, "size": size,
              "host": host_description(), "workloads": ledger}
    (out_dir / "ledger.json").write_text(json.dumps(report, indent=1) + "\n")
    failed = sum(e["checks"]["failed"] for e in ledger.values())
    print(f"\nwrote {out_dir / 'ledger.json'}; "
          f"{failed} failed check(s) across {len(ledger)} workloads")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
