"""What the ledger measures: workloads, metrics, bounds and the
layer-metric -> end-to-end-metric predictions.

Pure data.  ``bench.py --manifest`` renders the root ``BENCHMARK.json``
from it (the contract's schema has no room for ``kind``/``exact``/
``moves``, so those live here and in the README), and ``test_bench.py``
pins the two against each other.
"""

from __future__ import annotations

from typing import Any, Dict, List

#: seconds one driver invocation measures (``BENCHMARK.json`` run_seconds)
RUN_SECONDS = 10

#: name -> why it is here (one line each; the contract's ``why``)
WORKLOADS: Dict[str, str] = {
    "nas_lu8": "steady-state fast path: NAS LU on 8 ranks, static, pre-post "
               "100; set-up is milliseconds so only per-message cost moves it",
    "flood_starved": "the paper's experiment: 4 B windows ~100 against pre-post "
                     "10 under all four schemes (RNR retry, backlog+ECM, growth, "
                     "ring reclaim)",
    "mesh_build256": "set-up and memory dominated: 256-rank full mesh, 65,280 "
                     "connections, ~380 MiB; simulation is ~1 % of it",
    "scale1024_od": "the 1,024-rank rung: on-demand connection set-up, three-level "
                    "fat-tree routing, 1,024 live generators; no mesh at all",
    "paper_figs": "what users run: the 165 cells of Figures 2-8 through run_cells "
                  "with a cold then warm disk cache; per-job fixed cost dominates",
    "armed_lu8": "enabled-path cost of auditor, recovery, failure detector and ECN "
                 "congestion against a plain arm of the same LU program",
}

# kind: "host" = what the simulator costs to run; "sim" = what the
# modelled MPI would take.  exact: repeats bit-identically for one seed,
# so --compare requires equality; the driver's bound only has to absorb
# the seed-to-seed variation of the generated inputs (under 1.5 %).  The
# host times are CPU seconds at reference host speed (calibrate.py): the
# shared host has slow phases that move a wall-clock reading by 30-90 %.
# Their bounds stay the widest the contract allows (README, "Host time
# at reference speed").
END_TO_END: List[Dict[str, Any]] = [
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25,
     "kind": "host", "exact": False,
     "what": "CPU time from 'clusters launched' to results returned, at "
             "reference host speed, tracing off"},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
     "kind": "host", "exact": False,
     "what": "CPU time from child process start to all harness-built clusters "
             "launched, at reference host speed (includes interpreter start "
             "and 'import repro')"},
    {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.05,
     "kind": "host", "exact": False, "what": "child ru_maxrss"},
    {"name": "sim_events", "unit": "count", "better": "lower", "bound": 0.05,
     "kind": "sim", "exact": True,
     "what": "sum of sim.events_executed over the workload's jobs"},
    {"name": "sim_elapsed_us", "unit": "sim_us", "better": "lower", "bound": 0.05,
     "kind": "sim", "exact": True,
     "what": "sum of JobResult.elapsed_ns: what the modelled MPI would take"},
]

LAYERS = ("sim", "ib", "mpi", "core", "cluster", "workloads", "campaign",
          "check", "recovery", "ft", "congestion", "faults")

#: hot module -> source files (relative to src/repro/) it aggregates
MODULES: Dict[str, tuple] = {
    "sim.engine": ("sim/engine.py",),
    "sim.process": ("sim/process.py",),
    "mpi.endpoint": ("mpi/endpoint.py",),
    "mpi.connection": ("mpi/connection.py",),
    "ib.qp": ("ib/qp.py",),
    "ib.hca": ("ib/hca.py",),
    "ib.cq": ("ib/cq.py",),
    "ib.fabric": ("ib/fabric.py", "ib/fattree.py"),
    "cluster.job": ("cluster/job.py",),
    "cluster.builder": ("cluster/builder.py",),
    "cluster.on_demand": ("cluster/on_demand.py",),
    "core.dynamic": ("core/dynamic.py",),
}

STEADY = "nas_lu8, flood_starved, paper_figs, scale1024_od, armed_lu8"

# The interaction table: which end-to-end metric each layer metric
# should move, on which workload, and where the prediction is no change.
_MSG_PATH = (f"run_s on {STEADY} (together ~60 % of self time: every message "
             "crosses all of them); no change on mesh_build256 setup_s")
_KERNEL = ("run_s on all steady-state workloads (16-19 %); no change on "
           "mesh_build256 (sim ~1 %)")
_RESUME = ("run_s on scale1024_od (1,024 generators) and nas_lu8; no change on "
           "mesh_build256 setup_s, paper_figs")
_STARVED = ("sim_elapsed_us and sim_events, then run_s, on flood_starved; "
            "no change on nas_lu8")
_BUILD = ("setup_s and peak_rss_mib on mesh_build256; no change on any other "
          "workload's run_s")
_OD = "run_s on scale1024_od; no change on mesh_build256, nas_lu8"
_CAMPAIGN = ("run_s on paper_figs (165 builds and collections); no change on "
             "nas_lu8 (one build)")
_ARMED = ("run_s on armed_lu8; no change on all others (their .calls must be 0)")
_TWIN = "sim_latency_4B_us on paper_figs"
_DERIVED = "derived; moves with run_s of its own workload"


def _pair(prefix: str, moves: str) -> List[Dict[str, Any]]:
    return [
        {"name": f"{prefix}.calls", "unit": "count", "better": "lower",
         "exact": True, "moves": moves},
        {"name": f"{prefix}.self_s", "unit": "s", "better": "lower",
         "exact": False, "moves": moves},
    ]


def _one(name: str, unit: str, moves: str, better: str = "lower",
         exact: bool = False) -> Dict[str, Any]:
    return {"name": name, "unit": unit, "better": better, "exact": exact,
            "moves": moves}


_LAYER_MOVES = {
    "sim": _KERNEL, "ib": _MSG_PATH, "mpi": _MSG_PATH, "core": _STARVED,
    "cluster": _RESUME, "workloads": _RESUME, "campaign": _CAMPAIGN,
    "check": _ARMED, "recovery": _ARMED, "ft": _ARMED, "congestion": _ARMED,
    "faults": _ARMED,
}
_MODULE_MOVES = {
    "sim.engine": _KERNEL, "sim.process": _RESUME, "mpi.endpoint": _MSG_PATH,
    "mpi.connection": _BUILD, "ib.qp": _MSG_PATH, "ib.hca": _MSG_PATH,
    "ib.cq": _MSG_PATH, "ib.fabric": _MSG_PATH, "cluster.job": _RESUME,
    "cluster.builder": _BUILD, "cluster.on_demand": _OD, "core.dynamic": _BUILD,
}

PER_LAYER: List[Dict[str, Any]] = (
    [m for layer in LAYERS for m in _pair(layer, _LAYER_MOVES[layer])]
    + _pair("harness", "nothing: benchmark-side code and whatever no repro "
                       "function called")
    + [m for mod in MODULES for m in _pair(mod, _MODULE_MOVES[mod])]
    + [
        # boundary spans
        _one("cluster.launch_s", "s", _BUILD),
        _one("cluster.launch_n", "count", _CAMPAIGN, exact=True),
        _one("sim.run_s", "s", _KERNEL),
        _one("cluster.run_job_self_s", "s", _CAMPAIGN),
        _one("core.collect_s", "s", _CAMPAIGN),
        _one("campaign.run_cells_s", "s", _CAMPAIGN),
        _one("campaign.overhead_s", "s", _CAMPAIGN),
        _one("campaign.warm_s", "s", _CAMPAIGN),
        _one("campaign.cache_hits", "count", _CAMPAIGN, "higher", exact=True),
        _one("cluster.on_demand_requests", "count", _OD, exact=True),
        _one("ib.create_qp_n", "count", _BUILD, exact=True),
        # counts and ratios from the public result objects
        _one("total.calls", "count", _DERIVED, exact=True),
        _one("sim.events_per_s", "1/s", _KERNEL, "higher"),
        _one("sim.ns_per_event", "ns", _KERNEL),
        _one("sim.calls_per_event", "ratio", _KERNEL, exact=True),
        _one("sim.resumes", "count", _RESUME, exact=True),
        _one("mpi.msgs", "count", _MSG_PATH, exact=True),
        _one("mpi.calls_per_msg", "ratio", _MSG_PATH, exact=True),
        _one("mpi.rndv_fallbacks", "count", _STARVED, exact=True),
        _one("core.backlogged_msgs", "count", _STARVED, exact=True),
        _one("core.backlog_max", "count", _STARVED, exact=True),
        _one("core.ecm_msgs", "count", _STARVED, exact=True),
        _one("core.control_msgs", "count", _STARVED, exact=True),
        _one("core.max_posted_buffers", "count", _STARVED, exact=True),
        _one("ib.rnr_naks", "count", _STARVED, exact=True),
        _one("ib.retransmissions", "count", _STARVED, exact=True),
        _one("cluster.connections", "count", _BUILD, exact=True),
        _one("cluster.pinned_bytes", "bytes", _BUILD, exact=True),
        _one("congestion.ecn_marks", "count", _ARMED, exact=True),
        _one("ft.pings", "count", _ARMED, exact=True),
        # enabled-path cost, untraced: arm run time / plain arm - 1
        _one("check.overhead_frac", "ratio", _ARMED),
        _one("recovery.overhead_frac", "ratio", _ARMED),
        _one("ft.overhead_frac", "ratio", _ARMED),
        _one("congestion.overhead_frac", "ratio", _ARMED),
        # simulated results pinned beside the host numbers (paper_figs)
        _one("sim_latency_4B_us", "sim_us", _TWIN, exact=True),
        _one("sim_peak_bw_mbps", "MB/s", "the Figure 7/8 peak on paper_figs",
             "higher", exact=True),
        _one("ib.fabric_ns_4B", "sim_ns", _TWIN, exact=True),
        _one("mpi.host_ns_4B", "sim_ns", _TWIN, exact=True),
        # cost of the instruments themselves
        _one("trace.overhead_frac", "ratio", "nothing: span-wrapper cost"),
        _one("trace.profile_overhead_frac", "ratio", "nothing: cProfile cost"),
        _one("trace.spans", "count", "nothing", exact=True),
    ]
)

#: the paper's own numbers (4-byte latency, peak bandwidth) the simulated
#: results of ``paper_figs`` are printed against and checked to within 5 % of
PAPER = {"sim_latency_4B_us": 7.5, "sim_peak_bw_mbps": 860.0}


def to_benchmark_json() -> Dict[str, Any]:
    """The root ``BENCHMARK.json``, in the driver contract's schema."""
    return {
        "command": ["python3", "benchmarks/ledger/bench.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {k: m[k] for k in ("name", "unit", "better", "bound")}
            for m in END_TO_END
        ],
        "per_layer": [
            {k: m[k] for k in ("name", "unit", "better")} for m in PER_LAYER
        ],
    }
