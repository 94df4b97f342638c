"""The six workloads: seeded inputs, set-up, run, correctness checks.

Every workload is a closed loop by construction — each simulated rank
waits for its own completions — and is driven by one process.  The parent
draws a workload's inputs from ``--seed`` (:func:`make_inputs`); the child
that runs it receives only those inputs.  The seed never changes how much
work a workload does (message counts are fixed per size), only which
work: ring stride and message sizes, window order, compute-time scale,
detector jitter.  Host time therefore compares across seeds, and the
simulated counters move by about a percent at most.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

import repro.campaign as campaign
import repro.campaign.cells as cells
import repro.cluster as cluster_mod
import repro.cluster.job as job_mod
from repro.campaign.grids import LATENCY_SIZES
from repro.cluster import TestbedConfig, fat_tree_shape
from repro.core import make_scheme
from repro.workloads.nas import lu

from manifest import PAPER, WORKLOADS
from tracing import Spans

Check = Tuple[str, bool, str]

#: livelock guard handed to every ``run_job``: a job still running after
#: this many events raises (and counts as a failed check)
MAX_EVENTS = 50_000_000

FLOOD_SCHEMES = ("hardware", "static", "dynamic", "rdma-eager")
FLOOD_PREPOST = 10
ARMS = ("plain", "check", "recovery", "ft", "congestion")
BW_FIGURES = ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8")

#: per-size knobs; ``quick`` is every workload at roughly a tenth
SIZES: Dict[str, Dict[str, Any]] = {
    "full": dict(lu_steps=15, flood_reps=40, mesh_ranks=256, mesh_iters=4,
                 scale_iters=10, fig_iterations=30, fig_repetitions=6,
                 armed_steps=4),
    "quick": dict(lu_steps=2, flood_reps=5, mesh_ranks=64, mesh_iters=2,
                  scale_iters=1, fig_iterations=5, fig_repetitions=1,
                  armed_steps=1),
}


# ------------------------------------------------------------------ inputs
def make_inputs(name: str, seed: int, size: str = "full") -> Dict[str, Any]:
    """Draw workload ``name``'s inputs from ``seed`` (same seed, same
    inputs), with the message and byte counts the generated program must
    deliver (``expect_*``) — known here, where the program is generated."""
    rng = random.Random(f"{name}:{seed}")
    knobs = SIZES[size]
    inp: Dict[str, Any] = {"max_events": MAX_EVENTS}

    def compute_scale() -> float:
        # LU's per-plane relaxation cost, +-0.5 %: shifts every timing
        # alignment without changing the message pattern
        return round(1.0 + rng.uniform(-0.005, 0.005), 6)

    def ring(nranks: int, block: int, iters: int) -> None:
        # stride = k*block + 1: odd, so the ring is one cycle, and every hop
        # leaves its leaf (mesh) / pod (1,024 ranks) for the same position
        # k blocks over, so all strides load the tree alike
        inp["nranks"] = nranks
        inp["stride"] = block * rng.randrange(1, nranks // block - 1) + 1
        inp["sizes"] = [rng.randrange(960, 1089) for _ in range(iters)]
        inp["expect_msgs"] = nranks * iters
        inp["expect_bytes"] = nranks * sum(inp["sizes"])

    if name == "nas_lu8":
        inp.update(steps=knobs["lu_steps"], compute_scale=compute_scale(),
                   expect_msgs=lu_data_msgs(knobs["lu_steps"]))
    elif name == "flood_starved":
        reps = knobs["flood_reps"]
        # evenly spread over 80..120, shuffled: the order is seeded, the
        # total message count is not
        windows = [80 + (40 * i) // (reps - 1) for i in range(reps)]
        rng.shuffle(windows)
        msgs = sum(windows) + reps + barrier_msgs(2)  # windows, acks, finalize
        # every message, the barrier's included, carries 4 bytes
        inp.update(windows=windows, stall_ns=100_000, expect_msgs=msgs,
                   expect_bytes=4 * msgs)
    elif name == "mesh_build256":
        ring(knobs["mesh_ranks"], 16 if knobs["mesh_ranks"] > 64 else 8,
             knobs["mesh_iters"])
    elif name == "scale1024_od":
        ring(1024, 128, knobs["scale_iters"])
    elif name == "paper_figs":
        # the grids are the paper's; only the ping-pong count of each
        # Figure 2 size is drawn (a latency is a per-iteration mean, so the
        # figure does not move)
        inp.update(fig2=[[size, knobs["fig_iterations"] + rng.randrange(5)]
                         for size in LATENCY_SIZES],
                   repetitions=knobs["fig_repetitions"])
    elif name == "armed_lu8":
        inp.update(steps=knobs["armed_steps"], compute_scale=compute_scale(),
                   ft_seed=rng.randrange(1 << 30),
                   recovery_seed=rng.randrange(1 << 30),
                   congestion_mode="ecn",
                   # the failure detector's finalize does not world-synchronise
                   expect_msgs={arm: lu_data_msgs(knobs["armed_steps"], arm != "ft")
                                for arm in ARMS})
    else:
        raise ValueError(f"unknown workload {name!r} (know {', '.join(WORKLOADS)})")
    return inp


# ---------------------------------------------------------------- programs
def ring_program(stride: int, sizes: List[int]) -> Callable:
    """Every rank sends to ``rank + stride`` and receives from
    ``rank - stride``, one message of ``sizes[i]`` bytes per iteration."""

    def prog(mpi) -> Generator:
        n = mpi.world_size
        nxt, prv = (mpi.rank + stride) % n, (mpi.rank - stride) % n
        for i, size in enumerate(sizes):
            rreq = yield from mpi.irecv(source=prv, capacity=4096, tag=i)
            yield from mpi.send(nxt, size=size, tag=i)
            yield from mpi.wait(rreq)

    return prog


def flood_program(windows: List[int], stall_ns: int, size: int = 4) -> Callable:
    """The non-blocking arm of ``workloads.microbench.bandwidth_program``
    with one window size per repetition: rank 0 pushes ``windows[i]``
    back-to-back isends, rank 1 (which pre-posted them) acks with 4 bytes.
    Rank 1 computes for ``stall_ns`` before it polls each window: an
    attentive receiver reposts fast enough that the hardware scheme never
    sees an RNR NAK, and the workload is about the starved path."""

    def prog(mpi) -> Generator:
        peer = 1 - mpi.rank
        if mpi.rank == 0:
            for window in windows:
                reqs = []
                for w in range(window):
                    r = yield from mpi.isend(peer, size=size, tag=1,
                                             buffer_id=("bw", w % 64))
                    reqs.append(r)
                yield from mpi.waitall(reqs)
                yield from mpi.recv(source=peer, capacity=16, tag=2)
            return

        def post(window: int) -> Generator:
            reqs = []
            for w in range(window):
                r = yield from mpi.irecv(source=peer, capacity=size, tag=1,
                                         buffer_id=("bw", w % 64))
                reqs.append(r)
            return reqs

        reqs = yield from post(windows[0])
        for nxt in windows[1:] + [0]:
            yield from mpi.compute(stall_ns)
            yield from mpi.waitall(reqs)
            reqs = yield from post(nxt)
            yield from mpi.send(peer, size=4, tag=2)

    return prog


def barrier_msgs(nranks: int) -> int:
    """Messages of the finalize barrier (dissemination: log2 P rounds)."""
    return nranks * (nranks - 1).bit_length()


def lu_data_msgs(steps: int, finalize_barrier: bool = True) -> int:
    """Data messages of ``lu.build(steps)`` on 8 ranks (a 4x2 grid: 4
    north-south and 6 east-west neighbour pairs)."""
    sweeps = 2 * lu.NZ * (4 + 6)  # one eager message per pair, plane and sweep
    rhs = 2 * (4 + 6)  # one face per rank per neighbour
    allreduce = 8 * 3  # recursive doubling
    return steps * (sweeps + rhs + allreduce) + (
        barrier_msgs(8) if finalize_barrier else 0)


# ----------------------------------------------------------------- records
@dataclass
class Job:
    """What the harness keeps of one ``run_job``: public results only."""

    name: str
    host_s: float
    error: Optional[str] = None
    events: int = 0
    elapsed_ns: int = 0
    fc: Dict[str, Any] = field(default_factory=dict)
    bytes_received: int = 0
    failures: int = 0
    connections: int = 0
    pinned_bytes: int = 0
    established: Optional[int] = None
    ecn_marks: int = 0
    pings: int = 0
    audited: bool = False


class Context:
    """One child's measurement state: the span recorder and the job log."""

    def __init__(self, spans: Spans, out_dir: str,
                 normalised: Callable[[float, float], float]):
        self.spans = spans
        self.out_dir = out_dir
        #: CPU seconds between two thread_time stamps, at reference speed
        self.normalised = normalised
        self.jobs: List[Job] = []
        self._scratch: List[str] = []

    def scratch_dir(self, prefix: str) -> str:
        """A fresh directory under the output directory (the benchmark
        writes nowhere else), removed by :meth:`cleanup`."""
        path = tempfile.mkdtemp(prefix=prefix, dir=self.out_dir)
        self._scratch.append(path)
        return path

    def cleanup(self) -> None:
        for path in self._scratch:
            shutil.rmtree(path, ignore_errors=True)

    def build(self, config: TestbedConfig, nranks: int, scheme: str, prepost: int,
              on_demand: Optional[bool] = None) -> Tuple[int, Any]:
        """Build and launch one cluster during set-up; returns its job id."""
        jid = self.spans.new_job()
        with self.spans.in_job(jid):
            cluster = cluster_mod.Cluster(config)
            cluster.launch(nranks, make_scheme(scheme), prepost, on_demand=on_demand)
        return jid, cluster

    def run_job(self, name: str, jid: int, *args: Any, **kwargs: Any) -> None:
        """One job on a cluster built by :meth:`build`.  A job that raises
        (deadlock, ``max_events``, invariant violation) is a failed check,
        not the end of the benchmark."""
        with self.spans.in_job(jid):
            try:
                self.record(name, job_mod.run_job, *args, **kwargs)
            except Exception as exc:  # noqa: BLE001 - reported by jobs_complete
                self.jobs[-1].error = f"{type(exc).__name__}: {exc}"

    def record(self, name: str, run_job: Callable, *args: Any, **kwargs: Any) -> Any:
        """Call ``run_job`` and log what its public result says."""
        job = Job(name=name, host_s=0.0)
        self.jobs.append(job)
        t0 = time.thread_time()
        try:
            r = run_job(*args, **kwargs)
        finally:
            job.host_s = self.normalised(t0, time.thread_time())
        sim = r.endpoints[0].sim
        job.events = sim.events_executed
        job.elapsed_ns = r.elapsed_ns
        job.fc = r.fc_dict()
        job.bytes_received = sum(ep.bytes_received for ep in r.endpoints)
        job.failures = len(r.failures)
        job.connections = r.memory.connections
        job.pinned_bytes = r.memory.vbuf_pinned_bytes
        job.established = r.connections_established
        job.ecn_marks = r.congestion.ecn_marks if r.congestion is not None else 0
        job.pings = r.ft.pings_sent if r.ft is not None else 0
        job.audited = r.audit is not None
        return r

    # ---------------------------------------------------------- summaries
    def digest(self) -> str:
        """Fingerprint of every job's simulated outcome — two commits that
        agree on it simulated the same thing."""
        blob = json.dumps(
            [[j.name, j.events, j.elapsed_ns, j.fc, j.error] for j in self.jobs],
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def counters(self) -> Dict[str, int]:
        def total(key: str) -> int:
            return sum(j.fc.get(key, 0) for j in self.jobs)

        def peak(key: str) -> int:
            return max((j.fc.get(key, 0) for j in self.jobs), default=0)

        return {
            "mpi.msgs": total("total_msgs"),
            "mpi.rndv_fallbacks": total("rndv_fallbacks"),
            "core.backlogged_msgs": total("backlogged_msgs"),
            "core.backlog_max": peak("backlog_max"),
            "core.ecm_msgs": total("ecm_msgs"),
            "core.control_msgs": total("control_msgs"),
            "core.max_posted_buffers": peak("max_posted_buffers"),
            "ib.rnr_naks": total("rnr_naks"),
            "ib.retransmissions": total("retransmissions"),
            "cluster.connections": sum(j.connections for j in self.jobs),
            "cluster.pinned_bytes": sum(j.pinned_bytes for j in self.jobs),
            "congestion.ecn_marks": sum(j.ecn_marks for j in self.jobs),
            "ft.pings": sum(j.pings for j in self.jobs),
        }


def completion_checks(jobs: List[Job]) -> List[Check]:
    """One check per job: it returned, with no failure record.  (A hung
    rank makes ``run_job`` raise, so it lands here too.)"""
    return [
        (f"jobs_complete:{j.name}", j.error is None and j.failures == 0,
         j.error or f"{j.failures} failure record(s)")
        for j in jobs
    ]


def delivered_check(job: Job, msgs: int, nbytes: Optional[int] = None) -> Check:
    """Delivered traffic equals what the generated program sends."""
    got = (job.fc.get("data_msgs"), job.bytes_received)
    ok = got[0] == msgs and (nbytes is None or got[1] == nbytes)
    return (f"delivered:{job.name}", ok,
            f"data_msgs/bytes {got} != expected {(msgs, nbytes)}")


def fabric_twin() -> Dict[str, float]:
    """The simulated-time twin of the host-time profile: split the 4-byte
    one-way latency into fabric (wire + switch: mean ``arrival - post`` of
    the ``fabric.tx`` records) and host (MPI software + HCA + PCI-X: the
    rest) from one traced ping-pong."""
    from repro.workloads import latency_program

    r = job_mod.run_job(latency_program(4, iterations=50), 2, "static", 100,
                                config=TestbedConfig(nodes=2), trace=True)
    flights = [rec[2][3] - rec[0] for rec in r.tracer.records_of("fabric.tx")]
    fabric_ns = sum(flights) / len(flights)
    return {"ib.fabric_ns_4B": fabric_ns,
            "mpi.host_ns_4B": float(r.rank_results[0]) - fabric_ns}


# --------------------------------------------------------------- workloads
class Workload:
    """``setup`` builds what the harness builds itself (timed as
    ``setup_s``), ``run`` does the measured work (``run_s``), ``checks``
    judges the recorded jobs.  ``extras`` are workload-specific numbers
    for the report."""

    #: arms check/recovery/ft/congestion — every other workload's profile
    #: must show zero calls into them (disabled means zero-cost)
    arms_subsystems = False
    #: a traced simulated-time job run after the measured phases, if any
    twin: Optional[Callable[[], Dict[str, float]]] = None
    #: share of the run spent as ``calibrate.memory_pass`` is (waiting for
    #: memory beyond a core's caches) rather than as ``core_pass``: fitted
    #: under a neighbour streaming memory, only used to take host noise out
    memory_share = 0.0

    def setup(self, inp: Dict[str, Any], ctx: Context) -> Any:
        raise NotImplementedError

    def run(self, inp: Dict[str, Any], state: Any, ctx: Context) -> None:
        raise NotImplementedError

    def checks(self, inp: Dict[str, Any], ctx: Context) -> List[Check]:
        raise NotImplementedError

    def extras(self, ctx: Context) -> Dict[str, Any]:
        return {}


class NasLu8(Workload):
    def setup(self, inp, ctx):
        return ctx.build(TestbedConfig(), 8, "static", 100)

    def run(self, inp, state, ctx):
        jid, cluster = state
        ctx.run_job("lu", jid, lu.build(inp["steps"], inp["compute_scale"]),
                    8, "static", 100, cluster=cluster, max_events=inp["max_events"])

    def checks(self, inp, ctx):
        return [delivered_check(ctx.jobs[0], inp["expect_msgs"])]


class FloodStarved(Workload):
    def setup(self, inp, ctx):
        return [ctx.build(TestbedConfig(nodes=2), 2, scheme, FLOOD_PREPOST)
                for scheme in FLOOD_SCHEMES]

    def run(self, inp, state, ctx):
        for scheme, (jid, cluster) in zip(FLOOD_SCHEMES, state):
            ctx.run_job(scheme, jid,
                        flood_program(inp["windows"], inp["stall_ns"]), 2, scheme,
                        FLOOD_PREPOST, cluster=cluster, max_events=inp["max_events"])

    def checks(self, inp, ctx):
        out = [delivered_check(j, inp["expect_msgs"], inp["expect_bytes"])
               for j in ctx.jobs]
        # the point of the workload: every scheme really left the fast path.
        # (static and rdma-eager may still see a few RNR NAKs here: their
        # credit-less control messages meet a receiver that is not polling.)
        left = {
            "hardware": lambda fc: fc["rnr_naks"] > 0 and fc["backlogged_msgs"] == 0,
            "static": lambda fc: fc["backlogged_msgs"] > 0 and fc["ecm_msgs"] > 0,
            "dynamic": lambda fc: fc["max_posted_buffers"] > FLOOD_PREPOST,
            "rdma-eager": lambda fc: fc["backlogged_msgs"] > 0,
        }
        keys = ("rnr_naks", "backlogged_msgs", "ecm_msgs", "max_posted_buffers")
        for j in ctx.jobs:
            out.append((f"starved:{j.name}", bool(j.fc) and left[j.name](j.fc),
                        str({k: j.fc.get(k) for k in keys})))
        return out


class Ring(Workload):
    """Seeded-stride ring on the canonical fat-tree for the rank count,
    ``dynamic`` at pre-post 1: as a full mesh (``mesh_build256``) or
    on-demand (``scale1024_od``)."""

    def __init__(self, on_demand: bool):
        self.on_demand = on_demand
        # 1,024 ranks' state is revisited once per ring step and does not
        # fit a core's caches; the run of the 256-rank mesh is 4 short steps
        self.memory_share = 0.3 if on_demand else 0.0

    def setup(self, inp, ctx):
        n = inp["nranks"]
        return ctx.build(TestbedConfig(nodes=n, **fat_tree_shape(n)), n,
                         "dynamic", 1, on_demand=self.on_demand)

    def run(self, inp, state, ctx):
        jid, cluster = state
        ctx.run_job("ring", jid, ring_program(inp["stride"], inp["sizes"]),
                    inp["nranks"], "dynamic", 1, cluster=cluster, finalize=False,
                    max_events=inp["max_events"])

    def checks(self, inp, ctx):
        n, job = inp["nranks"], ctx.jobs[0]
        out = [delivered_check(job, inp["expect_msgs"], inp["expect_bytes"])]
        if self.on_demand:  # one cycle: exactly one connection per rank
            out.append(("on_demand_pairs", job.established == n,
                        f"{job.established} pairs established, expected {n}"))
        else:
            out.append(("mesh_connections", job.connections == n * (n - 1),
                        f"{job.connections} connections, expected {n * (n - 1)}"))
        return out


class PaperFigs(Workload):
    twin = staticmethod(fabric_twin)

    def setup(self, inp, ctx):
        specs = []
        for size, iterations in inp["fig2"]:
            specs += campaign.build_grid("fig2", sizes=[size], iterations=iterations)
        for fig in BW_FIGURES:
            specs += campaign.build_grid(fig, repetitions=inp["repetitions"])
        cache_dir = ctx.scratch_dir("sweep-cache-")
        # cells call run_job themselves; log each one like a harness job
        inner = cells.run_job
        cells.run_job = lambda *a, **kw: ctx.record(
            f"cell{len(ctx.jobs)}", inner, *a, **kw)
        return specs, cache_dir

    def run(self, inp, state, ctx):
        specs, cache_dir = state
        cache = campaign.ResultCache(cache_dir)
        self.cold = campaign.run_cells(specs, workers=1, cache=cache, strict=False)
        self.warm = campaign.run_cells(specs, workers=1, cache=cache, strict=False)

    def _cells(self, kind: str, **params: Any) -> List[Any]:
        return [o for o in self.cold.outcomes
                if o.spec.kind == kind and o.record is not None
                and all(o.spec.params[k] == v for k, v in params.items())]

    def accuracy(self) -> Dict[str, float]:
        lat = [o.metrics["latency_us"] for o in self._cells(
            "latency", size=4, scheme="static")]
        bw = [o.metrics["mbps"] for o in self._cells("bandwidth", size=32 * 1024)]
        return {"sim_latency_4B_us": lat[0] if lat else 0.0,
                "sim_peak_bw_mbps": max(bw, default=0.0)}

    def checks(self, inp, ctx):
        cold, warm = self.cold, self.warm
        out = [(f"cell_ran:{o.spec.label()}", o.source == "run", o.error or o.source)
               for o in cold.outcomes]
        for o in self._cells("bandwidth"):
            p = o.spec.params
            expected = p["size"] * p["window"] * p["repetitions"]
            out.append((f"delivered:{o.spec.label()}",
                        o.metrics["bytes_moved"] == expected,
                        f"bytes_moved {o.metrics['bytes_moved']} != {expected}"))
        lat4 = {o.spec.params["scheme"]: o.metrics["latency_us"]
                for o in self._cells("latency", size=4)}
        out.append(("latency_4B_equal_across_schemes",
                    len(lat4) == 3 and len(set(lat4.values())) == 1, str(lat4)))
        out.append(("warm_all_cache_hits",
                    warm.hits == len(cold.records()) and warm.executed == 0,
                    f"{warm.hits} hits, {warm.executed} re-executed"))
        out.append(("warm_records_identical",
                    campaign.canonical_json(warm.records())
                    == campaign.canonical_json(cold.records()), "records differ"))
        acc = self.accuracy()
        for key, paper in PAPER.items():
            err = abs(acc[key] - paper) / paper
            out.append((f"accuracy:{key}", err < 0.05,
                        f"{acc[key]:.3f} is {err:.1%} off the paper's {paper}"))
        return out

    def extras(self, ctx):
        cold = self.cold
        return {
            "accuracy": self.accuracy(),
            "campaign": {
                "campaign.run_cells_s": cold.wall_s,
                "campaign.overhead_s": cold.wall_s - sum(
                    {id(o): o.wall_s for o in cold.outcomes}.values()),
                "campaign.warm_s": self.warm.wall_s,
                "campaign.cache_hits": self.warm.hits,
            },
        }


class ArmedLu8(Workload):
    arms_subsystems = True

    def setup(self, inp, ctx):
        from repro.congestion import make_congestion_config

        built = []
        for arm in ARMS:
            config = TestbedConfig()
            if arm == "congestion":
                config.ib.congestion = make_congestion_config(inp["congestion_mode"])
            built.append(ctx.build(config, 8, "static", 100))
        return built

    def run(self, inp, state, ctx):
        from repro.ft import FTConfig
        from repro.recovery import RecoveryPolicy

        arm_kwargs = {
            "plain": {},
            "check": {"audit": True},
            "recovery": {"recovery": RecoveryPolicy(seed=inp["recovery_seed"])},
            "ft": {"ft": FTConfig(seed=inp["ft_seed"])},
            "congestion": {},
        }
        for arm, (jid, cluster) in zip(ARMS, state):
            ctx.run_job(arm, jid, lu.build(inp["steps"], inp["compute_scale"]),
                        8, "static", 100, cluster=cluster,
                        max_events=inp["max_events"], **arm_kwargs[arm])

    def checks(self, inp, ctx):
        out = [delivered_check(j, inp["expect_msgs"][j.name]) for j in ctx.jobs]
        by_arm = {j.name: j for j in ctx.jobs}
        # a violation raises inside run_job, so an audited job that
        # returned ran its final check clean
        out.append(("auditor_clean", by_arm["check"].audited
                    and by_arm["check"].error is None,
                    by_arm["check"].error or "no auditor attached"))
        out.append(("subsystems_engaged",
                    by_arm["ft"].pings > 0 and by_arm["congestion"].ecn_marks > 0,
                    f"pings {by_arm['ft'].pings}, "
                    f"ecn marks {by_arm['congestion'].ecn_marks}"))
        return out

    def extras(self, ctx):
        return {"arms": {j.name: j.host_s for j in ctx.jobs}}


REGISTRY: Dict[str, Callable[[], Workload]] = {
    "nas_lu8": NasLu8,
    "flood_starved": FloodStarved,
    "mesh_build256": lambda: Ring(on_demand=False),
    "scale1024_od": lambda: Ring(on_demand=True),
    "paper_figs": PaperFigs,
    "armed_lu8": ArmedLu8,
}
