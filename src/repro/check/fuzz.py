"""Cross-scheme differential fuzzing.

The paper's central semantic claim is that its three flow-control schemes
differ *only* in buffer management: any MPI program must observe the same
delivered messages under hardware RNR-retry, static credits and dynamic
growth.  This module turns that claim into a randomized test: seeded
workload specs (message size/tag/pattern mix, optionally a fault plan) are
run under every scheme with the runtime :class:`~repro.check.Auditor`
armed, and the runs must produce **identical delivered-message multisets
with zero invariant violations**.

A spec is an entry of the chaos scenario schema
(:mod:`repro.faults.scenarios`) whose workload is the seeded ``"fuzz"``
program, so :func:`~repro.faults.scenarios.scenario_job` builds its jobs;
each (spec, scheme) pair is one ``"fuzz"`` campaign cell.  Everything is
deterministic given the spec: workloads are generated from
``random.Random(seed)``, fault plans carry their own seed, and the DES
kernel is deterministic — so any failure replays exactly from its spec.
On failure the driver shrinks the workload (ddmin over the message list,
then per-message size minimization) and writes a replay artifact that
``python -m repro fuzz --replay FILE`` reproduces.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.campaign.runner import run_cells
from repro.campaign.spec import JobSpec
from repro.check.auditor import Auditor, InvariantViolation
from repro.cluster.builder import check_setup_budget
from repro.cluster.job import run_job
from repro.core import EXTENDED_SCHEME_NAMES, SCHEME_NAMES, SchemeName, make_scheme
from repro.faults import FaultPlan
from repro.faults.scenarios import scenario_job
from repro.sim.units import us

#: 2: the spec is a scenario entry (version 1 was a flat record)
SPEC_VERSION = 2

#: evaluation order — every workload runs under all three
DEFAULT_SCHEMES = SCHEME_NAMES

#: the three plus the RDMA-write ring-buffer eager scheme — the
#: differential claim extends to it: ring-slot accounting must be
#: delivery-equivalent to credit accounting under every fault scenario
EXTENDED_SCHEMES = EXTENDED_SCHEME_NAMES

#: fault scenarios the fuzzer cycles through (None = healthy fabric).
#: ``link-down`` runs with the connection recovery subsystem installed: a
#: link outage outlives a finite transport retry budget, the QP pairs go
#: fatal, and the recovered runs must still agree across schemes.
#: ``rank-death`` runs with the failure detector (``ft=True``): a victim
#: rank (a pure receiver, so no survivor's delivery depends on its racy
#: in-flight sends) dies mid-run, and the *survivors'* delivered
#: multisets must still agree across schemes.
SCENARIOS = (None, "receiver-stall", "lossy-window", "link-down")

#: the rank-death arm is opt-in (``--scenarios ... rank-death``): its
#: comparison covers survivors only, a weaker claim than the default arms
FUZZ_SCENARIOS = SCENARIOS + ("rank-death",)

#: message-size ladder, eager-weighted (eager_max is 1984 with the default
#: 2 KB vbuf / 64 B header split; 2000+ goes rendezvous)
_SIZES = (4, 4, 64, 64, 512, 1000, 1900, 1984, 2000, 4096, 50_000)


# ----------------------------------------------------------------------
# workload generation
# ----------------------------------------------------------------------
def generate_spec(seed: int, scenario: Optional[str] = None,
                  on_demand: bool = False) -> Dict[str, Any]:
    """One self-contained workload spec, deterministic in ``seed``.

    With ``on_demand`` the workload runs under lazy connection
    establishment (``run_job(..., on_demand=True)``) so the differential
    comparator also covers the CM exchange path; the flag is part of the
    spec, so replay artifacts reproduce it.
    """
    rng = random.Random(seed)
    nranks = rng.choice((2, 2, 3, 4))
    if scenario == "rank-death":
        # at least two survivors, so survivor-to-survivor traffic exists
        # for the differential comparison
        nranks = max(nranks, 3)
    prepost = rng.choice((1, 2, 5, 16))
    ecm_threshold = rng.choice((1, 5, 16))
    nmsgs = rng.randrange(4, 41)
    messages = []
    for _ in range(nmsgs):
        src = rng.randrange(nranks)
        dst = rng.randrange(nranks - 1)
        if dst >= src:
            dst += 1  # never self-send
        messages.append([src, dst, rng.randrange(4), rng.choice(_SIZES)])
    plan = FaultPlan(seed=seed)
    arming: Dict[str, Any] = {"on_demand": on_demand}
    if scenario == "receiver-stall":
        plan.receiver_stall(rank=rng.randrange(nranks), at_ns=us(5),
                            duration_ns=us(rng.randrange(200, 1001)))
    elif scenario == "lossy-window":
        plan.drop_window(at_ns=us(20), duration_ns=us(rng.randrange(100, 301)),
                         probability=rng.uniform(0.05, 0.2))
    elif scenario == "link-down":
        # An outage longer than the finite go-back-N budget (40 us timeout,
        # 3 retries): every QP pair crossing the link goes fatal and must
        # be re-established by the recovery subsystem.
        plan = FaultPlan(seed=seed, transport_timeout_ns=us(40), transport_retry_limit=3)
        plan.link_flap(lid=rng.randrange(nranks), at_ns=us(30),
                       duration_ns=us(rng.randrange(300, 801)))
        arming["recovery"] = True
    elif scenario == "rank-death":
        # The victim must send nothing: a message in flight *from* a
        # dying rank is delivered or lost depending on scheme-specific
        # timing, which would be a delivery mismatch by construction.
        # Survivors' traffic among themselves is the differential claim;
        # sends *to* the victim exercise PROC_FAILED completion (force
        # one rendezvous-size send so at least one blocks on the corpse).
        victim = rng.randrange(nranks)
        for m in messages:
            if m[0] == victim:
                m[0] = rng.choice(
                    [r for r in range(nranks) if r != victim and r != m[1]]
                )
        src = rng.choice([r for r in range(nranks) if r != victim])
        messages.append([src, victim, rng.randrange(4), 50_000])
        plan.rank_death(rank=victim, at_ns=us(40))
        arming["ft"] = True
    elif scenario is not None:
        raise ValueError(
            f"unknown fuzz scenario {scenario!r} (know {FUZZ_SCENARIOS})"
        )
    # the dynamic scheme's decay, drawn after everything else so a seed's
    # messages and faults stay as they were; a spec without it has none
    decay = rng.choice((0, 0, 0, 4, 16))
    spec = {
        "version": SPEC_VERSION,
        "seed": seed,
        "scenario": scenario,
        "nranks": nranks,
        "prepost": prepost,
        "ecm_threshold": ecm_threshold,
        "workload": {"name": "fuzz", "seed": seed, "messages": messages},
        "faults": plan.to_spec() if plan.events else None,
        "arming": arming,
        "testbed": {"nodes": nranks},
    }
    if decay:
        spec["decay_idle_messages"] = decay
    return spec


# ----------------------------------------------------------------------
# running one spec under one scheme
# ----------------------------------------------------------------------
def _scheme(spec: Dict[str, Any], scheme_name: str):
    kwargs: Dict[str, Any] = {}
    if scheme_name in (SchemeName.STATIC.value, SchemeName.DYNAMIC.value):
        kwargs["ecm_threshold"] = int(spec.get("ecm_threshold", 5))
    if scheme_name == SchemeName.DYNAMIC.value and spec.get("decay_idle_messages"):
        kwargs.update(decay_enabled=True, decay_idle_messages=int(spec["decay_idle_messages"]))
    return make_scheme(scheme_name, **kwargs)


def run_spec(spec: Dict[str, Any], scheme_name: str) -> Dict[str, Any]:
    """Run the spec's workload under ``scheme_name`` with the auditor
    armed.  Returns ``{"ok": True, "delivered": [...]}`` or a structured
    failure record (``kind`` is ``"violation"`` for auditor hits, else
    the exception type name)."""
    scheme = _scheme(spec, scheme_name)
    auditor = Auditor()
    armed = spec.get("arming", {})
    overrides: Dict[str, Any] = {"audit": auditor}
    if armed.get("recovery"):
        from repro.recovery import RecoveryPolicy

        # generous attempt budget: the fuzzer probes resync correctness,
        # not budget exhaustion (tests/test_recovery.py covers that)
        overrides["recovery"] = RecoveryPolicy(max_attempts=12, seed=spec["seed"])
    # built out here: a spec that arms something ill-typed raises, it is
    # not a finding about the scheme
    job = scenario_job(spec, spec["seed"], **overrides)

    def failed(kind: str, what: Any, **more: Any) -> Dict[str, Any]:
        return {"ok": False, "kind": kind, **more, "detail": str(what),
                "audit": auditor.summary()}

    try:
        result = run_job(scheme=scheme, **job)
    except InvariantViolation as v:
        return failed("violation", v, invariant=v.invariant)
    except Exception as exc:  # deadlock, QP error, livelock ceiling, ...
        return failed(type(exc).__name__, exc)
    unexpected = [
        f for f in result.failures
        if not (armed.get("ft") and f.dedup_key()[0] == "rank")
    ]
    if unexpected:
        # a QP pair was lost for good (recovery attempt budget exhausted)
        return failed("connection-failure", unexpected[0])
    # under rank-death the victim's result slot is None (its program was
    # killed); the differential claim covers the survivors' deliveries
    delivered = sorted(
        list(t)
        for per_rank in result.rank_results
        if per_rank is not None
        for t in per_rank
    )
    return {
        "ok": True,
        "delivered": delivered,
        "violations": len(auditor.violations),
        "hook_calls": auditor.hook_calls,
        "elapsed_ns": result.elapsed_ns,
    }


def _failure(results: Dict[str, Dict[str, Any]],
             schemes: Sequence[str]) -> Optional[Dict[str, Any]]:
    """The first non-ok run, else the first delivered multiset that
    differs from the first scheme's; ``None`` when the schemes agree."""
    for name in schemes:
        r = results[name]
        if not r["ok"]:
            return {"kind": r["kind"], "scheme": name, "detail": r["detail"]}
    base = results[schemes[0]]["delivered"]
    for name in schemes[1:]:
        got = results[name]["delivered"]
        if got != base:
            return {"kind": "delivery-mismatch", "scheme": name,
                    "detail": f"{name} delivered {len(got)} messages, {schemes[0]} "
                              f"delivered {len(base)} (or same count, different multiset)"}
    return None


def compare_schemes(
    spec: Dict[str, Any], schemes: Sequence[str] = DEFAULT_SCHEMES
) -> Dict[str, Any]:
    """Run the spec under every scheme, in this process, and judge them."""
    results = {name: run_spec(spec, name) for name in schemes}
    return {"results": results, "failure": _failure(results, schemes)}


def delivered_digest(results: Dict[str, Dict[str, Any]]) -> str:
    """Canonical hash of every scheme's outcome, printed per run."""
    canon = {name: (r["delivered"] if r["ok"] else [r["kind"], r["detail"]])
             for name, r in results.items()}
    blob = json.dumps(canon, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------
def shrink(
    spec: Dict[str, Any],
    schemes: Sequence[str],
    kind: str,
    max_reruns: int = 200,
) -> Tuple[Dict[str, Any], int]:
    """Minimize the spec's messages while the same failure ``kind``
    reproduces: ddmin-style chunk removal, then single-message removal,
    then stepping each message down the size ladder.  Returns the
    minimized spec and the number of reruns spent."""
    reruns = 0
    best = spec

    def messages() -> List[list]:
        return best["workload"]["messages"]

    def attempt(candidate_msgs: List[list]) -> bool:
        nonlocal reruns, best
        if reruns >= max_reruns or not candidate_msgs:
            return False
        trial = {**best, "workload": {**best["workload"], "messages": candidate_msgs}}
        reruns += 1
        failure = compare_schemes(trial, schemes)["failure"]
        if failure is not None and failure["kind"] == kind:
            best = trial
            return True
        return False

    # 1. chunk halving, down to single messages while any goes
    chunk = max(1, len(messages()) // 2)
    while reruns < max_reruns:
        i, removed_any = 0, False
        while i < len(messages()) and reruns < max_reruns:
            msgs = messages()
            if attempt(msgs[:i] + msgs[i + chunk:]):
                removed_any = True  # same index now holds the next chunk
            else:
                i += chunk
        if chunk > 1:
            chunk //= 2
        if not removed_any and chunk == 1:
            break

    # 2. size-ladder minimization per surviving message
    i = 0
    while i < len(messages()) and reruns < max_reruns:
        size = messages()[i][3]
        for smaller in (s for s in sorted(set(_SIZES)) if s < size):
            candidate = [list(m) for m in messages()]
            candidate[i][3] = smaller
            if attempt(candidate):
                break
        else:
            i += 1
    return best, reruns


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------
def fuzz_grid(
    seed: int,
    runs: int,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    scenarios: Sequence[Optional[str]] = SCENARIOS,
    on_demand: bool = False,
) -> List[JobSpec]:
    """The sweep's campaign cells: run ``k`` (seed ``seed + k``, the
    scenarios cycled) under each scheme, run by run."""
    specs = (generate_spec(seed + k, scenarios[k % len(scenarios)] if scenarios else None,
                           on_demand=on_demand) for k in range(runs))
    return [JobSpec("fuzz", {"scheme": name, "spec": spec})
            for spec in specs for name in schemes]


def run_fuzz(
    seed: int,
    runs: int,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    scenarios: Sequence[Optional[str]] = SCENARIOS,
    out_dir: str = "fuzz-failures",
    max_shrink: int = 200,
    on_demand: bool = False,
    log=print,
    cache: Any = None,
) -> Dict[str, Any]:
    """``runs`` seeded workloads, each run under every scheme — the
    :func:`fuzz_grid` cells, through :func:`repro.campaign.run_cells` and
    ``cache``.  Failures are shrunk in this process and written to
    ``out_dir`` as replay artifacts.  With ``on_demand`` every workload
    runs under lazy connection setup."""
    summary: Dict[str, Any] = {"seed": seed, "runs": runs, "schemes": list(schemes),
                               "digests": [], "failures": []}
    cells = run_cells(fuzz_grid(seed, runs, schemes, scenarios, on_demand),
                      cache=cache).outcomes
    for k in range(runs):
        outcomes = cells[k * len(schemes):(k + 1) * len(schemes)]
        spec = outcomes[0].spec.params["spec"]
        results = {out.spec.params["scheme"]: out.metrics for out in outcomes}
        digest = delivered_digest(results)
        summary["digests"].append(digest)
        failure = _failure(results, schemes)
        if failure is None:
            if log:
                log(f"run {k}: seed={seed + k} scenario={spec['scenario'] or 'none'} "
                    f"nranks={spec['nranks']} prepost={spec['prepost']} "
                    f"msgs={len(spec['workload']['messages'])} ok digest={digest}")
            continue
        if log:
            log(f"run {k}: seed={seed + k} FAILED "
                f"[{failure['kind']} under {failure['scheme']}] — shrinking")
        minimized, reruns = shrink(spec, schemes, failure["kind"], max_shrink)
        kept = len(minimized["workload"]["messages"])
        artifact = {"version": SPEC_VERSION, "schemes": list(schemes),
                    "failure": failure, "spec": minimized, "shrink_reruns": reruns,
                    "original_message_count": len(spec["workload"]["messages"])}
        path = None
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, f"fuzz-seed{seed + k}.json")
            with open(path, "w") as fh:
                json.dump(artifact, fh, indent=2, sort_keys=True)
        summary["failures"].append({"run": k, "seed": seed + k, "kind": failure["kind"],
                                    "scheme": failure["scheme"],
                                    "minimized_messages": kept, "artifact": path})
        if log:
            log(f"run {k}: minimized to {kept} message(s) in {reruns} rerun(s)"
                + (f", artifact {path}" if path else ""))
    return summary


def _int(doc: Dict[str, Any], key: str, least: Optional[int] = None) -> int:
    value = doc[key]
    if type(value) is not int or (least is not None and value < least):
        raise ValueError(f"replay spec {key} must be an integer"
                         + ("" if least is None else f" >= {least}")
                         + f", got {value!r}")
    return value


def replay(artifact: Dict[str, Any], log=print) -> Dict[str, Any]:
    """Re-run a failure artifact's spec; returns the fresh comparison.  A
    document that is no artifact — no spec of :func:`generate_spec`'s
    shape, another version's, a scheme nobody knows, a message outside its
    world — is a ``ValueError`` or ``TypeError`` before any job runs."""
    spec = artifact.get("spec") if isinstance(artifact, dict) else None
    if not isinstance(spec, dict):
        raise ValueError("not a replay artifact: no 'spec' object")
    version = artifact.get("version", SPEC_VERSION)
    if version != SPEC_VERSION:
        raise ValueError(f"artifact version {version!r}: this build replays "
                         f"version {SPEC_VERSION} (regenerate it from its seed)")
    missing = [k for k in ("seed", "nranks", "prepost") if k not in spec]
    if not (isinstance(spec.get("workload"), dict) and "messages" in spec["workload"]):
        missing.append("messages")
    if missing:
        raise ValueError(f"replay spec lacks {', '.join(missing)}")
    schemes = artifact.get("schemes", DEFAULT_SCHEMES)
    if not (isinstance(schemes, (list, tuple)) and schemes
            and all(s in EXTENDED_SCHEMES for s in schemes)):
        raise ValueError(f"replay schemes must be a list of {EXTENDED_SCHEMES}, "
                         f"got {schemes!r}")
    # what a generated spec is by construction
    workload = spec["workload"]
    if workload.get("name") != "fuzz":
        raise ValueError(f"replay spec workload must be the fuzz program, "
                         f"got {workload.get('name')!r}")
    _int(spec, "seed")
    _int(workload, "seed")
    _int(spec, "prepost", 1)
    nranks = _int(spec, "nranks", 1)
    for m in workload["messages"]:
        if not (isinstance(m, list) and len(m) == 4 and all(type(v) is int for v in m)):
            raise ValueError(f"replay message {m!r} is not [src, dst, tag, size]")
        if not (0 <= m[0] < nranks and 0 <= m[1] < nranks) or m[0] == m[1]:
            raise ValueError(f"replay message {m!r}: src and dst must be two "
                             f"ranks of the world of {nranks}")
        if m[2] < 0 or m[3] < 0:
            raise ValueError(f"replay message {m!r}: tag and size must be >= 0")
    job = scenario_job(spec, spec["seed"])  # the faults, arming and testbed
    for name in schemes:
        check_setup_budget(_scheme(spec, name), spec["prepost"], job["config"])

    comparison = compare_schemes(spec, schemes)
    failure = comparison["failure"]
    if log:
        log("replay: workload now passes under every scheme" if failure is None
            else f"replay: reproduced [{failure['kind']} under "
                 f"{failure['scheme']}]: {failure['detail']}")
    return comparison
