"""Cross-scheme differential fuzzing.

The paper's central semantic claim is that its three flow-control schemes
differ *only* in buffer management: any MPI program must observe the same
delivered messages under hardware RNR-retry, static credits and dynamic
growth.  This module turns that claim into a randomized test: seeded
workload specs (message size/tag/pattern mix, optionally a fault plan) are
run under every scheme with the runtime :class:`~repro.check.Auditor`
armed, and the runs must produce **identical delivered-message multisets
with zero invariant violations**.

Everything is deterministic given the spec: workloads are generated from
``random.Random(seed)``, fault plans carry their own seed, and the DES
kernel is deterministic — so any failure replays exactly from its spec.
On failure the driver shrinks the workload (ddmin over the message list,
then per-message size minimization) and writes a replay artifact that
``python -m repro fuzz --replay FILE`` reproduces.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro.check.auditor import Auditor, InvariantViolation
from repro.cluster.arming import Arming
from repro.cluster.config import TestbedConfig
from repro.cluster.job import run_job
from repro.core import EXTENDED_SCHEME_NAMES, SCHEME_NAMES, SchemeName, make_scheme
from repro.faults import FaultPlan
from repro.mpi.protocol import ANY_TAG
from repro.sim.units import us

SPEC_VERSION = 1

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
    faults = None
    victim = None
    if scenario == "receiver-stall":
        faults = (
            FaultPlan(seed=seed)
            .receiver_stall(
                rank=rng.randrange(nranks),
                at_ns=us(5),
                duration_ns=us(rng.randrange(200, 1001)),
            )
            .to_spec()
        )
    elif scenario == "lossy-window":
        faults = (
            FaultPlan(seed=seed)
            .drop_window(
                at_ns=us(20),
                duration_ns=us(rng.randrange(100, 301)),
                probability=rng.uniform(0.05, 0.2),
            )
            .to_spec()
        )
    elif scenario == "link-down":
        # An outage longer than the finite go-back-N budget (40 us timeout,
        # 3 retries): every QP pair crossing the link goes fatal and must
        # be re-established by the recovery subsystem.
        faults = (
            FaultPlan(
                seed=seed, transport_timeout_ns=us(40), transport_retry_limit=3
            )
            .link_flap(
                lid=rng.randrange(nranks),
                at_ns=us(30),
                duration_ns=us(rng.randrange(300, 801)),
            )
            .to_spec()
        )
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
        faults = (
            FaultPlan(seed=seed)
            .rank_death(rank=victim, at_ns=us(40))
            .to_spec()
        )
    elif scenario is not None:
        raise ValueError(
            f"unknown fuzz scenario {scenario!r} (know {FUZZ_SCENARIOS})"
        )
    return {
        "version": SPEC_VERSION,
        "seed": seed,
        "nranks": nranks,
        "prepost": prepost,
        "ecm_threshold": ecm_threshold,
        "scenario": scenario,
        "recovery": scenario == "link-down",
        "ft": scenario == "rank-death",
        "victim": victim,
        "on_demand": on_demand,
        "faults": faults,
        "messages": messages,
    }


def build_program(spec: Dict[str, Any]):
    """Turn a spec into a per-rank generator program.

    Every rank posts receives for its inbound messages (in a seeded
    shuffled order, one quarter of them *deferred* until after the sends
    to exercise the unexpected queue), issues its sends in spec order,
    and waits for everything.  Each rank returns its delivered tuples
    ``(source, tag, size, uid)``.

    Tag discipline: per (src, dst) pair the receives are either *all*
    wildcard or *all* specific-tag — mixing the two on one pair can
    strand a specific-tag receive behind a wildcard that stole its
    message (legal MPI, but then delivery depends on arrival order and
    the program may deadlock; the fuzzer wants scheme differences, not
    program races).
    """
    messages: List[list] = [list(m) for m in spec["messages"]]
    spec_seed = int(spec["seed"])

    # capacity: a posted recv must fit whichever same-pair message the
    # matcher hands it, so budget for the pair's largest
    pair_max: Dict[Tuple[int, int], int] = {}
    for src, dst, _tag, size in messages:
        key = (src, dst)
        if size > pair_max.get(key, 0):
            pair_max[key] = size

    def program(ep) -> Generator:
        rank = ep.rank
        rng = random.Random(spec_seed * 1_000_003 + rank)
        inbound = [
            (uid, m) for uid, m in enumerate(messages) if m[1] == rank
        ]
        rng.shuffle(inbound)
        wildcard_sources = {
            src
            for src in sorted({m[0] for _, m in inbound})
            if rng.random() < 0.25
        }
        recv_plan = []
        for uid, (src, _dst, tag, _size) in inbound:
            use_any = src in wildcard_sources
            recv_plan.append((src, ANY_TAG if use_any else tag, pair_max[(src, rank)]))
        n_defer = len(recv_plan) // 4
        early, late = recv_plan[: len(recv_plan) - n_defer], recv_plan[len(recv_plan) - n_defer:]

        requests = []
        recv_reqs = []
        for src, tag, cap in early:
            r = yield from ep.irecv(source=src, capacity=cap, tag=tag)
            recv_reqs.append(r)
        for uid, m in enumerate(messages):
            if m[0] == rank:
                r = yield from ep.isend(
                    m[1], m[3], tag=m[2], payload=("uid", uid)
                )
                requests.append(r)
        for src, tag, cap in late:
            r = yield from ep.irecv(source=src, capacity=cap, tag=tag)
            recv_reqs.append(r)
        statuses = yield from ep.waitall(requests + recv_reqs)

        delivered = []
        for st in statuses[len(requests):]:
            uid = st.payload[1] if isinstance(st.payload, tuple) else None
            delivered.append((st.source, st.tag, st.size, uid))
        return delivered

    return program


# ----------------------------------------------------------------------
# running one spec under one scheme
# ----------------------------------------------------------------------
def run_spec(spec: Dict[str, Any], scheme_name: str) -> Dict[str, Any]:
    """Run the spec's workload under ``scheme_name`` with the auditor
    armed.  Returns ``{"ok": True, "delivered": [...]}`` or a structured
    failure record (``kind`` is ``"violation"`` for auditor hits, else
    the exception type name)."""
    kwargs: Dict[str, Any] = {}
    if scheme_name in (SchemeName.STATIC.value, SchemeName.DYNAMIC.value):
        kwargs["ecm_threshold"] = int(spec.get("ecm_threshold", 5))
    scheme = make_scheme(scheme_name, **kwargs)
    auditor = Auditor()
    nranks = int(spec["nranks"])
    recovery: Any = False
    if spec.get("recovery"):
        from repro.recovery import RecoveryPolicy

        # generous attempt budget: the fuzzer probes resync correctness,
        # not budget exhaustion (tests/test_recovery.py covers that)
        recovery = RecoveryPolicy(max_attempts=12, seed=int(spec["seed"]))
    # validated out here: a spec that arms something ill-typed raises, it
    # is not a finding about the scheme
    arming = Arming(
        on_demand=bool(spec.get("on_demand", False)),
        faults=spec.get("faults") or None,
        audit=auditor,
        recovery=recovery,
        ft=bool(spec.get("ft", False)),
    )

    def failed(kind: str, what: Any, **more: Any) -> Dict[str, Any]:
        return {"ok": False, "kind": kind, **more, "detail": str(what),
                "audit": auditor.summary()}

    try:
        result = run_job(
            build_program(spec),
            nranks,
            scheme,
            prepost=int(spec["prepost"]),
            config=TestbedConfig(nodes=nranks),
            **vars(arming),
        )
    except InvariantViolation as v:
        return failed("violation", v, invariant=v.invariant)
    except Exception as exc:  # deadlock, QP error, livelock ceiling, ...
        return failed(type(exc).__name__, exc)
    unexpected = [
        f for f in result.failures
        if not (spec.get("ft") and f.dedup_key()[0] == "rank")
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


def compare_schemes(
    spec: Dict[str, Any], schemes: Sequence[str] = DEFAULT_SCHEMES
) -> Dict[str, Any]:
    """Run the spec under every scheme; failure = any non-ok run, or any
    delivered-multiset divergence from the first scheme's."""
    results = {name: run_spec(spec, name) for name in schemes}
    failure = None
    for name in schemes:
        r = results[name]
        if not r["ok"]:
            failure = {"kind": r["kind"], "scheme": name, "detail": r["detail"]}
            break
    if failure is None:
        base = results[schemes[0]]["delivered"]
        for name in schemes[1:]:
            if results[name]["delivered"] != base:
                failure = {
                    "kind": "delivery-mismatch",
                    "scheme": name,
                    "detail": (
                        f"{name} delivered {len(results[name]['delivered'])} "
                        f"messages, {schemes[0]} delivered {len(base)} "
                        "(or same count, different multiset)"
                    ),
                }
                break
    return {"results": results, "failure": failure}


def delivered_digest(comparison: Dict[str, Any]) -> str:
    """Canonical hash of every scheme's outcome — the determinism token
    the ``--check`` rerun compares."""
    canon = {
        name: (r["delivered"] if r["ok"] else [r["kind"], r["detail"]])
        for name, r in comparison["results"].items()
    }
    blob = json.dumps(canon, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------
def _same_failure(spec: Dict[str, Any], schemes: Sequence[str], kind: str) -> bool:
    failure = compare_schemes(spec, schemes)["failure"]
    return failure is not None and failure["kind"] == kind


def shrink(
    spec: Dict[str, Any],
    schemes: Sequence[str],
    kind: str,
    max_reruns: int = 200,
) -> Tuple[Dict[str, Any], int]:
    """Minimize ``spec["messages"]`` while the same failure ``kind``
    reproduces: ddmin-style chunk removal, then single-message removal,
    then stepping each message down the size ladder.  Returns the
    minimized spec and the number of reruns spent."""
    reruns = 0
    best = dict(spec)

    def attempt(candidate_msgs: List[list]) -> bool:
        nonlocal reruns, best
        if reruns >= max_reruns or not candidate_msgs:
            return False
        trial = dict(best)
        trial["messages"] = candidate_msgs
        reruns += 1
        if _same_failure(trial, schemes, kind):
            best = trial
            return True
        return False

    # 1. chunk halving
    chunk = max(1, len(best["messages"]) // 2)
    while chunk >= 1 and reruns < max_reruns:
        msgs = best["messages"]
        i, removed_any = 0, False
        while i < len(best["messages"]) and reruns < max_reruns:
            msgs = best["messages"]
            candidate = msgs[:i] + msgs[i + chunk:]
            if candidate and attempt(candidate):
                removed_any = True  # same index now holds the next chunk
            else:
                i += chunk
        chunk = chunk // 2 if (chunk > 1 or not removed_any) else chunk
        if chunk == 0:
            break
        if not removed_any and chunk == 1:
            break

    # 2. size-ladder minimization per surviving message
    ladder = sorted(set(_SIZES))
    i = 0
    while i < len(best["messages"]) and reruns < max_reruns:
        msgs = [list(m) for m in best["messages"]]
        size = msgs[i][3]
        shrunk = False
        for smaller in ladder:
            if smaller >= size:
                break
            candidate = [list(m) for m in msgs]
            candidate[i][3] = smaller
            if attempt(candidate):
                shrunk = True
                break
        if not shrunk:
            i += 1
    return best, reruns


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------
def run_fuzz(
    seed: int,
    runs: int,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    scenarios: Sequence[Optional[str]] = SCENARIOS,
    out_dir: str = "fuzz-failures",
    max_shrink: int = 200,
    on_demand: bool = False,
    log=print,
) -> Dict[str, Any]:
    """``runs`` seeded workloads, each run under every scheme.  Failures
    are shrunk and written to ``out_dir`` as replay artifacts.  With
    ``on_demand`` every workload runs under lazy connection setup."""
    summary: Dict[str, Any] = {
        "seed": seed,
        "runs": runs,
        "schemes": list(schemes),
        "digests": [],
        "failures": [],
    }
    for k in range(runs):
        scenario = scenarios[k % len(scenarios)] if scenarios else None
        spec = generate_spec(seed + k, scenario, on_demand=on_demand)
        comparison = compare_schemes(spec, schemes)
        digest = delivered_digest(comparison)
        summary["digests"].append(digest)
        failure = comparison["failure"]
        if failure is None:
            if log:
                log(
                    f"run {k}: seed={seed + k} scenario={scenario or 'none'} "
                    f"nranks={spec['nranks']} prepost={spec['prepost']} "
                    f"msgs={len(spec['messages'])} ok digest={digest}"
                )
            continue
        if log:
            log(
                f"run {k}: seed={seed + k} FAILED "
                f"[{failure['kind']} under {failure['scheme']}] — shrinking"
            )
        minimized, reruns = shrink(spec, schemes, failure["kind"], max_shrink)
        artifact = {
            "version": SPEC_VERSION,
            "schemes": list(schemes),
            "failure": failure,
            "spec": minimized,
            "original_message_count": len(spec["messages"]),
            "shrink_reruns": reruns,
        }
        path = None
        if out_dir:
            import os

            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, f"fuzz-seed{seed + k}.json")
            with open(path, "w") as fh:
                json.dump(artifact, fh, indent=2, sort_keys=True)
        summary["failures"].append(
            {
                "run": k,
                "seed": seed + k,
                "kind": failure["kind"],
                "scheme": failure["scheme"],
                "minimized_messages": len(minimized["messages"]),
                "artifact": path,
            }
        )
        if log:
            log(
                f"run {k}: minimized to {len(minimized['messages'])} "
                f"message(s) in {reruns} rerun(s)"
                + (f", artifact {path}" if path else "")
            )
    return summary


def replay(artifact: Dict[str, Any], log=print) -> Dict[str, Any]:
    """Re-run a failure artifact's spec; returns the fresh comparison."""
    schemes = artifact.get("schemes", DEFAULT_SCHEMES)
    comparison = compare_schemes(artifact["spec"], schemes)
    failure = comparison["failure"]
    if log:
        if failure is None:
            log("replay: workload now passes under every scheme")
        else:
            log(
                f"replay: reproduced [{failure['kind']} under "
                f"{failure['scheme']}]: {failure['detail']}"
            )
    return comparison
