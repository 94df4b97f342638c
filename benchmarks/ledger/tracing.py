"""The ledger's two instruments, both applied from outside ``repro``.

1. **Boundary spans** (:class:`Spans`): wrappers installed at run time
   around the layers' public entry points.  A span has a name, start,
   end, the span that caused it and a job id shared by every span of one
   ``run_job``.  Entry points called tens of thousands of times
   (``HCA.create_qp``, ``ConnectionManager.request``) are *ticks*: a
   count and a total folded into the enclosing span, so a 65,280-QP mesh
   build does not become 65,280 span records.
2. **Layer profile** (:func:`layer_profile`): inside ``Simulator.run``
   the layers call each other through generators ~10^6 times, far below
   what a wrapper could time, so the call-level view is one ``cProfile``
   pass aggregated by source path into layers and hot modules.
"""

from __future__ import annotations

import contextlib
import functools
import pstats
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from manifest import LAYERS, MODULES

HARNESS = "harness"


class Spans:
    """In-memory span recorder; written out when the benchmark ends."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self._stack: List[Dict[str, Any]] = []
        self._job: Optional[int] = None
        self._jobs = 0

    # -------------------------------------------------------------- jobs
    def new_job(self) -> int:
        self._jobs += 1
        return self._jobs

    @contextlib.contextmanager
    def in_job(self, job: int) -> Iterator[None]:
        """Spans opened inside belong to ``job`` — how a cluster built
        during set-up and the ``run_job`` that later uses it share an id."""
        outer, self._job = self._job, job
        try:
            yield
        finally:
            self._job = outer

    # ------------------------------------------------------------- spans
    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        rec = {
            "id": len(self.records),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "job": self._job,
            "start": time.perf_counter(),
            "end": None,
            "ticks": {},
        }
        self.records.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable, new_job: bool = False) -> Callable:
        """``fn`` with a span around every call.  ``new_job`` opens a
        fresh job id unless the caller already set one."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if new_job and self._job is None:
                with self.in_job(self.new_job()), self.span(name):
                    return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def tick(self, name: str, fn: Callable) -> Callable:
        """``fn`` counted and timed into the enclosing span's ``ticks`` (the
        harness keeps a ``setup`` or ``run`` span open around all its work)."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                ticks = self._stack[-1]["ticks"]
                n, total = ticks.get(name, (0, 0.0))
                ticks[name] = (n + 1, total + dt)

        return wrapper

    # ----------------------------------------------------------- reading
    def finished(self) -> List[Dict[str, Any]]:
        """Every span with ``duration`` and ``self_s`` (duration minus the
        part its child spans and ticks cover) filled in."""
        covered = [0.0] * len(self.records)
        for rec in self.records:
            rec["duration"] = rec["end"] - rec["start"]
            if rec["parent"] is not None:
                covered[rec["parent"]] += rec["duration"]
        for rec in self.records:
            ticked = sum(total for _, total in rec["ticks"].values())
            rec["self_s"] = rec["duration"] - covered[rec["id"]] - ticked
        return self.records

    def total(self, name: str, field: str = "duration") -> float:
        return sum(r[field] for r in self.finished() if r["name"] == name)

    def count(self, name: str) -> int:
        return sum(1 for r in self.records if r["name"] == name)

    def tick_count(self, name: str) -> int:
        return sum(r["ticks"].get(name, (0, 0.0))[0] for r in self.records)


def install(spans: Spans) -> None:
    """Wrap the layers' public entry points (see the README's span list).

    ``run_job``/``run_cell``/``collect_*`` are module-level functions that
    other modules imported by name, so each importing namespace is
    patched; methods are patched on their class.
    """
    import repro.campaign as campaign
    import repro.campaign.cells as cells
    import repro.campaign.runner as runner
    import repro.cluster as cluster
    import repro.cluster.job as job
    import repro.core.memory as memory
    from repro.cluster.builder import Cluster
    from repro.cluster.on_demand import ConnectionManager
    from repro.ib.hca import HCA
    from repro.sim.engine import Simulator

    run_job = spans.wrap("cluster.run_job", job.run_job, new_job=True)
    for mod in (cluster, job, cells):
        mod.run_job = run_job
    run_cells = spans.wrap("campaign.run_cells", runner.run_cells)
    for mod in (campaign, runner):
        mod.run_cells = run_cells
    runner.run_cell = spans.wrap("campaign.run_cell", runner.run_cell)
    job.collect_report = spans.wrap("core.collect_report", job.collect_report)
    memory.collect_memory_report = spans.wrap(
        "core.collect_memory_report", memory.collect_memory_report)
    Cluster.__init__ = spans.wrap("cluster.Cluster", Cluster.__init__)
    Cluster.launch = spans.wrap("cluster.launch", Cluster.launch)
    Simulator.run = spans.wrap("sim.run", Simulator.run)
    ConnectionManager.request = spans.tick(
        "cluster.on_demand_request", ConnectionManager.request)
    HCA.create_qp = spans.tick("ib.create_qp", HCA.create_qp)


# ---------------------------------------------------------------- profile
_FILE_TO_MODULE = {path: mod for mod, paths in MODULES.items() for path in paths}


def layer_profile(profile: Any, repro_root: str) -> Dict[str, Any]:
    """Aggregate a finished ``cProfile.Profile`` by source path.

    A function defined under ``src/repro/<layer>/`` belongs to that layer
    (and to a hot module if its file is one).  Anything else — built-ins,
    C methods, the standard library — is charged, caller edge by caller
    edge, to the repro file that (transitively) called it; a non-repro
    caller is resolved to the repro file that calls *it* most often, so
    every count stays a whole number and repeats exactly.  What no repro
    function called (the harness's own programs, the profiler's tail) is
    ``harness``.  The layer counts therefore sum to ``total.calls``.
    """
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    root = repro_root.rstrip("/") + "/"

    def own_file(func: Tuple[str, int, str]) -> Optional[str]:
        filename = func[0]
        return filename[len(root):] if filename.startswith(root) else None

    owner_memo: Dict[Tuple[str, int, str], Optional[str]] = {}

    def owner(func: Tuple[str, int, str], seen: frozenset) -> Optional[str]:
        """The repro file ``func``'s work is charged to when it is a caller."""
        if func in owner_memo:
            return owner_memo[func]
        path = own_file(func)
        if path is None and func in stats and func not in seen:
            callers = stats[func][4]
            votes: Dict[str, int] = {}
            for caller, edge in sorted(callers.items()):
                resolved = owner(caller, seen | {func})
                if resolved is not None:
                    votes[resolved] = votes.get(resolved, 0) + edge[0]
            if votes:
                path = min(votes, key=lambda p: (-votes[p], p))
        owner_memo[func] = path
        return path

    calls: Dict[str, int] = {}
    self_s: Dict[str, float] = {}
    top: List[Tuple[float, int, str]] = []
    total_calls = 0
    resumes = 0

    def charge(path: Optional[str], n: int, t: float) -> None:
        key = path or HARNESS
        calls[key] = calls.get(key, 0) + n
        self_s[key] = self_s.get(key, 0.0) + t

    # sorted: the profiler's table order follows code-object addresses, and
    # the cycle guard in owner() makes its memo depend on visiting order
    for func, (_cc, nc, tt, _ct, callers) in sorted(stats.items()):
        total_calls += nc
        path = own_file(func)
        if path is not None:
            charge(path, nc, tt)
            top.append((tt, nc, f"{path}:{func[1]}:{func[2]}"))
            if path == "sim/process.py" and func[2] == "_resume":
                resumes = nc
        else:
            # calls with no recorded caller (made from frames entered
            # before the profiler started) stay with the harness
            for caller, edge in callers.items():
                charge(owner(caller, frozenset()), edge[0], edge[2])
                nc -= edge[0]
                tt -= edge[2]
            charge(None, nc, tt)

    out: Dict[str, Any] = {"total.calls": total_calls, "sim.resumes": resumes}
    groups: Dict[str, List[str]] = {name: [] for name in (*LAYERS, HARNESS, *MODULES)}
    for path in calls:
        layer = path.split("/", 1)[0] if "/" in path else HARNESS
        groups[layer if layer in LAYERS else HARNESS].append(path)
        if path in _FILE_TO_MODULE:
            groups[_FILE_TO_MODULE[path]].append(path)
    for name, paths in groups.items():
        out[f"{name}.calls"] = sum(calls[p] for p in paths)
        # sorted: float sums must not depend on the profiler's table order
        out[f"{name}.self_s"] = sum(self_s[p] for p in sorted(paths))
    top.sort(reverse=True)
    out["top_functions"] = [
        {"function": name, "calls": nc, "self_s": round(tt, 6)}
        for tt, nc, name in top[:25]
    ]
    return out
