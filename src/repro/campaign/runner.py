"""The sweep orchestrator: fan independent cells across worker processes.

``run_cells`` takes a list of :class:`JobSpec` cells and completes every
one of them, in one of two ways:

* served from the content-addressed result cache (``cache=``),
* executed — in-process when ``workers <= 1`` (exactly the sequential
  CLI path), or on a ``ProcessPoolExecutor`` otherwise.

The cache is the campaign's checkpoint: every executed record is put
into it as it completes, so rerunning an interrupted or crashed campaign
serves its finished cells from the cache and executes only the rest.
The JSONL artifact is written once, atomically and in input order, when
the campaign completes.  ``check=True`` re-runs every cell that was *not*
freshly computed in this process and fails unless the stored record is
bit-identical — the determinism gate that lets cached/parallel results
stand in for the sequential path.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import pathlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.campaign.cells import run_cell
from repro.campaign.spec import JobSpec, canonical_json, make_record

#: How a cell's record was obtained this campaign.
SOURCES = ("run", "worker", "cache", "failed", "skipped")


class CampaignError(RuntimeError):
    """A cell failed (and ``strict=True``)."""


class CheckFailure(CampaignError):
    """``check=True`` found records that an in-process re-run contradicts."""

    def __init__(self, mismatches: List[Dict[str, Any]]):
        self.mismatches = mismatches
        cells = ", ".join(m["label"] for m in mismatches[:5])
        super().__init__(
            f"{len(mismatches)} cell(s) are not bit-identical to an "
            f"in-process run: {cells}"
        )


@dataclass
class CellOutcome:
    """One cell's fate within a campaign."""

    spec: JobSpec
    source: str
    record: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    wall_s: float = 0.0

    @property
    def key(self) -> str:
        return self.spec.key

    @property
    def metrics(self) -> Dict[str, Any]:
        if self.record is None:
            raise CampaignError(
                f"cell {self.spec.label()} has no result ({self.source}"
                + (f": {self.error}" if self.error else "")
                + ")"
            )
        return self.record["metrics"]


@dataclass
class CampaignResult:
    """All outcomes, in input-spec order."""

    outcomes: List[CellOutcome] = field(default_factory=list)
    interrupted: bool = False
    check_failures: List[Dict[str, Any]] = field(default_factory=list)
    wall_s: float = 0.0

    def _count(self, *sources: str) -> int:
        # Duplicate grid cells share one CellOutcome; count executions
        # (distinct outcomes), not appearances in the outcome list.
        return sum(1 for o in self._unique() if o.source in sources)

    def _unique(self) -> List[CellOutcome]:
        seen: set = set()
        unique = []
        for o in self.outcomes:
            if id(o) not in seen:
                seen.add(id(o))
                unique.append(o)
        return unique

    @property
    def executed(self) -> int:
        return self._count("run", "worker")

    @property
    def hits(self) -> int:
        return self._count("cache")

    @property
    def failures(self) -> List[CellOutcome]:
        return [o for o in self._unique() if o.source == "failed"]

    def metrics(self) -> List[Dict[str, Any]]:
        return [o.metrics for o in self.outcomes]

    def records(self) -> Dict[str, Dict[str, Any]]:
        return {
            o.key: o.record for o in self.outcomes if o.record is not None
        }


Progress = Callable[[CellOutcome, int, int], None]


def _worker_execute(spec_dict: Dict[str, Any]) -> Dict[str, Any]:
    """Top-level worker entry point (must be picklable)."""
    spec = JobSpec.from_dict(spec_dict)
    return make_record(spec, run_cell(spec))


def _execute(pending: Sequence[CellOutcome],
             workers: int) -> Iterator[Tuple[CellOutcome, Any, float]]:
    """Execute ``pending``, yielding ``(outcome, record or error, wall_s)``
    as each cell finishes: in this process and in input order when
    ``workers <= 1``, else from a pool that keeps at most ``2 * workers``
    cells in flight and submits none once the consumer stops."""
    if workers <= 1 or not pending:
        for out in pending:
            t0 = time.monotonic()
            try:
                got = make_record(out.spec, run_cell(out.spec))
            except Exception as err:
                got = err
            yield out, got, time.monotonic() - t0
        return
    # here, and only with cells to run: it loads multiprocessing and ~30
    # modules more, which an in-process or all-cached campaign never uses
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    queue = iter(pending)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        inflight: Dict[Any, Tuple[CellOutcome, float]] = {}
        while True:
            for out in itertools.islice(queue, 2 * workers - len(inflight)):
                fut = pool.submit(_worker_execute,
                                  {"kind": out.spec.kind, "params": out.spec.params})
                inflight[fut] = (out, time.monotonic())
            if not inflight:
                return
            finished, _ = wait(inflight, return_when=FIRST_COMPLETED)
            for fut in finished:
                out, t0 = inflight.pop(fut)
                err = fut.exception()
                yield out, fut.result() if err is None else err, time.monotonic() - t0


def run_cells(
    specs: Sequence[JobSpec],
    *,
    workers: int = 1,
    cache: Any = None,
    jsonl_path: Optional[os.PathLike] = None,
    check: bool = False,
    strict: bool = True,
    progress: Optional[Progress] = None,
    stop_after: Optional[int] = None,
) -> CampaignResult:
    """Complete every cell of a campaign; see the module docstring.

    Parameters
    ----------
    workers:
        ``<= 1`` runs cells sequentially in this process (the reference
        path); ``> 1`` fans misses across a process pool.
    cache:
        A :class:`~repro.campaign.cache.ResultCache` /
        :class:`~repro.campaign.cache.MemoryCache`; completed records are
        written back as they arrive, so it is the campaign's checkpoint.
    jsonl_path:
        Campaign artifact: on completion it is atomically rewritten with
        every record in input order (an interrupted campaign leaves it
        as it was).
    check:
        After completion, re-run every cached or worker-produced record
        in-process and require bit-identical results.
    strict:
        Raise on the first failed cell (and on check mismatches) instead
        of collecting them on the result; no cell starts after it.
    stop_after:
        Execute only the first this many cache misses and skip the rest
        — an interruption hook for tests.
    """
    t_start = time.monotonic()
    result = CampaignResult()

    outcomes = result.outcomes
    by_key: Dict[str, CellOutcome] = {}
    pending: List[CellOutcome] = []
    for spec in specs:
        key = spec.key
        if key in by_key:  # duplicate cell in the grid: one execution
            outcomes.append(by_key[key])
            continue
        record = cache.get(key) if cache is not None else None
        out = CellOutcome(spec=spec, source="cache" if record else "pending",
                          record=record)
        by_key[key] = out
        outcomes.append(out)
        if record is None:
            pending.append(out)
    if stop_after is not None and stop_after < len(pending):
        for out in pending[stop_after:]:
            out.source = "skipped"
        pending = pending[:stop_after]
        result.interrupted = True

    source = "run" if workers <= 1 else "worker"
    with contextlib.closing(_execute(pending, workers)) as runs:
        for done, (out, got, wall) in enumerate(runs, 1):
            out.wall_s = wall
            if isinstance(got, BaseException):
                out.source = "failed"
                out.error = f"{type(got).__name__}: {got}"
            else:
                out.source, out.record = source, got
                if cache is not None:
                    cache.put(out.key, got)
            if progress is not None:
                progress(out, done, len(pending))
            if strict and out.error is not None:
                raise CampaignError(
                    f"cell {out.spec.label()} failed: {out.error}"
                ) from got

    if check:
        mismatches = []
        for out in result.outcomes:
            if out.source not in ("cache", "worker"):
                continue
            expected = make_record(out.spec, run_cell(out.spec))
            if canonical_json(expected) != canonical_json(out.record):
                mismatches.append({
                    "key": out.key,
                    "label": out.spec.label(),
                    "source": out.source,
                    "stored": out.record,
                    "recomputed": expected,
                })
                # Overwrite the contradicted record so later campaigns
                # serve the verified in-process result, not the bad one.
                if cache is not None and out.key in cache:
                    cache.put(out.key, expected)
        result.check_failures = mismatches
        if mismatches and strict:
            raise CheckFailure(mismatches)

    # The artifact: deterministic input order, one record per line.
    if jsonl_path is not None and not result.interrupted:
        jsonl = pathlib.Path(jsonl_path)
        jsonl.parent.mkdir(parents=True, exist_ok=True)
        tmp = jsonl.with_suffix(jsonl.suffix + f".tmp.{os.getpid()}")
        with open(tmp, "w") as fh:
            for out in result.outcomes:
                if out.record is not None:
                    fh.write(json.dumps(out.record, sort_keys=True) + "\n")
        os.replace(tmp, jsonl)

    result.wall_s = time.monotonic() - t_start
    return result
