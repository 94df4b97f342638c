"""The sweep orchestrator: fan independent cells across worker processes.

``run_cells`` takes a list of :class:`JobSpec` cells and completes every
one of them, in one of three ways:

* served from the content-addressed result cache (``cache=``),
* served from a previous campaign's JSONL checkpoint (``resume=``),
* executed — in-process when ``workers <= 1`` (exactly the sequential
  CLI path), or on a ``ProcessPoolExecutor`` otherwise.

Executed records are checkpointed as they complete (cache + JSONL
append), so an interrupted or crashed campaign resumes without redoing
finished cells.  ``check=True`` re-runs every cell that was *not* freshly
computed in this process and fails unless the stored record is
bit-identical — the determinism gate that lets cached/parallel results
stand in for the sequential path.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.campaign.cells import run_cell
from repro.campaign.spec import JobSpec, canonical_json, make_record

#: How a cell's record was obtained this campaign.
SOURCES = ("run", "worker", "cache", "resume", "failed", "skipped")


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
        return self._count("cache", "resume")

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


def _load_checkpoint(path: pathlib.Path) -> Dict[str, Dict[str, Any]]:
    """Read a JSONL artifact, tolerating a torn trailing line."""
    records: Dict[str, Dict[str, Any]] = {}
    try:
        lines = path.read_text().splitlines()
    except OSError:
        return records
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except ValueError:
            continue  # interrupted mid-append; the cell just re-runs
        if isinstance(rec, dict) and "key" in rec and "metrics" in rec:
            records[rec["key"]] = rec
    return records


def run_cells(
    specs: Sequence[JobSpec],
    *,
    workers: int = 1,
    cache: Any = None,
    jsonl_path: Optional[os.PathLike] = None,
    resume: bool = False,
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
        written back as they arrive.
    jsonl_path:
        Campaign artifact.  Executed records are appended live (the
        checkpoint); on completion the file is atomically rewritten with
        every record in input order.
    resume:
        Serve cells recorded in an existing ``jsonl_path`` instead of
        re-running them.
    check:
        After completion, re-run every cached/resumed/worker-produced
        record in-process and require bit-identical results.
    strict:
        Raise on the first failed cell (and on check mismatches) instead
        of collecting them on the result.
    stop_after:
        Stop launching new cells after this many executions — an
        interruption hook for checkpoint/resume tests.
    """
    t_start = time.monotonic()
    result = CampaignResult()
    jsonl = pathlib.Path(jsonl_path) if jsonl_path is not None else None
    checkpoint = _load_checkpoint(jsonl) if (resume and jsonl) else {}

    outcomes: List[CellOutcome] = []
    by_key: Dict[str, CellOutcome] = {}
    pending: List[CellOutcome] = []
    for spec in specs:
        key = spec.key
        if key in by_key:  # duplicate cell in the grid: one execution
            outcomes.append(by_key[key])
            continue
        record = checkpoint.get(key)
        source = "resume"
        if record is None and cache is not None:
            record = cache.get(key)
            source = "cache"
        out = CellOutcome(spec=spec, source=source if record else "pending",
                          record=record)
        by_key[key] = out
        outcomes.append(out)
        if record is None:
            pending.append(out)
    result.outcomes = outcomes

    total = len(pending)
    done = 0
    append_fh = None
    if jsonl is not None:
        jsonl.parent.mkdir(parents=True, exist_ok=True)
        append_fh = open(jsonl, "a" if resume else "w")

    def commit(out: CellOutcome, record: Dict[str, Any], wall: float,
               source: str) -> None:
        nonlocal done
        out.record = record
        out.source = source
        out.wall_s = wall
        done += 1
        if cache is not None:
            cache.put(out.key, record)
        if append_fh is not None:
            append_fh.write(json.dumps(record, sort_keys=True) + "\n")
            append_fh.flush()
        if progress is not None:
            progress(out, done, total)

    def fail(out: CellOutcome, err: BaseException) -> None:
        nonlocal done
        out.source = "failed"
        out.error = f"{type(err).__name__}: {err}"
        done += 1
        if progress is not None:
            progress(out, done, total)
        if strict:
            if append_fh is not None:
                append_fh.close()
            raise CampaignError(
                f"cell {out.spec.label()} failed: {out.error}"
            ) from err

    try:
        if workers <= 1:
            for out in pending:
                if stop_after is not None and done >= stop_after:
                    out.source = "skipped"
                    result.interrupted = True
                    continue
                t0 = time.monotonic()
                try:
                    record = make_record(out.spec, run_cell(out.spec))
                except Exception as err:
                    fail(out, err)
                    continue
                commit(out, record, time.monotonic() - t0, "run")
        elif pending:
            # here, not at module top: it loads multiprocessing and ~30
            # modules more, which an in-process campaign never uses
            from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

            with ProcessPoolExecutor(max_workers=workers) as pool:
                launched: Dict[Any, tuple] = {}
                for out in pending:
                    if stop_after is not None and len(launched) >= stop_after:
                        out.source = "skipped"
                        result.interrupted = True
                        continue
                    fut = pool.submit(
                        _worker_execute,
                        {"kind": out.spec.kind, "params": out.spec.params},
                    )
                    launched[fut] = (out, time.monotonic())
                not_done = set(launched)
                while not_done:
                    finished, not_done = wait(
                        not_done, return_when=FIRST_COMPLETED
                    )
                    for fut in finished:
                        out, t0 = launched[fut]
                        err = fut.exception()
                        if err is not None:
                            fail(out, err)
                            continue
                        commit(out, fut.result(),
                               time.monotonic() - t0, "worker")
    finally:
        if append_fh is not None:
            append_fh.close()

    if check:
        mismatches = []
        for out in result.outcomes:
            if out.source not in ("cache", "resume", "worker"):
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

    # Final artifact: deterministic input order, one record per line.
    if jsonl is not None and not result.interrupted:
        complete = [o.record for o in result.outcomes if o.record is not None]
        tmp = jsonl.with_suffix(jsonl.suffix + f".tmp.{os.getpid()}")
        with open(tmp, "w") as fh:
            for rec in complete:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        os.replace(tmp, jsonl)

    result.wall_s = time.monotonic() - t_start
    return result
