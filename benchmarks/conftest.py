"""Shared infrastructure for the figure/table benchmarks.

Each bench regenerates one table or figure from the paper's evaluation
(§6), prints it, writes it under ``benchmarks/results/`` and asserts the
paper's *shape* criteria (who wins, roughly by how much, where the
crossovers are) — never absolute numbers.

The figures take their cells from the named sweep grids
(``repro sweep --grid figN``) and render through the renderers the CLI
uses (:func:`repro.analysis.scheme_figure` / ``scheme_table``).
"""

from __future__ import annotations

import os
import pathlib
from typing import Sequence

import pytest

from repro.analysis import Figure, scheme_figure
from repro.campaign import CampaignResult, MemoryCache, build_grid, run_cells
from repro.campaign.spec import JobSpec
from repro.core import SCHEME_NAMES as SCHEMES  # presentation order

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: One result cache per pytest session: figures sharing cells (the NAS
#: sweep feeds Figure 9, Figure 10 and both tables) run each cell once.
SESSION_CACHE = MemoryCache()

#: ``REPRO_SWEEP_WORKERS=4 pytest benchmarks/`` fans the figure grids
#: across worker processes; default stays the sequential reference path.
SWEEP_WORKERS = int(os.environ.get("REPRO_SWEEP_WORKERS", "1"))


def run_grid(specs: Sequence[JobSpec]) -> CampaignResult:
    """Run a figure's cells through the campaign orchestrator."""
    return run_cells(specs, workers=SWEEP_WORKERS, cache=SESSION_CACHE)


def grid_figure(grid: str, title: str, **overrides) -> Figure:
    """A named sweep grid's cells, run and drawn one series per scheme."""
    return scheme_figure(run_grid(build_grid(grid, **overrides)), title)


def save_result(name: str, text: str) -> None:
    """Print a rendered figure/table and persist it for EXPERIMENTS.md."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


@pytest.fixture
def record_result():
    return save_result


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
