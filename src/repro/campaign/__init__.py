"""Parallel sweep campaigns with content-addressed result caching.

The scaling layer every experiment runs on:

* :class:`JobSpec` — one declarative sweep cell (kind + params), keyed by
  a stable hash of its spec and the ``repro`` source fingerprint;
* :func:`run_cells` — the orchestrator: cache lookups (the cache is the
  checkpoint a rerun picks an interrupted campaign up from), in-process
  or ``ProcessPoolExecutor`` execution, and the ``check=True``
  bit-identical determinism gate;
* :mod:`~repro.campaign.grids` — the named figure/table campaigns behind
  ``python -m repro sweep``.

:func:`run_cells` and :class:`~repro.campaign.cache.ResultCache` load their
modules on first use: building cells or running one in-process loads
neither the orchestrator nor a cache.
"""

from importlib import import_module

from repro.campaign.cells import CELL_KINDS, cell_kind, latency_metrics, run_cell
from repro.campaign.grids import GRIDS, build_grid
from repro.campaign.spec import JobSpec, canonical_json, code_version, make_record

#: the names that load their defining module when first read
_ON_USE = {"ResultCache": "cache", "run_cells": "runner"}

__all__ = [
    "CELL_KINDS",
    "GRIDS",
    "JobSpec",
    "ResultCache",
    "build_grid",
    "canonical_json",
    "cell_kind",
    "code_version",
    "latency_metrics",
    "make_record",
    "run_cell",
    "run_cells",
]


def __getattr__(name: str):
    if name in _ON_USE:
        return getattr(import_module(f"{__name__}.{_ON_USE[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
