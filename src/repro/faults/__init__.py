"""Deterministic fault injection (chaos mode) for the simulated cluster.

The paper's robustness story — user-level flow control degrades
gracefully where the hardware scheme storms (Figure 10) — only shows
under adverse conditions.  This package injects them, reproducibly:

* :class:`FaultPlan` — a seeded schedule of link flaps, link degradation,
  probabilistic drop/corruption windows, receiver stalls and HCA pauses
  (builder API, or declarative dict/JSON specs);
* :class:`FaultInjector` — arms a plan on a launched cluster
  (``run_job(..., faults=plan)`` does this for you);
* :data:`SCENARIOS` / :func:`scenario_job` / :func:`chaos_report` — the
  named scenarios as data, the one builder of their jobs, and the
  per-scheme robustness report behind ``python -m repro chaos``.
"""

from repro.faults.injector import FabricFaultState, FaultInjector, FaultInjectorError
from repro.faults.plan import FaultEvent, FaultPlan, FaultPlanError
from repro.faults.scenarios import SCENARIOS, chaos_cell, chaos_report, run_chaos, scenario_job

__all__ = [
    "FabricFaultState",
    "FaultEvent",
    "FaultInjector",
    "FaultInjectorError",
    "FaultPlan",
    "FaultPlanError",
    "SCENARIOS",
    "chaos_cell",
    "chaos_report",
    "run_chaos",
    "scenario_job",
]
