"""What a job arms: ``run_job``'s subsystem keywords as one validated value.

Every optional subsystem implements one lifecycle protocol in its own
module (DESIGN §6.7): ``name`` (its ``run_job`` keyword and report
section), ``arm(cluster)``, ``failures`` and ``summary()``.  A cluster
runs one job, so nothing armed is ever taken off it.  The subsystems'
packages import ``run_job``, so they are imported here only once a field
asks for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional, Tuple


def _typed(field: str, value: Any, cls: type, also: str = "") -> Any:
    if not isinstance(value, cls):
        raise TypeError(
            f"{field}: expected {also}a {cls.__name__}, got {value!r}")
    return value


def _flag_or(field: str, value: Any, cls: type) -> Any:
    """``True`` stands for the default ``cls()``."""
    return cls() if value is True else _typed(field, value, cls, "a bool or ")


@dataclass(frozen=True)
class Arming:
    """The wiring and the armed subsystems of one job; the fields are
    ``run_job``'s keywords, documented there.  Valid means the subsystems
    can be built from it, so construction builds them once: a caller that
    must tell a bad arming from a failed job makes one first and hands
    ``run_job`` its fields."""

    on_demand: Optional[bool] = None
    faults: Any = None
    audit: Any = False
    recovery: Any = False
    ft: Any = False
    cm_chaos: Optional[Mapping[str, Any]] = None

    def __post_init__(self) -> None:
        if self.cm_chaos is not None and self.on_demand is False:
            raise ValueError(
                "cm_chaos: needs an on-demand cluster, got on_demand=False")
        self.subsystems()

    def subsystems(self) -> Tuple[Any, ...]:
        """One job's subsystem objects, in arming order.  The auditor and
        the failure detector come before the fault injector: arming a plan
        announces its windows to the observers, and a ``rank_death`` event
        tells ``cluster.ft`` — both must be attached by then."""
        out = []
        if self.audit is not False:
            from repro.check import Auditor

            out.append(_flag_or("audit", self.audit, Auditor))
        if self.recovery is not False:
            from repro.recovery.manager import RecoveryManager
            from repro.recovery.policy import RecoveryPolicy

            out.append(RecoveryManager(
                _flag_or("recovery", self.recovery, RecoveryPolicy)))
        if self.ft is not False:
            from repro.ft.config import FTConfig
            from repro.ft.manager import FTManager

            out.append(FTManager(_flag_or("ft", self.ft, FTConfig)))
        if self.cm_chaos is not None:
            from repro.cluster.on_demand import SetupChaos

            if set(_typed("cm_chaos", self.cm_chaos, Mapping)) - set(SetupChaos.KEYS):
                raise ValueError(
                    f"cm_chaos: keys {sorted(self.cm_chaos)}, know {SetupChaos.KEYS}")
            out.append(SetupChaos(**self.cm_chaos))
        if self.faults is not None:
            from repro.faults import FaultInjector, FaultPlan

            out.append(FaultInjector(
                FaultPlan.from_spec(self.faults) if isinstance(self.faults, dict)
                else _typed("faults", self.faults, FaultPlan, "a spec dict or ")))
        return tuple(out)
