"""Rank-failure tolerance (heartbeat detection, ULFM-style propagation).

See :mod:`repro.ft.manager` for the subsystem overview.  Enable per job
with ``run_job(..., ft=True)`` (or pass an :class:`FTConfig`), per
scenario with ``repro chaos --ft``.

The package loads the configuration and the failure types only: the MPI
send path imports the error.  :class:`~repro.ft.manager.FTManager` loads
when a job arms it (``repro.cluster.arming``).
"""

from repro.ft.config import FTConfig
from repro.ft.failures import PROC_FAILED, RankFailedError, RankFailure

__all__ = [
    "FTConfig",
    "PROC_FAILED",
    "RankFailedError",
    "RankFailure",
]
