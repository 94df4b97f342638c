"""Connection recovery subsystem (QP re-establishment + credit resync).

The package loads the failure types and the policy only: the MPI error
path and the on-demand connection manager import them.
:class:`~repro.recovery.manager.RecoveryManager`, which needs the MPI
layer's types, loads when a job arms it (``repro.cluster.arming``).
"""

from repro.recovery.failures import ConnectionFailedError, ConnectionFailure
from repro.recovery.policy import RecoveryPolicy

__all__ = [
    "ConnectionFailedError",
    "ConnectionFailure",
    "RecoveryPolicy",
]
