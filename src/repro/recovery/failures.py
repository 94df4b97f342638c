"""What a fatal completion means, and the record of a lost connection.

An error completion (RNR/transport retry budget exceeded, protection
fault, a flush) gets one verdict from :func:`classify`, which
``Endpoint._handle_error_wc`` executes: dropped, a dead peer declared, a
recovery joined or begun, or — recovery disabled or its attempt budget
spent — a :class:`ConnectionFailure` record carried by
:class:`ConnectionFailedError`.  ``run_job`` catches the exception and
reports the record on ``JobResult.failures`` instead of letting the job
hang until the progress watchdog trips.

This module is import-light on purpose: ``repro.mpi.endpoint`` imports it
from the error path, so it must not import the MPI layer back.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import AbstractSet, Optional

#: :func:`classify`'s verdicts: ``(ABSORB,)`` drop it; ``(DECLARE, peer)``;
#: ``(JOIN,)`` keep the send's record for the pair's recovery; ``(RECOVER,
#: attempt)``; ``(FAIL, cause, attempts, spent)`` the connection is lost
#: (``spent``: recovery's budget, which records the loss)
ABSORB, DECLARE, JOIN, RECOVER, FAIL = range(5)


def classify(cause: str, owned: bool, peer: int, dead: Optional[AbstractSet[int]] = None,
             adapter_dead: bool = False, recovery: bool = False, recovering: bool = False,
             attempts: int = 0, max_attempts: int = 0) -> tuple:
    """The verdict on one error completion: ``owned`` by a live connection
    to ``peer`` or not; ``dead``, ft's declared set (None: ft unarmed), and
    under ft a dead peer adapter is the detection; ``recovery`` armed, the
    pair ``recovering`` already, ``attempts`` of its ``max_attempts``."""
    if owned and dead is not None:
        if peer in dead:
            return (ABSORB,)
        if adapter_dead:
            return (DECLARE, peer)
    if not recovery:
        return (FAIL, cause, 0, False)
    if not owned:
        return (ABSORB,)
    if recovering:
        return (JOIN,)
    if attempts >= max_attempts:
        return (FAIL, cause, attempts, True)
    return (RECOVER, attempts + 1)


@dataclass(frozen=True)
class ConnectionFailure:
    """One unrecoverable rank-pair connection loss."""

    rank: int  #: the rank that detected the fatal completion
    peer: int  #: the other end of the QP pair
    scheme: str  #: flow-control scheme name ("hardware" / "static" / ...)
    epoch: int  #: QP incarnation at the time of failure
    cause: str  #: WCStatus value of the victim completion
    elapsed_ns: int  #: simulated time of the failure
    attempts: int  #: recovery attempts consumed (0 = recovery disabled)

    def dedup_key(self) -> tuple:
        """Stable identity for set-based dedup on ``JobResult.failures``:
        both ends report the same loss, keyed by unordered pair + QP
        incarnation (a later re-failure of the pair is a new record)."""
        lo, hi = (self.rank, self.peer) if self.rank < self.peer else (self.peer, self.rank)
        return ("connection", lo, hi, self.epoch)

    def to_dict(self) -> dict:
        return asdict(self)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"connection {self.rank}<->{self.peer} failed ({self.cause}) "
            f"scheme={self.scheme} epoch={self.epoch} "
            f"attempts={self.attempts} at t={self.elapsed_ns}ns"
        )


class ConnectionFailedError(RuntimeError):
    """Raised out of the progress engine when a connection is lost for
    good; carries the structured record for ``JobResult.failures``."""

    def __init__(self, failure: ConnectionFailure):
        super().__init__(str(failure))
        self.failure = failure
