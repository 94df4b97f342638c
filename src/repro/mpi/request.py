"""Requests and statuses — the user-visible handles of non-blocking MPI.

A :class:`Request` completes at most once; waiters poll :attr:`Request.done`
from the endpoint's progress engine.  :class:`Status` mirrors ``MPI_Status``
(source/tag/size) plus the delivered payload object, which lets tests
verify end-to-end data integrity through both protocols.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

_req_ids = itertools.count(1)


#: ``Status.error`` value for an operation completed against a rank the
#: failure detector declared dead (ULFM's MPI_ERR_PROC_FAILED).
PROC_FAILED = "PROC_FAILED"


@dataclass
class Status:
    """Completion information for a receive.

    ``error`` is ``None`` on success; a completed-in-error operation
    (e.g. the peer died) carries a short code such as
    :data:`PROC_FAILED` — the operation *completes* either way, it
    never hangs.
    """

    source: int = -1
    tag: int = -1
    size: int = 0
    payload: Any = None
    error: Optional[str] = None


class Request:
    """A pending non-blocking operation.

    Attributes
    ----------
    kind:
        ``"send"`` or ``"recv"`` (informational).
    done:
        Completion flag; once True, :attr:`status` is valid.
    """

    __slots__ = ("req_id", "kind", "done", "status")

    def __init__(self, kind: str):
        self.req_id = next(_req_ids)
        self.kind = kind
        self.done = False
        self.status: Optional[Status] = None

    def complete(self, status: Optional[Status] = None) -> None:
        if self.done:
            raise RuntimeError(f"request {self.req_id} completed twice")
        self.done = True
        self.status = status or Status()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Request {self.kind} #{self.req_id} {'done' if self.done else 'pending'}>"
