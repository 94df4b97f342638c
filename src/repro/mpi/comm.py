"""Communicators: isolated communication contexts over rank subgroups.

A :class:`Communicator` wraps an :class:`~repro.mpi.endpoint.Endpoint`
with (a) a *context id* — the third component of the matching triple, so
traffic on different communicators can never cross-match — and (b) a
*group*: an ordered list of world ranks.  It exposes the same generator
API as the endpoint (send/recv/isend/irecv/wait/collectives), translating
group-local ranks to world ranks, which lets every collective algorithm in
:mod:`repro.mpi.collectives` run unchanged on a sub-communicator.

Context-id agreement needs no communication: ids derive deterministically
from the parent's context and a per-parent creation counter, and the MPI
standard already requires `dup`/`split` to be called collectively and in
the same order by every member.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.mpi import collectives
from repro.mpi.constants import ANY_SOURCE, WORLD_CONTEXT
from repro.mpi.endpoint import Endpoint, MPIError
from repro.mpi.request import Request, Status


class CommRevokedError(MPIError):
    """Raised by communication on a revoked communicator (ULFM's
    MPI_ERR_REVOKED): after :meth:`Communicator.revoke`, every operation
    on the communicator fails until the survivors :meth:`~Communicator.
    shrink` a fresh one."""


class Communicator:
    """A group + context view over an endpoint."""

    def __init__(self, endpoint: Endpoint, group: List[int], context: int):
        if endpoint.rank not in group:
            raise MPIError(
                f"rank {endpoint.rank} constructing a communicator it is not in"
            )
        if len(set(group)) != len(group):
            raise MPIError(f"duplicate ranks in group {group}")
        self.endpoint = endpoint
        self.group = list(group)
        self.context = context
        self.rank = self.group.index(endpoint.rank)
        self.size = len(self.group)
        self._coll_seq = endpoint._coll_seq  # shared, keyed by context
        self._next_child = 1
        self._revoked = False

    # ------------------------------------------------------------------
    # rank translation
    # ------------------------------------------------------------------
    def world_rank(self, local: int) -> int:
        if not 0 <= local < self.size:
            raise MPIError(f"rank {local} outside communicator of size {self.size}")
        return self.group[local]

    def local_rank(self, world: int) -> int:
        try:
            return self.group.index(world)
        except ValueError:
            raise MPIError(f"world rank {world} not in this communicator") from None

    # ------------------------------------------------------------------
    # point-to-point (group-local ranks; statuses translated back)
    # ------------------------------------------------------------------
    @property
    def world_size(self) -> int:
        # collectives address peers via isend/irecv of *this* object and
        # read world_size/rank for the algorithm shape.
        return self.size

    @property
    def sim(self):
        return self.endpoint.sim

    @property
    def now(self) -> int:
        return self.endpoint.now

    def isend(self, dest: int, size: int, **kwargs) -> Generator:
        if self._revoked:
            raise CommRevokedError(f"communicator ctx={self.context} is revoked")
        kwargs.setdefault("context", self.context)
        req = yield from self.endpoint.isend(self.world_rank(dest), size, **kwargs)
        return req

    def irecv(self, source: int = ANY_SOURCE, capacity: int = 0, **kwargs) -> Generator:
        if self._revoked:
            raise CommRevokedError(f"communicator ctx={self.context} is revoked")
        kwargs.setdefault("context", self.context)
        src = source if source == ANY_SOURCE else self.world_rank(source)
        req = yield from self.endpoint.irecv(src, capacity, **kwargs)
        return req

    def send(self, dest: int, size: int, **kwargs) -> Generator:
        req = yield from self.isend(dest, size, **kwargs)
        yield from self.wait(req)

    def recv(self, source: int = ANY_SOURCE, capacity: int = 0, **kwargs) -> Generator:
        req = yield from self.irecv(source, capacity, **kwargs)
        status = yield from self.wait(req)
        return status

    def wait(self, request: Request) -> Generator:
        status = yield from self.endpoint.wait(request)
        return self._translate(status)

    def waitall(self, requests: List[Request]) -> Generator:
        statuses = yield from self.endpoint.waitall(requests)
        return [self._translate(s) for s in statuses]

    def compute(self, ns: int) -> Generator:
        yield from self.endpoint.compute(ns)

    def _translate(self, status: Optional[Status]) -> Optional[Status]:
        if status is not None and status.source >= 0:
            return Status(
                source=self.local_rank(status.source),
                tag=status.tag,
                size=status.size,
                payload=status.payload,
                error=status.error,
            )
        return status

    # ------------------------------------------------------------------
    # collectives (the algorithms see this object as their "endpoint")
    # ------------------------------------------------------------------
    barrier = collectives.barrier
    bcast = collectives.bcast
    reduce = collectives.reduce
    allreduce = collectives.allreduce
    allgather = collectives.allgather
    alltoall = collectives.alltoall
    alltoallv = collectives.alltoallv
    gather = collectives.gather
    scatter = collectives.scatter

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _child_context(self) -> int:
        ctx = self.context * 131 + self._next_child * 7 + 1_000_003
        self._next_child += 1
        return ctx

    def dup(self) -> Generator:
        """Collective: a new communicator with the same group but a fresh
        context (traffic on the two can never cross-match)."""
        ctx = self._child_context()
        yield from self.barrier()  # collectives must not straddle creation
        return Communicator(self.endpoint, self.group, ctx)

    def split(self, color: int, key: int = 0) -> Generator:
        """Collective: partition by ``color``; order within each new group
        by ``(key, old rank)``.  Returns None for color < 0 (MPI_UNDEFINED
        convention)."""
        pairs = yield from self.allgather(size=16, value=(color, key, self.rank))
        ctx = self._child_context() + (0 if color < 0 else color)
        if color < 0:
            return None
        members = sorted(
            (k, r) for c, k, r in pairs if c == color
        )
        group = [self.world_rank(r) for _, r in members]
        return Communicator(self.endpoint, group, ctx)

    # ------------------------------------------------------------------
    # ULFM-style fault tolerance (repro.ft)
    # ------------------------------------------------------------------
    @property
    def revoked(self) -> bool:
        return self._revoked

    def revoke(self) -> None:
        """Local half of MPI_Comm_revoke: mark the communicator unusable
        so no further operation is posted on it.  (Real ULFM floods a
        revocation token; here each survivor revokes after observing a
        PROC_FAILED status or a dead member — deterministic, no extra
        traffic.)"""
        self._revoked = True

    def failed_ranks(self) -> List[int]:
        """Group-local ranks of members the failure detector declared
        dead (empty without ``run_job(..., ft=True)``)."""
        ft = self.endpoint._ft
        if ft is None:
            return []
        return [i for i, w in enumerate(self.group) if w in ft.dead]

    def shrink(self) -> "Communicator":
        """MPI_Comm_shrink: a new communicator over the surviving members.
        Agreement needs no communication here — every survivor's detector
        converges on the same ``dead`` set (one shared FTManager), and the
        child context derives deterministically, so all survivors
        construct matching groups.  Usable on a revoked communicator (that
        is its purpose)."""
        ft = self.endpoint._ft
        dead = ft.dead if ft is not None else ()
        group = [w for w in self.group if w not in dead]
        if self.endpoint.rank not in group:
            raise MPIError(f"rank {self.endpoint.rank} shrink()ing as a dead member")
        return Communicator(self.endpoint, group, self._child_context())


def world(endpoint: Endpoint) -> Communicator:
    """MPI_COMM_WORLD for this endpoint."""
    return Communicator(endpoint, list(range(endpoint.world_size)), WORLD_CONTEXT)
