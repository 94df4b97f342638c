"""Collective operations layered on point-to-point (as MPICH-1.2-era MPICH
did — there is no hardware multicast here).

Algorithms:

* ``barrier`` — dissemination (⌈log2 P⌉ rounds, works for any P);
* ``bcast`` — binomial tree;
* ``reduce`` — binomial tree (reversed), with an optional combining op on
  real payloads;
* ``allreduce`` — reduce + bcast for non-powers-of-two, recursive doubling
  otherwise;
* ``allgather`` — ring;
* ``alltoall`` / ``alltoallv`` — pairwise exchange (XOR schedule when P is
  a power of two, rotation otherwise) — the NAS IS/FT communication
  workhorse;
* ``gather`` / ``scatter`` — linear at the root (faithful to the era).

Each collective draws a fresh tag from the endpoint's per-context sequence
so concurrent collectives on different "phases" cannot cross-match, and
travels in its communicator's collective context, which no point-to-point
receive matches — an ``ANY_TAG`` one included.
Payload combination is optional: pass real values and an ``op`` to compute;
omit them to move bytes only (the NAS proxies do the latter).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional, Tuple, TYPE_CHECKING

from repro.mpi.constants import COLL_TAG_BASE, WORLD_CONTEXT
from repro.mpi.protocol import MPIError

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.endpoint import Endpoint


def _coll_envelope(ep: "Endpoint") -> Tuple[int, int]:
    """Fresh ``(tag, context)`` for one collective.  The sequence is per
    *context* so interleaved collectives on different communicators (whose
    members may have performed different numbers of prior collectives) still
    agree on the tag within each communicator.  The context is ``~context``:
    every point-to-point context is >= 0, so it is one that no communicator's
    receives, ``dup``/``split`` children included, can name (MPI's separate
    collective context id)."""
    context = getattr(ep, "context", WORLD_CONTEXT)
    seq = ep._coll_seq.get(context, 0)
    ep._coll_seq[context] = seq + 1
    return COLL_TAG_BASE + seq, ~context


def _check_root(ep: "Endpoint", root: int) -> None:
    """A rooted collective names a member as its root, before anything
    is sent (MPI_ERR_ROOT)."""
    if not 0 <= root < ep.world_size:
        raise MPIError(f"MPI_ERR_ROOT: root {root} outside a group of {ep.world_size}")


def _hypercube_rounds(size: int) -> int:
    rounds = 0
    while (1 << rounds) < size:
        rounds += 1
    return rounds


# ----------------------------------------------------------------------
# barrier: dissemination
# ----------------------------------------------------------------------
def barrier(ep: "Endpoint") -> Generator:
    """Dissemination barrier: round k exchanges with rank ± 2^k."""
    size, rank = ep.world_size, ep.rank
    if size == 1:
        return
    tag, ctx = _coll_envelope(ep)
    for k in range(_hypercube_rounds(size)):
        dist = 1 << k
        dst = (rank + dist) % size
        src = (rank - dist) % size
        rreq = yield from ep.irecv(source=src, capacity=8, tag=tag, context=ctx)
        sreq = yield from ep.isend(dst, size=4, tag=tag, context=ctx)
        yield from ep.waitall([rreq, sreq])


# ----------------------------------------------------------------------
# broadcast: binomial tree
# ----------------------------------------------------------------------
def bcast(ep: "Endpoint", root: int, size: int, payload: Any = None) -> Generator:
    """Binomial-tree broadcast; returns the payload at every rank."""
    _check_root(ep, root)
    P, rank = ep.world_size, ep.rank
    if P == 1:
        return payload
    tag, ctx = _coll_envelope(ep)
    rel = (rank - root) % P  # root-relative rank
    value = payload
    # Receive from parent (highest set bit of rel).
    if rel != 0:
        mask = 1
        while mask <= rel:
            mask <<= 1
        mask >>= 1
        parent = (rel - mask + root) % P
        status = yield from ep.recv(source=parent, capacity=size, tag=tag, context=ctx,
                                    buffer_id=("bcast", tag))
        value = status.payload
    # Send to children.
    mask = 1
    while mask <= rel:
        mask <<= 1
    while mask < P:
        if rel + mask < P:
            child = (rel + mask + root) % P
            yield from ep.send(child, size=size, tag=tag, context=ctx, payload=value,
                               buffer_id=("bcast", tag))
        mask <<= 1
    return value


# ----------------------------------------------------------------------
# reduce: binomial tree toward the root
# ----------------------------------------------------------------------
def reduce(
    ep: "Endpoint",
    root: int,
    size: int,
    value: Any = None,
    op: Optional[Callable[[Any, Any], Any]] = None,
) -> Generator:
    """Binomial reduction; returns the combined value at the root (None
    elsewhere).  ``op`` defaults to a pairing placeholder when values are
    supplied, making data-flow verifiable in tests."""
    _check_root(ep, root)
    P, rank = ep.world_size, ep.rank
    if P == 1:
        return value
    tag, ctx = _coll_envelope(ep)
    combine = op or (lambda a, b: (a, b))
    rel = (rank - root) % P
    acc = value
    mask = 1
    while mask < P:
        if rel & mask:
            parent = (rel - mask + root) % P
            yield from ep.send(parent, size=size, tag=tag, context=ctx, payload=acc,
                               buffer_id=("reduce", tag))
            return None
        partner = rel + mask
        if partner < P:
            status = yield from ep.recv(
                source=(partner + root) % P, capacity=size, tag=tag, context=ctx,
                buffer_id=("reduce", tag),
            )
            if acc is not None or status.payload is not None:
                acc = combine(acc, status.payload)
        mask <<= 1
    return acc


# ----------------------------------------------------------------------
# allreduce
# ----------------------------------------------------------------------
def allreduce(
    ep: "Endpoint",
    size: int,
    value: Any = None,
    op: Optional[Callable[[Any, Any], Any]] = None,
) -> Generator:
    """Recursive doubling when P is a power of two, reduce+bcast otherwise."""
    P, rank = ep.world_size, ep.rank
    if P == 1:
        return value
    if P & (P - 1):  # not a power of two
        acc = yield from reduce(ep, 0, size, value, op)
        result = yield from bcast(ep, 0, size, acc)
        return result
    tag, ctx = _coll_envelope(ep)
    combine = op or (lambda a, b: (a, b))
    acc = value
    mask = 1
    while mask < P:
        partner = rank ^ mask
        rreq = yield from ep.irecv(source=partner, capacity=size, tag=tag, context=ctx,
                                   buffer_id=("allred", tag, mask))
        sreq = yield from ep.isend(partner, size=size, tag=tag, context=ctx, payload=acc,
                                   buffer_id=("allred", tag, mask))
        statuses = yield from ep.waitall([rreq, sreq])
        other = statuses[0].payload
        if acc is not None or other is not None:
            acc = combine(acc, other) if rank < partner else combine(other, acc)
        mask <<= 1
    return acc


# ----------------------------------------------------------------------
# allgather: ring
# ----------------------------------------------------------------------
def allgather(ep: "Endpoint", size: int, value: Any = None) -> Generator:
    """Ring allgather; returns the list of every rank's value."""
    P, rank = ep.world_size, ep.rank
    result: List[Any] = [None] * P
    result[rank] = value
    if P == 1:
        return result
    tag, ctx = _coll_envelope(ep)
    right = (rank + 1) % P
    left = (rank - 1) % P
    carry = value
    carry_rank = rank
    for _ in range(P - 1):
        rreq = yield from ep.irecv(source=left, capacity=size, tag=tag, context=ctx,
                                   buffer_id=("ag", tag))
        sreq = yield from ep.isend(right, size=size, tag=tag, context=ctx,
                                   payload=(carry_rank, carry), buffer_id=("ag", tag))
        statuses = yield from ep.waitall([rreq, sreq])
        got = statuses[0].payload
        if got is not None:
            carry_rank, carry = got
            result[carry_rank] = carry
        else:
            carry_rank, carry = left, None
    return result


# ----------------------------------------------------------------------
# alltoall(v): pairwise exchange
# ----------------------------------------------------------------------
def alltoall(
    ep: "Endpoint", size_per_peer: int, payloads: Optional[List[Any]] = None
) -> Generator:
    """Pairwise-exchange all-to-all of equal blocks; returns received blocks
    indexed by source rank."""
    sizes = [size_per_peer] * ep.world_size
    result = yield from alltoallv(ep, sizes, payloads)
    return result


def alltoallv(
    ep: "Endpoint",
    sizes: List[int],
    payloads: Optional[List[Any]] = None,
    recv_sizes: Optional[List[int]] = None,
) -> Generator:
    """Pairwise-exchange all-to-all with per-destination sizes.

    ``sizes[d]`` is the number of bytes this rank sends to rank ``d``
    (``sizes[rank]`` is kept locally); ``recv_sizes[s]`` bounds what rank
    ``s`` sends here (MPI_Alltoallv's separate recvcounts — defaults to
    ``sizes``, the symmetric case).  Returns a list indexed by source.
    """
    P, rank = ep.world_size, ep.rank
    if len(sizes) != P:
        raise ValueError(f"sizes must have {P} entries, got {len(sizes)}")
    if recv_sizes is None:
        recv_sizes = sizes
    elif len(recv_sizes) != P:
        raise ValueError(f"recv_sizes must have {P} entries, got {len(recv_sizes)}")
    result: List[Any] = [None] * P
    result[rank] = payloads[rank] if payloads else None
    if P == 1:
        return result
    tag, ctx = _coll_envelope(ep)
    power_of_two = (P & (P - 1)) == 0
    for step in range(1, P):
        if power_of_two:
            partner = rank ^ step
        else:
            partner = (rank + step) % P
            recv_from = (rank - step) % P
        if power_of_two:
            recv_from = partner
        # Non-power-of-two rotation sends to (rank+step), receives from
        # (rank-step); power-of-two XOR pairs both directions.
        rreq = yield from ep.irecv(
            source=recv_from, capacity=recv_sizes[recv_from], tag=tag, context=ctx,
            buffer_id=("a2a", tag, step),
        )
        sreq = yield from ep.isend(
            partner,
            size=sizes[partner],
            tag=tag, context=ctx,
            payload=payloads[partner] if payloads else None,
            buffer_id=("a2a", tag, step),
        )
        statuses = yield from ep.waitall([rreq, sreq])
        result[recv_from] = statuses[0].payload
    return result


# ----------------------------------------------------------------------
# gather / scatter: linear
# ----------------------------------------------------------------------
def gather(ep: "Endpoint", root: int, size: int, value: Any = None) -> Generator:
    """Linear gather; returns the list at the root, None elsewhere."""
    _check_root(ep, root)
    P, rank = ep.world_size, ep.rank
    tag, ctx = _coll_envelope(ep)
    if rank != root:
        yield from ep.send(root, size=size, tag=tag, context=ctx, payload=value)
        return None
    result: List[Any] = [None] * P
    result[root] = value
    reqs = []
    for src in range(P):
        if src != root:
            r = yield from ep.irecv(source=src, capacity=size, tag=tag, context=ctx)
            reqs.append((src, r))
    for src, r in reqs:
        status = yield from ep.wait(r)
        result[src] = status.payload
    return result


def scatter(
    ep: "Endpoint", root: int, size: int, values: Optional[List[Any]] = None
) -> Generator:
    """Linear scatter; returns this rank's piece."""
    _check_root(ep, root)
    P, rank = ep.world_size, ep.rank
    tag, ctx = _coll_envelope(ep)
    if rank == root:
        reqs = []
        for dst in range(P):
            if dst != root:
                r = yield from ep.isend(
                    dst, size=size, tag=tag, context=ctx,
                    payload=values[dst] if values else None,
                )
                reqs.append(r)
        yield from ep.waitall(reqs)
        return values[root] if values else None
    status = yield from ep.recv(source=root, capacity=size, tag=tag, context=ctx)
    return status.payload
