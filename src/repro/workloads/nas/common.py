"""Shared infrastructure for the NAS Parallel Benchmark proxies.

Each proxy reproduces the *communication skeleton* of its NAS kernel
(partners, message sizes, call ordering, iteration structure — Class A
problem sizes) with computation modelled as simulated CPU time.  Iteration
counts are scaled down where the original would generate millions of DES
events; each kernel's docstring records the scaling.  The substitution
argument (DESIGN.md §2): flow-control stress is a function of the
communication pattern — burst depth, symmetry, message sizes — all of which
the skeletons keep faithful.

Compute times carry a small deterministic per-rank jitter so pipelines skew
realistically (identical ranks in lockstep would hide every flow-control
effect).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Generator, List

from repro.cluster.job import Program


@dataclass
class NASKernel:
    """Descriptor of one proxy: builder plus its canonical rank count."""

    name: str
    nranks: int
    build: Callable[..., Program]
    description: str = ""


class ComputeModel:
    """Deterministic per-rank compute-time jitter.

    ``jitter(rank, base_ns)`` returns ``base_ns`` scaled by a fixed factor
    in [1-amp, 1+amp] derived from a hash of (seed, rank) — reproducible
    and rank-stable, like real per-node performance variation.
    """

    def __init__(self, seed: int = 20040426, amplitude: float = 0.04):
        self.seed = seed
        self.amplitude = amplitude
        self._factors: Dict[int, float] = {}  # rank -> factor (pure)

    def factor(self, rank: int) -> float:
        try:
            return self._factors[rank]
        except KeyError:
            pass
        h = (self.seed * 1_000_003 + rank * 7_919) & 0xFFFFFFFF
        h ^= h >> 13
        h = (h * 0x5BD1E995) & 0xFFFFFFFF
        h ^= h >> 15
        unit = (h % 10_000) / 10_000.0  # [0, 1)
        factor = self._factors[rank] = 1.0 + self.amplitude * (2.0 * unit - 1.0)
        return factor

    def ns(self, rank: int, base_ns: float) -> int:
        return max(1, int(round(base_ns * self.factor(rank))))


def grid_2d(nranks: int) -> tuple:
    """Factor ``nranks`` into the most-square (cols >= rows) 2D grid, the
    way NAS LU/CG lay out processes."""
    rows = int(math.sqrt(nranks))
    while nranks % rows:
        rows -= 1
    cols = nranks // rows
    return cols, rows


def coords_2d(rank: int, cols: int) -> tuple:
    return rank % cols, rank // cols


def rank_2d(x: int, y: int, cols: int) -> int:
    return y * cols + x


def sendrecv(mpi, partner: int, size: int, tag: int, buffer_id=None) -> Generator:
    """The MPI_Sendrecv idiom for *paired* partners (both sides name each
    other, e.g. XOR neighbours)."""
    rreq = yield from mpi.irecv(source=partner, capacity=size, tag=tag,
                                buffer_id=buffer_id)
    sreq = yield from mpi.isend(partner, size=size, tag=tag, buffer_id=buffer_id)
    yield from mpi.waitall([rreq, sreq])


def shift(mpi, to: int, frm: int, size: int, tag: int, buffer_id=None) -> Generator:
    """The MPI_Sendrecv idiom for *ring* shifts: send toward ``to`` while
    receiving from ``frm`` (everyone shifts the same direction — the BT/SP
    copy_faces and ADI-stage pattern)."""
    rreq = yield from mpi.irecv(source=frm, capacity=size, tag=tag,
                                buffer_id=buffer_id)
    sreq = yield from mpi.isend(to, size=size, tag=tag, buffer_id=buffer_id)
    yield from mpi.waitall([rreq, sreq])
