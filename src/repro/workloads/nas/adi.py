"""NAS BT and SP communication skeletons — Class A, 16 ranks, one ADI program.

Class A: 64³ grid, multi-partition decomposition on a square process grid
(√P × √P; the paper runs 16 processes on 8 nodes — two ranks per node, so
half the traffic takes the HCA loopback path).  BT (Block Tridiagonal) and
SP (Scalar Pentadiagonal) share one structure per timestep:

* ``copy_faces``: exchange cell faces with the four grid neighbours
  (rendezvous-sized), then compute;
* three ADI sweeps (x, y, z): each sweep pipelines √P stages of moderate
  solver messages along the sweep direction, forward then backward, with
  compute between the two;
* a small residual allreduce every five steps.

They differ only in the constants of :data:`SHAPES`: BT moves two
5-variable faces a exchange and half-face solver messages under heavy
compute; SP moves one face and quarter-face messages with lighter
per-stage compute, i.e. a higher message rate with smaller compute gaps.
Both settle around 7 posted buffers under the dynamic scheme (Table 2) and
are nearly insensitive to pre-post depth (Figures 9–10).

Scaling: BT's timesteps 200 → 12, SP's 400 → 18.
"""

from __future__ import annotations

import math
from typing import Callable, Generator, NamedTuple, Optional

from repro.cluster.job import Program
from repro.sim.units import ms
from repro.workloads.nas.common import ComputeModel, shift

GRID = 64  # Class A


class Shape(NamedTuple):
    """What one ADI kernel sets; everything else is the shared program."""

    timesteps: int  # scaled default
    faces: int  # 5-variable faces per copy_faces message
    solve_divisor: int  # solver message = one face // this
    copy_ms: float  # compute after copy_faces
    stage_ms: Callable[[int], float]  # compute per sweep stage, of √P


SHAPES = {
    "bt": Shape(12, 2, 2, 95.0 * 0.4, lambda q: 95.0 * 0.2 / (q - 1)),
    "sp": Shape(18, 1, 4, 18, lambda q: 1.4),
}


def build(kernel: str, timesteps: Optional[int] = None,
          compute_scale: float = 1.0) -> Program:
    shape = SHAPES[kernel]
    if timesteps is None:
        timesteps = shape.timesteps
    compute = ComputeModel()
    copy_base = ms(shape.copy_ms) * compute_scale

    def prog(mpi) -> Generator:
        P = mpi.world_size
        q = int(math.sqrt(P))
        if q * q != P:
            raise ValueError(f"{kernel.upper()} needs a square rank count, got {P}")
        row, col = divmod(mpi.rank, q)
        cell = GRID // q
        face = cell * cell * 5 * 8 * shape.faces
        solve_msg = cell * cell * 5 * 8 // shape.solve_divisor

        # grid neighbours (periodic, multi-partition style)
        xpos = row * q + (col + 1) % q
        xneg = row * q + (col - 1) % q
        ypos = ((row + 1) % q) * q + col
        yneg = ((row - 1) % q) * q + col

        for step in range(timesteps):
            # copy_faces: shift each direction around the torus (plus the
            # z-faces, which multi-partitioning maps onto the same partners)
            for to, frm, tg in ((xpos, xneg, 1), (xneg, xpos, 2),
                                (ypos, yneg, 3), (yneg, ypos, 4)):
                if to != mpi.rank:
                    yield from shift(mpi, to, frm, face, tag=tg,
                                     buffer_id=("faces", tg))
            yield from mpi.compute(compute.ns(mpi.rank, copy_base))
            # three ADI sweeps; each pipelines along one grid direction
            for axis, (fwd, bwd) in enumerate(((xpos, xneg), (ypos, yneg),
                                               (xpos, xneg))):
                if fwd == mpi.rank:
                    continue
                for stage in range(q - 1):
                    # forward elimination flows one way...
                    yield from shift(mpi, fwd, bwd, solve_msg, tag=10 + axis,
                                     buffer_id=("solve", axis))
                    yield from mpi.compute(
                        compute.ns(mpi.rank, ms(shape.stage_ms(q)) * compute_scale))
                    # ...back substitution the other
                    yield from shift(mpi, bwd, fwd, solve_msg, tag=20 + axis,
                                     buffer_id=("solve", axis))
            if step % 5 == 0:
                yield from mpi.allreduce(size=40)
        return timesteps

    return prog
