"""MPI implementation over the InfiniBand substrate (MPICH-ADI2 style).

The design follows the paper's §3.1: eager protocol (send/recv into
pre-pinned vbufs) for small messages, zero-copy rendezvous (RDMA write)
for large ones, a pool of pre-pinned fixed-size buffers, a pin-down cache,
per-pair Reliable Connections bound to one CQ per process, and pluggable
flow-control schemes (:mod:`repro.core`).  Communicators
(:mod:`repro.mpi.comm`) load where a program builds one.
"""

from repro.mpi.buffer_pool import SendBufferPool
from repro.mpi.config import MPIConfig
from repro.mpi.connection import Connection, ConnStats, PendingSend
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, TAG_UB, WORLD_CONTEXT
from repro.mpi.endpoint import Endpoint
from repro.mpi.matching import MatchingEngine, PostedRecv
from repro.mpi.pindown_cache import PinDownCache
from repro.mpi.protocol import Header, MPIError, MsgKind, TruncationError
from repro.mpi.request import PROC_FAILED, Request, Status

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Connection",
    "ConnStats",
    "Endpoint",
    "Header",
    "MPIConfig",
    "MPIError",
    "MatchingEngine",
    "MsgKind",
    "PendingSend",
    "PinDownCache",
    "PostedRecv",
    "PROC_FAILED",
    "Request",
    "SendBufferPool",
    "Status",
    "TAG_UB",
    "TruncationError",
    "WORLD_CONTEXT",
]
