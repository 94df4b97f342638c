"""Memory regions and the per-HCA registration table.

InfiniBand requires every communication buffer to be *registered* (pinned
and translated) before use.  The simulator models registration as a timed
verb (cost charged by the caller — see ``IBConfig.registration_ns``) and
enforces protection: an RDMA operation must present the region's ``rkey``
and stay within bounds, otherwise the responder raises a remote access
error, exactly the failure mode a bad rendezvous exchange would produce.

Addresses are simulated: each :class:`RegistrationTable` hands out ranges
from a per-node bump allocator.  Data content is an opaque Python object
stored per-region (enough to verify zero-copy delivery end to end).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple


class MRError(RuntimeError):
    """Local misuse of the registration API."""


class RemoteAccessError(RuntimeError):
    """Raised (responder side) when an RDMA op fails protection checks."""


class MemoryRegion:
    """A registered, pinned buffer.

    Attributes
    ----------
    addr, length:
        The simulated virtual address range.
    lkey, rkey:
        Local / remote protection keys.  ``rkey`` must be quoted by remote
        RDMA initiators.
    """

    __slots__ = ("addr", "length", "lkey", "rkey", "valid", "_data", "on_write")

    def __init__(self, addr: int, length: int, lkey: int, rkey: int):
        self.addr = addr
        self.length = length
        self.lkey = lkey
        self.rkey = rkey
        self.valid = True
        self._data: Dict[int, Any] = {}
        #: optional callback(addr, payload) fired when an RDMA write lands
        #: — how polling-based consumers (the RDMA eager channel) observe
        #: one-sided arrivals in the simulation.
        self.on_write = None

    def contains(self, addr: int, length: int) -> bool:
        return self.addr <= addr and addr + length <= self.addr + self.length

    # -- simulated data movement ---------------------------------------
    def store(self, addr: int, payload: Any) -> None:
        """Deposit ``payload`` at ``addr`` (RDMA write landing)."""
        self._data[addr - self.addr] = payload
        if self.on_write is not None:
            self.on_write(addr, payload)

    def load(self, addr: int) -> Any:
        """Fetch whatever was stored at ``addr`` (a rendezvous FIN reads its landing)."""
        return self._data.get(addr - self.addr)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<MR addr={self.addr:#x} len={self.length} rkey={self.rkey}>"


class RegistrationTable:
    """Per-HCA table of registered regions, keyed by rkey.

    The table also implements the simulated address-space allocator; MPI's
    pin-down cache sits on top of this (``repro.mpi.pindown_cache``).
    """

    def __init__(self, node_id: int):
        self.node_id = node_id
        self._next_addr = 0x1000_0000 + node_id * 0x1_0000_0000
        self._next_key = node_id * 1_000_000 + 1
        self._by_rkey: Dict[int, MemoryRegion] = {}
        self.registered_bytes = 0
        self.peak_registered_bytes = 0

    def register(self, length: int, at: Optional[Tuple[int, int]] = None) -> MemoryRegion:
        """Allocate an address range and register it — or register it at
        ``at``, an ``(addr, lkey)`` :meth:`reserve` set aside.  Timing is
        *not* charged here — callers must burn ``IBConfig.registration_ns``
        CPU time themselves (the MPI layer does)."""
        if length <= 0:
            raise MRError(f"cannot register {length} bytes")
        if at is None:
            at = self.reserve(1, length)[:2]
        addr, lkey = at
        mr = MemoryRegion(addr, length, lkey, lkey + 500_000)
        self._by_rkey[mr.rkey] = mr
        self.registered_bytes += length
        self.peak_registered_bytes = max(
            self.peak_registered_bytes, self.registered_bytes
        )
        return mr

    def reserve(self, n: int, length: int) -> Tuple[int, int, int]:
        """Set aside the addresses and keys the next ``n`` registrations of
        ``length`` bytes would get, registering nothing.  Returns ``(addr,
        lkey, stride)``: the i-th is ``at=(addr + i * stride, lkey + i)``."""
        addr, lkey = self._next_addr, self._next_key
        stride = (length + 0xFFF) & ~0xFFF  # page align
        self._next_addr += n * stride
        self._next_key += n
        return addr, lkey, stride

    def deregister(self, mr: MemoryRegion) -> None:
        if not mr.valid:
            raise MRError("double deregistration")
        mr.valid = False
        del self._by_rkey[mr.rkey]
        self.registered_bytes -= mr.length

    def check_remote(self, rkey: int, addr: int, length: int) -> MemoryRegion:
        """Responder-side protection check for an inbound RDMA operation."""
        mr = self._by_rkey.get(rkey)
        if mr is None or not mr.valid:
            raise RemoteAccessError(f"unknown rkey {rkey}")
        if not mr.contains(addr, length):
            raise RemoteAccessError(
                f"rkey {rkey}: [{addr:#x},+{length}) outside MR"
            )
        return mr

    def __len__(self) -> int:
        return len(self._by_rkey)
