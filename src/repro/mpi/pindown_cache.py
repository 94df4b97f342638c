"""Pin-down cache for rendezvous user buffers.

Registration (pinning) is expensive (tens of microseconds — see
``IBConfig.registration_ns``); the pin-down cache [Tezuka et al., IPPS'98]
keeps recently used registrations alive so repeated rendezvous transfers
from/to the same application buffer pay the cost once.

Buffers are identified by an application-supplied ``buffer_id`` (the
simulation's stand-in for a virtual address range).  ``None`` means "a
fresh buffer" and always misses.  The cache is LRU-bounded by total pinned
bytes; evictions deregister lazily held regions.

The cache returns the *CPU cost* the caller must burn alongside the MR, so
timing stays under the caller's control (callers are simulated processes).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from repro.ib.hca import HCA
from repro.ib.mr import MemoryRegion
from repro.ib.types import IBConfig
from repro.mpi.constants import NO_ENTRIES


class PinDownCache:
    """LRU cache of registered memory regions for one endpoint."""

    def __init__(self, hca: HCA, capacity_bytes: int = 256 * 1024 * 1024):
        self.hca = hca
        self.config: IBConfig = hca.config
        self.capacity_bytes = capacity_bytes
        #: an OrderedDict from the first cached registration on
        self._lru: "OrderedDict[object, MemoryRegion]" = NO_ENTRIES
        self._pinned_bytes = 0
        # observability
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def acquire(self, buffer_id: Optional[object], nbytes: int) -> Tuple[MemoryRegion, int]:
        """Return ``(mr, cpu_ns)`` for a buffer of ``nbytes``.

        ``cpu_ns`` includes registration on a miss and any eviction
        deregistrations; it is zero on a hit.
        """
        if buffer_id is not None:
            mr = self._lru.get(buffer_id)
            if mr is not None and mr.length >= nbytes and mr.valid:
                self._lru.move_to_end(buffer_id)
                self.hits += 1
                return mr, 0
            if mr is not None:
                # Stale entry (resized buffer): drop and re-register.
                self._evict(buffer_id)

        self.misses += 1
        cost = self.config.registration_ns(nbytes)
        mr = self.hca.reg_mr(max(1, nbytes))
        if buffer_id is not None:
            if self._lru is NO_ENTRIES:  # first use
                self._lru = OrderedDict()
            self._lru[buffer_id] = mr
            self._pinned_bytes += mr.length
            cost += self._enforce_capacity()
        return mr, cost

    def release(self, buffer_id: Optional[object], mr: MemoryRegion) -> int:
        """Give back a region.  Cached regions stay pinned (that is the
        point); anonymous regions are deregistered immediately.  Returns the
        CPU cost incurred."""
        if buffer_id is not None and self._lru.get(buffer_id) is mr:
            return 0
        if mr.valid:
            self.hca.dereg_mr(mr)
            return self.config.deregistration_ns(mr.length)
        return 0

    def _enforce_capacity(self) -> int:
        cost = 0
        while self._pinned_bytes > self.capacity_bytes and len(self._lru) > 1:
            key = next(iter(self._lru))
            cost += self._evict(key)
        return cost

    def _evict(self, key: object) -> int:
        mr = self._lru.pop(key)
        self._pinned_bytes -= mr.length
        self.evictions += 1
        if mr.valid:
            self.hca.dereg_mr(mr)
            return self.config.deregistration_ns(mr.length)
        return 0

    def flush(self) -> int:
        """Drop every cached registration (e.g. at finalize)."""
        cost = 0
        for key in list(self._lru):
            cost += self._evict(key)
        return cost

    @property
    def pinned_bytes(self) -> int:
        return self._pinned_bytes

    def __len__(self) -> int:
        return len(self._lru)
