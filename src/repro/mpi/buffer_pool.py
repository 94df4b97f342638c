"""The pre-pinned send-buffer pool ("vbufs").

The paper (§3.1): *"the buffer pinning and unpinning overhead is avoided by
using a pool of pre-pinned, fixed size buffers for communication"*.  Eager
payloads and all control messages are staged through these buffers; the
buffer is released when the send completes locally.

The pool is pure accounting plus a wait-list: when it runs dry the endpoint
parks on :meth:`wait_available` and the progress engine's send-completion
handler releases buffers back.  Pool exhaustion is rare (the default pool is
big) but must not deadlock — tests cover a 2-buffer pool.
"""

from __future__ import annotations

from typing import List

from repro.sim import Signal, Simulator


class BufferPoolError(RuntimeError):
    pass


class SendBufferPool:
    """Fixed population of pre-pinned fixed-size buffers."""

    def __init__(self, sim: Simulator, count: int, vbuf_bytes: int):
        if count < 1:
            raise BufferPoolError("pool needs at least one buffer")
        self.sim = sim
        self.capacity = count
        self.vbuf_bytes = vbuf_bytes
        self.free = count
        self._waiters: List[Signal] = []  # at most one per sending process
        # observability
        self.min_free = count
        self.acquisitions = 0
        self.releases = 0
        self.exhaustion_events = 0

    def try_acquire(self) -> bool:
        """Grab one buffer; False if none free."""
        if self.free == 0:
            self.exhaustion_events += 1
            return False
        self.free -= 1
        self.acquisitions += 1
        if self.free < self.min_free:
            self.min_free = self.free
        return True

    def release(self) -> None:
        if self.free >= self.capacity:
            raise BufferPoolError("release without matching acquire")
        self.free += 1
        self.releases += 1
        # Wake exactly one parked waiter per freed buffer, in FIFO order.
        # Waking the whole wait-list here would stampede every parked
        # sender at the same instant for a single buffer (all but one
        # re-park, and the re-append scrambles the FIFO ordering).
        if self._waiters:
            self._waiters.pop(0).fire(self.sim, None)

    def wait_available(self) -> Signal:
        """A signal firing once a buffer is (or already is) free.  Caller
        must still :meth:`try_acquire` afterwards (another waiter may win)."""
        sig = Signal("vbuf.free")
        if self.free > 0:
            sig.fire(self.sim, None)
        else:
            self._waiters.append(sig)
        return sig

    @property
    def in_use(self) -> int:
        return self.capacity - self.free

    @property
    def waiting(self) -> int:
        """Senders currently parked on :meth:`wait_available`."""
        return len(self._waiters)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SendBufferPool {self.free}/{self.capacity} free>"
