"""The pre-pinned send-buffer pool ("vbufs").

The paper (§3.1): *"the buffer pinning and unpinning overhead is avoided by
using a pool of pre-pinned, fixed size buffers for communication"*.  Eager
payloads and all control messages are staged through these buffers; the
buffer is released when the send completes locally.

The pool is pure accounting: when it runs dry the endpoint drives its
progress engine until a send completion releases a buffer back.  Pool
exhaustion is rare (the default pool is big) but must not deadlock — tests
cover a 2-buffer pool.
"""

from __future__ import annotations


class BufferPoolError(RuntimeError):
    pass


class SendBufferPool:
    """Fixed population of pre-pinned fixed-size buffers."""

    def __init__(self, count: int, vbuf_bytes: int):
        if count < 1:
            raise BufferPoolError("pool needs at least one buffer")
        self.capacity = count
        self.vbuf_bytes = vbuf_bytes
        self.free = count
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

    @property
    def in_use(self) -> int:
        return self.capacity - self.free

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SendBufferPool {self.free}/{self.capacity} free>"
