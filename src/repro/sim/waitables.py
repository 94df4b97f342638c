"""Things a simulated process can ``yield`` on.

A *waitable* implements ``_block(sim, process)``: the kernel calls it when a
process yields the object, and the waitable later resumes the process via
``process._resume(value, exc)``.  A :class:`Timeout` is the exception: the
kernel schedules its wakeup itself (``Process._resume``).  Besides it there
are :class:`Signal` — a one-shot event (the connection manager's handshake)
— and the completion queue (:class:`repro.ib.cq.CompletionQueue`), which a
blocked rank yields.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional

from repro.sim.engine import _as_int_ns

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.process import Process


class Waitable:
    """Interface for yieldable objects.  Subclasses override ``_block``."""

    def _block(self, sim: "Simulator", process: "Process") -> None:
        raise NotImplementedError


class Timeout(Waitable):
    """Resume the yielding process after ``delay`` nanoseconds.

    ``yield Timeout(0)`` is a valid "re-schedule me after the current event
    cascade" idiom and is used by progress loops to avoid starving peers.
    The delay follows the kernel's rule for every scheduled time: an
    integral float is converted, a fractional one raises
    :class:`~repro.sim.engine.SimulationError`.  Immutable once built, so
    one instance may be yielded any number of times (:data:`TIMEOUTS`).
    """

    __slots__ = ("delay",)

    def __init__(self, delay: int):
        if type(delay) is not int:
            delay = _as_int_ns(delay, "delay")
        if delay < 0:
            raise ValueError(f"negative timeout: {delay}")
        self.delay = delay

    def __repr__(self) -> str:  # pragma: no cover
        return f"Timeout({self.delay})"


class _TimeoutTable(dict):
    """``TIMEOUTS[delay]`` is the one shared :class:`Timeout` of that
    delay, built (and validated) on first use: a modelled CPU cost is one
    of a handful of values yielded thousands of times, and a hit is a
    plain dict lookup — no frame, no allocation.  Keyed by the validated
    ``int``, so ``TIMEOUTS[2.0] is TIMEOUTS[2]``.  Bounded: a program that
    sleeps for ever-new delays starts the table over at ``MAX`` entries."""

    __slots__ = ()
    MAX = 4096

    def __missing__(self, delay: int) -> Timeout:
        timeout = Timeout(delay)
        if len(self) >= self.MAX:
            self.clear()
        self[timeout.delay] = timeout
        return timeout


TIMEOUTS = _TimeoutTable()


class Signal(Waitable):
    """A one-shot broadcast event carrying an optional value.

    Any number of processes may wait on the same signal; :meth:`fire` wakes
    them all (in wait order, at the current instant).  Waiting on an
    already-fired signal resumes immediately with the stored value.  A signal
    may also carry an exception via :meth:`fail`, which re-raises inside each
    waiter — this is how the stack propagates fatal transport errors into
    blocked MPI calls.
    """

    __slots__ = ("name", "fired", "value", "exc", "_waiters")

    def __init__(self, name: str = ""):
        self.name = name
        self.fired = False
        self.value: Any = None
        self.exc: Optional[BaseException] = None
        self._waiters: List["Process"] = []

    def _block(self, sim: "Simulator", process: "Process") -> None:
        if self.fired:
            sim.call_soon(process._resume, self.value, self.exc)
        else:
            self._waiters.append(process)

    def fire(self, sim: "Simulator", value: Any = None) -> None:
        """Mark the signal fired and wake every waiter."""
        if self.fired:
            raise RuntimeError(f"signal {self.name!r} fired twice")
        self.fired = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            sim.call_soon(proc._resume, value, None)

    def fail(self, sim: "Simulator", exc: BaseException) -> None:
        """Mark the signal fired with an exception; waiters re-raise it."""
        if self.fired:
            raise RuntimeError(f"signal {self.name!r} fired twice")
        self.fired = True
        self.exc = exc
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            sim.call_soon(proc._resume, None, exc)

    def __repr__(self) -> str:  # pragma: no cover
        state = "fired" if self.fired else f"{len(self._waiters)} waiting"
        return f"<Signal {self.name!r} {state}>"
