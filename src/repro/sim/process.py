"""Coroutine processes driven by the simulation kernel.

A process wraps a Python generator.  Each ``yield`` hands a
:class:`~repro.sim.waitables.Waitable` to the kernel; when it fires, the
generator is resumed with the waitable's value.  ``return value`` inside the
generator becomes :attr:`Process.result`.  Programs compose with ``yield
from`` for sub-routines; an exception that escapes a generator is raised
out of :meth:`Simulator.run <repro.sim.engine.Simulator.run>`.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.waitables import Timeout, Waitable

#: shared resume-args tuple — every Timeout wakeup resumes with (None, None)
_NONE2 = (None, None)

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class Process:
    """A running simulated activity.

    Attributes
    ----------
    alive:
        True until the generator returns, raises, or is killed.
    killed:
        True once :meth:`kill` ended it.
    result:
        The generator's return value once finished.
    failure:
        The exception that terminated the generator, if any; it is also
        raised out of :meth:`Simulator.run` at once, so an error is never
        silently dropped.
    """

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        self.sim = sim
        self.gen = generator
        self.name = name or getattr(generator, "__name__", "proc")
        self.alive = True
        self.killed = False
        self.result: Any = None
        self.failure: Optional[BaseException] = None
        # Hot path: bind once.  ``_resume`` is scheduled tens of thousands
        # of times per run; shadowing the methods with instance attributes
        # avoids a bound-method allocation per wakeup, and ``_send`` skips
        # one attribute chain per step.  ``_step`` is the same function —
        # the alive guard is folded in (a dead process ignores stale
        # wakeups either way, and one wrapper frame per event adds up).
        self._send = generator.send
        self._resume = self._resume
        self._step = self._resume

    # ------------------------------------------------------------------
    # kernel interface
    # ------------------------------------------------------------------
    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        if not self.alive:
            return
        try:
            if exc is None:
                item = self._send(value)
            else:
                item = self.gen.throw(exc)
        except StopIteration as stop:
            self._finish(getattr(stop, "value", None), None)
            return
        except BaseException as err:  # noqa: BLE001 - must capture any failure
            self._finish(None, err)
            return
        # Timeout is by far the most common waitable (every modelled CPU
        # cost); its wakeup is the one agenda push outside engine.py —
        # ``sim.call_later(item.delay, self._resume, None, None)`` minus two
        # call frames, measured at 3-5 % of ``run_s`` (DESIGN §5.1).
        # Timeout.__init__ validated the delay; a zero one (rare) is as
        # correct on the heap as on the kernel's same-instant FIFO.
        if item.__class__ is Timeout:
            sim = self.sim
            seq = sim._seq = sim._seq + 1
            heappush(sim._q, (sim.now + item.delay, seq, self._resume, _NONE2))
            return
        if not isinstance(item, Waitable):
            self._finish(
                None,
                TypeError(
                    f"process {self.name!r} yielded non-waitable {item!r}"
                ),
            )
            return
        item._block(self.sim, self)

    _step = _resume

    def _finish(self, result: Any, failure: Optional[BaseException]) -> None:
        self.alive = False
        self.result = result
        self.failure = failure
        if failure is not None:
            raise failure

    # ------------------------------------------------------------------
    # control
    # ------------------------------------------------------------------
    def kill(self) -> None:
        """Terminate the process now, from outside it: the generator is
        closed where it is parked (its ``finally`` blocks run), and a
        wakeup still on the agenda finds it dead and is dropped."""
        if self.alive:
            self.alive = False
            self.killed = True
            self.gen.close()

    def __repr__(self) -> str:  # pragma: no cover
        state = "alive" if self.alive else "done"
        return f"<Process {self.name!r} {state}>"
