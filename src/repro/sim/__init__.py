"""Discrete-event simulation kernel.

A minimal, dependency-free DES kernel in the style of SimPy, specialised for
this reproduction:

* the clock is an **integer nanosecond** counter — event ordering is exact
  and runs are bit-reproducible;
* simulated actors are plain Python generators ("processes") that ``yield``
  *waitables* (:class:`Timeout`, :class:`Signal`);
* ties are broken by a monotonically increasing sequence number, so two runs
  of the same program produce identical event orders.

Example
-------
>>> from repro.sim import Simulator, Timeout
>>> sim = Simulator()
>>> def hello():
...     yield Timeout(1000)
...     return sim.now
>>> proc = sim.spawn(hello())
>>> sim.run()
>>> proc.result
1000
"""

from repro.sim.engine import ScheduledEvent, Simulator, gc_paused
from repro.sim.process import Process, ProcessKilled
from repro.sim.trace import Counter, Tracer
from repro.sim.waitables import TIMEOUTS, Signal, Timeout, Waitable

__all__ = [
    "Counter",
    "Process",
    "ProcessKilled",
    "ScheduledEvent",
    "Signal",
    "Simulator",
    "TIMEOUTS",
    "Timeout",
    "Tracer",
    "Waitable",
    "gc_paused",
]
