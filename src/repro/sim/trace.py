"""Lightweight instrumentation: counters and an optional event trace.

Every layer of the stack reports into a :class:`Tracer` (one per simulated
cluster).  The benchmark harness reads counters such as
``"fc.ecm_sent"`` or ``"ib.rnr_nak"`` to build the paper's tables; the
record stream is only populated when tracing is explicitly enabled so the
simulation hot path stays allocation-free by default.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Tuple


class Counter:
    """A named family of integer counters keyed by an arbitrary hashable
    label (for per-connection statistics use ``(src, dst)`` tuples)."""

    __slots__ = ("name", "values")

    def __init__(self, name: str):
        self.name = name
        self.values: Dict[Any, int] = defaultdict(int)

    def add(self, key: Any = None, amount: int = 1) -> None:
        self.values[key] += amount

    def get(self, key: Any = None) -> int:
        return self.values.get(key, 0)

    def total(self) -> int:
        return sum(self.values.values())

    def max(self) -> int:
        return max(self.values.values()) if self.values else 0

    def items(self) -> Iterable[Tuple[Any, int]]:
        return self.values.items()

    def snapshot(self) -> Dict[Any, int]:
        """A plain (non-default) dict copy of the per-key values — safe to
        serialise, diff, or mutate without touching the live counter."""
        return dict(self.values)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Counter {self.name} total={self.total()}>"


class Tracer:
    """Aggregates counters and (optionally) a raw event log.

    Parameters
    ----------
    enabled:
        When False (the default for production runs) :meth:`record` is a
        no-op; counters always work.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.counters: Dict[str, Counter] = {}
        self.records: List[Tuple[int, str, tuple]] = []

    def counter(self, name: str) -> Counter:
        try:
            return self.counters[name]
        except KeyError:
            c = self.counters[name] = Counter(name)
            return c

    def count(self, name: str, key: Any = None, amount: int = 1) -> None:
        self.counter(name).add(key, amount)

    def record(self, time: int, kind: str, *detail: Any) -> None:
        if self.enabled:
            self.records.append((time, kind, detail))

    def records_of(self, kind: str) -> List[Tuple[int, str, tuple]]:
        return [r for r in self.records if r[1] == kind]

    def summary(self, prefix: str = "") -> Dict[str, int]:
        """Total of every counter whose name starts with ``prefix``, in
        sorted-name order — for assertions and the run report."""
        return {name: c.total() for name, c in sorted(self.counters.items())
                if name.startswith(prefix)}

    def __iter__(self):
        """Iterate counters in sorted-name order.

        Registration order depends on which layer fired first, which can
        differ between schemes/runs; sorted iteration keeps chaos reports
        and baseline-file diffs stable.
        """
        for name in sorted(self.counters):
            yield self.counters[name]

    def snapshot(self) -> Dict[str, Dict[Any, int]]:
        """Per-key values of every counter, sorted by counter name."""
        return {c.name: c.snapshot() for c in self}

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Tracer counters={len(self.counters)} records={len(self.records)}>"
