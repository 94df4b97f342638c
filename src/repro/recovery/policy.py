"""Recovery policy knobs (backoff schedule and attempt budget)."""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.sim.units import us


def pair_rng(seed: int, a: int, b: int, attempt: int) -> random.Random:
    """The RNG of one attempt between ranks ``a`` and ``b`` (backoff and
    ping jitter, CM set-up chaos): decorrelated across pairs and attempts."""
    return random.Random(seed * 1_000_003 + a * 1009 + b * 131 + attempt)


@dataclass
class RecoveryPolicy:
    """How hard to try re-establishing a lost QP pair.

    The reconnect delay for attempt *k* (1-based, cumulative per rank
    pair) is::

        min(max_delay_ns, base_delay_ns * backoff_factor ** (k - 1))
        + jitter in [0, jitter_ns)

    with the jitter drawn from :func:`pair_rng` keyed on ``(seed, pair,
    attempt)`` — decorrelated across pairs so a fabric-wide fault does not
    produce a synchronized reconnect storm.
    """

    max_attempts: int = 5  #: cumulative per rank pair; exceeded -> failure
    base_delay_ns: int = us(50)
    backoff_factor: float = 2.0
    max_delay_ns: int = us(2_000)
    jitter_ns: int = us(10)
    seed: int = 0

    def backoff_ns(self, attempt: int) -> int:
        """Attempt ``attempt``'s delay before jitter (the schedule above)."""
        return min(self.max_delay_ns,
                   int(self.base_delay_ns * self.backoff_factor ** (attempt - 1)))
