"""On-demand connection management (paper §7 / [Wu et al., Cluster'02]).

The paper's conclusion: *"Our proposed dynamic flow control scheme can be
combined with on-demand connection setup to further improve the
scalability of MPI implementations."*  This module implements that
combination: instead of wiring a full O(P²) Reliable-Connection mesh at
``MPI_Init`` (with pre-posted buffers on every connection), queue pairs
are created lazily when two processes first communicate.

The connection-manager exchange (REQ/REP/RTU over the subnet's management
datagrams, plus the RESET→INIT→RTR→RTS transitions on both QPs) is
modelled as a fixed latency, charged to the first sender, during which the
send blocks — exactly the MVAPICH on-demand behaviour.

With ``run_job(..., on_demand=True)``, unused rank pairs cost *zero*
buffers and zero QP state; combine with the dynamic scheme and total
buffer memory scales with the application's communication graph rather
than with P².
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.recovery.failures import ConnectionFailedError, ConnectionFailure
from repro.recovery.policy import RecoveryPolicy, pair_rng
from repro.sim import Signal
from repro.sim.units import us

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.builder import Cluster
    from repro.mpi.endpoint import Endpoint

#: Default connection-establishment latency: a 3-way CM exchange across
#: the fabric plus two QP state-machine walks (era measurements put full
#: on-demand setup in the few-hundred-µs range).
DEFAULT_SETUP_NS = us(250)


class SetupChaos:
    """Control-plane chaos on the CM exchange, one job's worth (armed by
    ``run_job(cm_chaos={...})`` with these keywords): the unreliable
    management datagrams may lose the REQ/REP/RTU (whole-exchange loss
    with ``loss_prob``) or crawl (uniform extra delay in ``[0,
    delay_ns)``); the requester times out and retries on ``policy``'s
    exponential-backoff schedule, surfacing ``ConnectionFailedError``
    (cause ``cm-setup-timeout``) once the attempt budget is spent.  While
    none is armed the set-up path is byte-identical to the chaos-free
    implementation."""

    name = "cm_chaos"
    failures = ()  # a pair that never comes up fails the ranks waiting on it
    KEYS = ("loss_prob", "delay_ns", "policy", "seed")
    __slots__ = KEYS + ("cluster",)

    def __init__(self, loss_prob: float = 0.0, delay_ns: int = 0,
                 policy: Optional[RecoveryPolicy] = None, seed: int = 0):
        if not 0.0 <= loss_prob < 1.0:
            raise ValueError("cm chaos: loss_prob must be in [0, 1)")
        if delay_ns < 0:
            raise ValueError("cm chaos: delay_ns must be >= 0")
        self.loss_prob = loss_prob
        self.delay_ns = int(delay_ns)
        self.policy = policy or RecoveryPolicy()
        self.seed = seed
        self.cluster = None  # set by arm()

    def arm(self, cluster: "Cluster") -> None:
        if cluster.cm is None:
            raise ValueError(
                "cm_chaos needs an on-demand cluster (run_job(..., on_demand=True))"
            )
        self.cluster = cluster
        cluster.cm._chaos = self

    def summary(self) -> Dict[str, int]:
        """The job's ``cm.*`` counter totals: exchanges lost, retried, failed."""
        return self.cluster.tracer.summary("cm.")

    def rng(self, pair: Tuple[int, int], attempt: int) -> random.Random:
        """Per-(pair, attempt) RNG, keyed like the recovery backoff jitter."""
        return pair_rng(self.seed, *pair, attempt)


class ConnectionManager:
    """Lazily wires RC connections between endpoint pairs: the handshake.

    It keeps only the exchanges in flight; one that completes is dropped
    as :meth:`Cluster.connect <repro.cluster.builder.Cluster.connect>`
    wires the pair, so a pair with no connections starts a fresh exchange.
    A pair lost for good is not dismantled: the failure ends the job.
    """

    def __init__(self, cluster: "Cluster", setup_ns: int = DEFAULT_SETUP_NS):
        self.cluster = cluster
        self.setup_ns = setup_ns
        #: the exchanges in flight: a pair's signal until it fires
        self._pending: Dict[Tuple[int, int], Signal] = {}
        self._chaos: Optional[SetupChaos] = None  # while one is armed
        #: unordered pairs wired so far (observability)
        self.established = 0

    def request(self, endpoint: "Endpoint", peer: int) -> Signal:
        """Start (or join) connection setup between ``endpoint.rank`` and
        ``peer``; returns a signal fired once both directions exist."""
        pair = (min(endpoint.rank, peer), max(endpoint.rank, peer))
        sig = self._pending.get(pair)
        if sig is not None:
            return sig
        sig = Signal(f"cm.{pair}")
        self._pending[pair] = sig
        if self._chaos is None:
            self.cluster.sim.call_later(self.setup_ns, self._establish, pair, sig)
        else:
            self._attempt(pair, sig, 1)
        return sig

    # ------------------------------------------------------ chaos plumbing
    def _attempt(self, pair: Tuple[int, int], sig: Signal, attempt: int) -> None:
        """One chaotic CM exchange: maybe lost, maybe slow, always
        guarded by a timeout that either retries or gives up."""
        chaos = self._chaos
        rng = chaos.rng(pair, attempt)
        sim = self.cluster.sim
        tracer = self.cluster.tracer
        lost = chaos.loss_prob > 0.0 and rng.random() < chaos.loss_prob
        extra = rng.randrange(chaos.delay_ns) if chaos.delay_ns else 0
        if lost:
            tracer.count("cm.setup_lost", pair)
        else:
            sim.call_later(self.setup_ns + extra, self._establish, pair, sig)
        # The timeout covers the worst-case chaotic exchange plus the
        # attempt's backoff share, so an establish in flight always wins
        # the race against its own timer.
        pol = chaos.policy
        backoff = pol.backoff_ns(attempt)
        if pol.jitter_ns:
            backoff += rng.randrange(pol.jitter_ns)
        sim.call_later(
            self.setup_ns + chaos.delay_ns + backoff,
            self._setup_timeout, pair, sig, attempt,
        )

    def _setup_timeout(self, pair: Tuple[int, int], sig: Signal, attempt: int) -> None:
        if sig.fired:
            return  # establish won the race, or the exchange was failed
        chaos = self._chaos
        if chaos is None or attempt >= chaos.policy.max_attempts:
            self.cluster.tracer.count("cm.setup_failed", pair)
            del self._pending[pair]
            a = self.cluster.endpoints[pair[0]]
            sig.fail(self.cluster.sim, ConnectionFailedError(ConnectionFailure(
                rank=pair[0],
                peer=pair[1],
                scheme=a.scheme.name.value,
                epoch=0,  # the pair never came up
                cause="cm-setup-timeout",
                elapsed_ns=self.cluster.sim.now,
                attempts=attempt,
            )))
            return
        self.cluster.tracer.count("cm.setup_retry", pair)
        self._attempt(pair, sig, attempt + 1)

    def fail_toward(self, rank: int, exc: BaseException) -> None:
        """Fail every exchange in flight with ``rank`` (the failure detector
        declared it dead): it will never complete, and the ranks parked
        on it resume with ``exc``."""
        for pair in [p for p in self._pending if rank in p]:
            self._pending.pop(pair).fail(self.cluster.sim, exc)

    def _establish(self, pair: Tuple[int, int], sig: Signal) -> None:
        if sig.fired:
            # A duplicate exchange under chaos (slow attempt raced its own
            # retry), or the failure detector failed the signal because one
            # end died mid-setup.  A one-shot Signal cannot re-fire.
            return
        del self._pending[pair]
        self.cluster.connect(*pair)
        self.established += 1
        sig.fire(self.cluster.sim, None)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ConnectionManager established={self.established}>"
