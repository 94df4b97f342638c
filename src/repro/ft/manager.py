"""Rank-failure tolerance: heartbeat detection + ULFM-style propagation.

Layered above ``repro.recovery`` (which repairs *connections* between
live ranks), :class:`FTManager` handles whole-*rank* death:

* **Detection.**  A rank only watches peers it has pending work toward
  (undone send/recv requests, unanswered on-demand setup exchanges).
  Liveness is piggybacked on existing traffic — every delivered header
  refreshes ``last_heard`` for free — and explicit keepalive pings ride
  the fabric's control path only once a peer has been silent past
  ``FTConfig.suspect_timeout_ns``.  Each unanswered round doubles the
  tolerated silence (exponential confirmation) before the peer is
  declared dead.  A transport-retry-exceeded completion against a dead
  HCA short-circuits the heartbeat: unreachability reported by the RC
  transport is accepted as immediate confirmation (the DECLARE row of
  :func:`repro.recovery.failures.classify`, which the endpoint executes
  by calling :meth:`FTManager.declare`).

* **Propagation.**  Declaring a rank dead completes every pending
  request targeting it with ``Status.error == PROC_FAILED`` (ULFM's
  MPI_ERR_PROC_FAILED) instead of letting the program hang: what
  ``Endpoint.sever`` drops on each survivor (backlogged sends, in-flight
  rendezvous handshakes), posted receives, and programs parked on an
  on-demand connection setup are all resumed.  The
  structured :class:`~repro.ft.failures.RankFailure` record lands on
  ``JobResult.failures`` with detection-latency stats, and the death is
  announced to the observers (the auditor exempts the dead rank from
  credit-conservation and watchdog accounting).

Zero-cost when not installed: it hears deliveries as an observer, its
endpoint decision sites are guarded by ``if self._ft is not None`` and no
detector event is ever scheduled, so disabled runs stay bit-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.ft.config import FTConfig
from repro.ft.failures import PROC_FAILED, RankFailedError, RankFailure
from repro.mpi.request import Status
from repro.recovery.policy import pair_rng

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.builder import Cluster
    from repro.mpi.endpoint import Endpoint
    from repro.mpi.request import Request


class FTManager:
    """One job's failure detector and dead-rank bookkeeping."""

    name = "ft"

    def __init__(self, config: Optional[FTConfig] = None):
        self.config = config or FTConfig()
        self.config.validate()
        self.cluster = self.sim = None  # set by arm()

        self.dead: Set[int] = set()  # declared dead (detector verdicts)
        self.failures: List[RankFailure] = []

        # (observer, peer) -> undone requests whose progress needs the peer
        self._watch: Dict[Tuple[int, int], List["Request"]] = {}
        self._last_heard: Dict[Tuple[int, int], int] = {}
        self._rounds: Dict[Tuple[int, int], int] = {}
        self._died_ns: Dict[int, int] = {}
        self._armed = False

        # observability
        self.pings_sent = 0
        self.pongs_sent = 0
        self.pongs_received = 0
        self.suspicions = 0
        self.proc_failed = 0  # requests completed with PROC_FAILED

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def arm(self, cluster: "Cluster") -> None:
        """Attach to every endpoint (``ep._ft``) and the cluster."""
        self.cluster = cluster
        self.sim = cluster.sim
        cluster.ft = self
        for ep in cluster.endpoints:
            ep._ft = self
        cluster.observe(self)

    def disarm(self) -> None:
        """Undo :meth:`arm`: nobody watches peers or fails requests."""
        self.cluster.ft = None
        for ep in self.cluster.endpoints:
            ep._ft = None
        self.cluster.unobserve(self)

    def on_deliver(self, conn, h) -> None:
        """Observer event: any delivery proves its sender alive."""
        key = (conn.endpoint.rank, conn.peer)
        self._last_heard[key] = self.sim.now
        if self._rounds:
            self._rounds.pop(key, None)

    # ------------------------------------------------------------------
    # decision sites in the endpoint (all gated on ``ep._ft is not None``)
    # ------------------------------------------------------------------
    def fail_if_dead(self, ep: "Endpoint", req: "Request", peer: int) -> bool:
        """Complete ``req`` with PROC_FAILED when ``peer`` is already
        declared dead; returns True if it did."""
        if peer in self.dead:
            self.fail_request(ep, req, peer)
            return True
        return False

    def watch(self, ep: "Endpoint", req: "Request", peer: int) -> None:
        """Monitor ``peer``'s liveness until ``req`` completes."""
        key = (ep.rank, peer)
        self._watch.setdefault(key, []).append(req)
        self._last_heard.setdefault(key, self.sim.now)
        if not self._armed:
            self._armed = True
            self.sim.every(self.config.heartbeat_interval_ns, self._tick)

    def fail_request(self, ep: "Endpoint", req: "Request", peer: int) -> None:
        """Complete a request against a dead peer (idempotent)."""
        if req.done:
            return
        self.proc_failed += 1
        req.complete(
            Status(source=peer, tag=-1, size=0, payload=None, error=PROC_FAILED)
        )

    # ------------------------------------------------------------------
    # hook from the fault injector
    # ------------------------------------------------------------------
    def note_injected_death(self, rank: int, now: int) -> None:
        """Ground truth for detection-latency stats (the detector itself
        never reads this: it only sees silence and transport errors)."""
        self._died_ns.setdefault(rank, now)
        if self.cluster.observer is not None:
            # the detector needs up to detection_budget_ns of silence
            # before it can turn the hang into a structured failure
            self.cluster.observer.on_quiet(now + self.config.detection_budget_ns)

    # ------------------------------------------------------------------
    # the detector
    # ------------------------------------------------------------------
    def _tick(self) -> bool:
        now = self.sim.now
        cfg = self.config
        eps = self.cluster.endpoints
        active = False
        for key in sorted(self._watch):
            reqs = self._watch.get(key)
            if reqs is None:  # dropped by a declaration earlier this tick
                continue
            obs, peer = key
            reqs = [r for r in reqs if not r.done]
            if not reqs or obs in self.dead or peer in self.dead or eps[obs].hca.dead:
                del self._watch[key]
                self._rounds.pop(key, None)
                continue
            self._watch[key] = reqs
            active = True
            rounds = self._rounds.get(key, 0)
            bound = cfg.suspect_timeout_ns << rounds
            if now - self._last_heard[key] < bound:
                continue
            if rounds >= cfg.confirmations:
                self.declare(peer, detected_by=obs, cause="heartbeat-timeout")
                continue
            if rounds == 0:
                self.suspicions += 1
            self._rounds[key] = rounds + 1
            self._send_ping(obs, peer, rounds)
            if self.cluster.observer is not None:
                # confirmation rounds stall the watched requests
                self.cluster.observer.on_quiet(
                    now + (bound << 1) + cfg.heartbeat_interval_ns)
        if not active:
            self._armed = False  # agenda drains; re-armed by the next watch()
        return active

    def _send_ping(self, obs: int, peer: int, attempt: int) -> None:
        cfg = self.config
        delay = 0
        if cfg.jitter_ns:
            delay = pair_rng(cfg.seed, obs, peer, attempt).randrange(cfg.jitter_ns)
        self.sim.call_later(delay, self._ping_depart, obs, peer)

    def _ping_depart(self, obs: int, peer: int) -> None:
        if peer in self.dead or obs in self.dead:
            return
        eps = self.cluster.endpoints
        src = eps[obs]
        if src.hca.dead:
            return
        self.pings_sent += 1
        self.cluster.fabric.send_control(
            src.hca.lid, eps[peer].hca.lid, self._ping_arrive, obs, peer
        )

    def _ping_arrive(self, obs: int, peer: int) -> None:
        eps = self.cluster.endpoints
        target = eps[peer]
        if peer in self.dead or target.hca.dead:
            return  # a dead rank answers nothing: silence IS the signal
        self.pongs_sent += 1
        self.cluster.fabric.send_control(
            target.hca.lid, eps[obs].hca.lid, self._pong_arrive, obs, peer
        )

    def _pong_arrive(self, obs: int, peer: int) -> None:
        if self.cluster.endpoints[obs].hca.dead:
            return
        self.pongs_received += 1
        self._last_heard[(obs, peer)] = self.sim.now
        self._rounds.pop((obs, peer), None)

    # ------------------------------------------------------------------
    # declaration + ULFM-style propagation
    # ------------------------------------------------------------------
    def declare(self, rank: int, detected_by: int, cause: str) -> None:
        """``detected_by`` found ``rank`` dead: record it, fail all toward it."""
        if rank in self.dead:
            return
        now = self.sim.now
        self.dead.add(rank)
        eps = self.cluster.endpoints
        failure = RankFailure(
            rank=rank,
            detected_by=detected_by,
            scheme=eps[detected_by].scheme.name.value,
            cause=cause,
            died_ns=self._died_ns.get(rank, now),
            detected_ns=now,
            suspect_rounds=self._rounds.get((detected_by, rank), 0),
        )
        self.failures.append(failure)
        self.cluster.tracer.count("ft.rank_dead", rank)
        if self.cluster.observer is not None:
            self.cluster.observer.on_rank_dead(rank)
        # Resume programs parked on an on-demand setup toward the dead
        # rank: the connection exchange will never complete.
        cm = self.cluster.cm
        if cm is not None:
            cm.fail_toward(rank, RankFailedError(failure))
        # cut every survivor loose (a static-mesh pair never touched is
        # severed as built) and fail what it dropped or watched the rank for
        for ep in eps:
            if ep.rank != rank and ep.rank not in self.dead:
                self.cluster.wire(ep, rank)
                for req in (*ep.sever(rank), *self._watch.pop((ep.rank, rank), ())):
                    self.fail_request(ep, req, rank)
                self._rounds.pop((ep.rank, rank), None)
        # Drop remaining detector state involving the dead rank.
        for key in [k for k in self._watch if rank in k]:
            del self._watch[key]
            self._rounds.pop(key, None)

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Detector activity (the records themselves are :attr:`failures`)."""
        return {
            "dead": sorted(self.dead),
            "suspicions": self.suspicions,
            "pings_sent": self.pings_sent,
            "pongs_sent": self.pongs_sent,
            "pongs_received": self.pongs_received,
            "proc_failed_requests": self.proc_failed,
        }
