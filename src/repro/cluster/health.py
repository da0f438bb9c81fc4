"""Gray-failure detection: per-shard health scoring and circuit breakers.

Fail-stop failures announce themselves — a dead device raises, the
router fails the shard over.  *Gray* failures do not: a shard whose
device is latency-inflated keeps acknowledging every request, just
slowly, and nothing in the fail-stop machinery ever triggers.  This
module turns latency observations into the typed verdicts the router's
defenses (hedged reads, breaker-aware replica selection) act on:

* **scoring** — every routed read feeds an EWMA of the serving shard's
  latency (:class:`ShardHealth`); the smoothed score is the shard's
  health signal, robust to single-sample noise;
* **peer-relative outlier detection** — a shard is *gray* when its
  score exceeds ``gray_factor ×`` the median score of its peers.
  Comparing against peers rather than an absolute threshold makes the
  verdict self-calibrating: a cluster-wide slowdown (compaction storm,
  cold caches) is not a gray failure, one shard diverging from the
  rest is;
* **circuit breaking** — per-shard :class:`CircuitBreaker` with the
  classic closed → open → half-open state machine in virtual time.
  ``open_after`` consecutive gray verdicts open the breaker (reads
  steer to replicas); after ``reset_timeout`` virtual seconds the
  breaker half-opens and lets *probe* reads through; ``probe_successes``
  healthy probes close it, one gray or failed probe re-opens it.

Everything here is deterministic — scores and verdicts are pure
functions of the observed latencies and virtual timestamps; no wall
clock, no randomness — so seeded gray-failure runs are exactly
reproducible.  The monitor is only constructed when
``ClusterConfig.health`` is set; with it off the router never touches
this module and stays bit-identical to a build without it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set

from repro.obs.metrics import EventLog

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half_open"

# Recent read latencies kept for the hedge-delay quantile.
HEDGE_WINDOW = 128
# Hedge-delay cap relative to the median: under heavy pollution (a gray
# shard feeding the window) the raw quantile chases the inflated tail
# and hedges would never fire; min(Q(q), cap × median) keeps the delay
# anchored to healthy-majority behaviour.
HEDGE_MEDIAN_CAP = 3.0


@dataclass
class HealthConfig:
    """Knobs of gray-failure detection and defense.

    Attach one to :class:`~repro.cluster.router.ClusterConfig.health`
    to arm the whole subsystem; ``None`` (the default) keeps every
    hook disabled and the router bit-identical to the pre-health tree.
    """

    # -- scoring --
    ewma_alpha: float = 0.2  # weight of the newest sample
    min_samples: int = 16  # observations before a shard can be judged
    gray_factor: float = 3.0  # gray when score > factor × peer median
    # -- circuit breaker --
    open_after: int = 4  # consecutive gray verdicts that open it
    reset_timeout: float = 2e-3  # virtual secs open before half-open
    probe_successes: int = 3  # healthy half-open probes that close it
    # -- hedged reads --
    hedge_quantile: float = 0.95  # fire a hedge past this latency
    hedge_min_delay: float = 10e-6  # floor (virtual seconds)

    def __post_init__(self) -> None:
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1]: {self.ewma_alpha}")
        if self.min_samples < 1:
            raise ValueError(f"min_samples must be >= 1: {self.min_samples}")
        if self.gray_factor <= 1.0:
            raise ValueError(f"gray_factor must be > 1: {self.gray_factor}")
        if self.open_after < 1:
            raise ValueError(f"open_after must be >= 1: {self.open_after}")
        if self.reset_timeout <= 0:
            raise ValueError(f"reset_timeout must be > 0: {self.reset_timeout}")
        if self.probe_successes < 1:
            raise ValueError(
                f"probe_successes must be >= 1: {self.probe_successes}"
            )
        if not 0.0 < self.hedge_quantile < 1.0:
            raise ValueError(
                f"hedge_quantile must be in (0, 1): {self.hedge_quantile}"
            )
        if self.hedge_min_delay < 0:
            raise ValueError(
                f"hedge_min_delay must be >= 0: {self.hedge_min_delay}"
            )


class ShardHealth:
    """EWMA latency score of one shard."""

    __slots__ = ("shard_id", "score", "samples")

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.score: float = 0.0
        self.samples = 0

    def record(self, latency: float, alpha: float) -> None:
        if self.samples == 0:
            self.score = latency
        else:
            self.score = alpha * latency + (1.0 - alpha) * self.score
        self.samples += 1


class CircuitBreaker:
    """Closed → open → half-open, driven by gray verdicts in virtual time."""

    __slots__ = (
        "shard_id", "config", "events",
        "state", "gray_streak", "opened_at", "probes_ok",
    )

    def __init__(
        self,
        shard_id: int,
        config: HealthConfig,
        events: Optional[EventLog] = None,
    ) -> None:
        self.shard_id = shard_id
        self.config = config
        self.events = events if events is not None else EventLog("breaker")
        self.state = STATE_CLOSED
        self.gray_streak = 0
        self.opened_at = 0.0
        self.probes_ok = 0

    def allow(self, at: float) -> bool:
        """May a request be routed to this shard at virtual time ``at``?

        Open breakers block; once ``reset_timeout`` has elapsed the
        breaker half-opens and requests flow again as probes.
        """
        if self.state == STATE_OPEN:
            if at - self.opened_at >= self.config.reset_timeout:
                self.state = STATE_HALF_OPEN
                self.probes_ok = 0
                self.events.emit(at, "breaker_half_open", shard=self.shard_id)
                return True
            return False
        return True

    def trip(self, at: float) -> None:
        """Open (or re-open, from half-open) the breaker."""
        reopen = self.state == STATE_HALF_OPEN
        self.state = STATE_OPEN
        self.opened_at = at
        self.gray_streak = 0
        self.probes_ok = 0
        self.events.emit(
            at, "breaker_open", shard=self.shard_id, reopened=reopen
        )

    def _close(self, at: float) -> None:
        self.state = STATE_CLOSED
        self.gray_streak = 0
        self.probes_ok = 0
        self.events.emit(at, "breaker_closed", shard=self.shard_id)

    def on_verdict(self, gray: bool, at: float) -> None:
        """Feed one gray/healthy verdict for a served request."""
        if self.state == STATE_HALF_OPEN:
            if gray:
                self.trip(at)  # failed probe: straight back to open
            else:
                self.probes_ok += 1
                if self.probes_ok >= self.config.probe_successes:
                    self._close(at)
            return
        if self.state == STATE_CLOSED:
            if gray:
                self.gray_streak += 1
                if self.gray_streak >= self.config.open_after:
                    self.trip(at)
            else:
                self.gray_streak = 0


class HealthMonitor:
    """Cluster-wide view: per-shard scores, breakers, hedge delay."""

    def __init__(
        self,
        num_shards: int,
        config: HealthConfig,
        events: Optional[EventLog] = None,
    ) -> None:
        self.config = config
        self.events = events if events is not None else EventLog("health")
        self.shards: Dict[int, ShardHealth] = {
            sid: ShardHealth(sid) for sid in range(num_shards)
        }
        self.breakers: Dict[int, CircuitBreaker] = {
            sid: CircuitBreaker(sid, config, self.events)
            for sid in range(num_shards)
        }
        # Pooled recent read latencies feeding the hedge-delay quantile.
        self._recent: Deque[float] = deque(maxlen=HEDGE_WINDOW)
        self._hedge_delay = float("inf")  # no hedging until warmed up
        self._since_refresh = 0
        # Shards whose observations are ignored while set — live
        # resharding exempts the migration source and target so
        # bulk-move latency cannot flip a healthy shard's breaker.
        self.exempt: Set[int] = set()

    # ------------------------------------------------------------------
    # membership (live resharding adds shards after construction)
    # ------------------------------------------------------------------
    def register(self, shard_id: int) -> None:
        """Start tracking a shard added after construction."""
        if shard_id in self.shards:
            return
        self.shards[shard_id] = ShardHealth(shard_id)
        self.breakers[shard_id] = CircuitBreaker(shard_id, self.config, self.events)

    def set_exempt(self, shard_id: int, exempt: bool) -> None:
        """Suspend (or resume) verdicts for one shard.

        While exempt, :meth:`record_read` and :meth:`record_failure`
        are no-ops for the shard: its EWMA freezes, its breaker takes
        no verdicts, and its latencies stay out of the pooled hedge
        window.  Migration traffic is real load, not sickness.
        """
        if exempt:
            self.exempt.add(shard_id)
        else:
            self.exempt.discard(shard_id)

    # ------------------------------------------------------------------
    # scoring and verdicts
    # ------------------------------------------------------------------
    def _peer_median(self, shard_id: int) -> Optional[float]:
        """Median EWMA score of the judged shard's warmed-up peers."""
        cfg = self.config
        scores: List[float] = [
            h.score
            for sid, h in self.shards.items()
            if sid != shard_id and h.samples >= cfg.min_samples
        ]
        if not scores:
            return None
        scores.sort()
        mid = len(scores) // 2
        if len(scores) % 2:
            return scores[mid]
        return 0.5 * (scores[mid - 1] + scores[mid])

    def _judge(self, shard_id: int, value: float) -> Optional[bool]:
        """Is ``value`` (a score or a single probe latency) gray?

        ``None`` when there is no basis for a verdict yet (the shard or
        its peers have not produced ``min_samples`` observations).
        """
        health = self.shards[shard_id]
        if health.samples < self.config.min_samples:
            return None
        median = self._peer_median(shard_id)
        if median is None or median <= 0.0:
            return None
        return value > self.config.gray_factor * median

    def record_read(self, shard_id: int, latency: float, at: float) -> None:
        """Feed one served read; updates scores, breaker, hedge window."""
        if self.exempt and shard_id in self.exempt:
            return
        cfg = self.config
        health = self.shards[shard_id]
        health.record(latency, cfg.ewma_alpha)
        self._recent.append(latency)
        self._since_refresh += 1
        if self._since_refresh >= 32:
            self._refresh_hedge_delay()
        breaker = self.breakers[shard_id]
        # Half-open probes are judged on the probe's own latency (the
        # EWMA is still poisoned by the gray period); closed-state
        # verdicts use the smoothed score for noise robustness.
        value = latency if breaker.state == STATE_HALF_OPEN else health.score
        verdict = self._judge(shard_id, value)
        if verdict is None:
            return
        if verdict and breaker.state == STATE_CLOSED and breaker.gray_streak == 0:
            self.events.emit(
                at,
                "shard_gray",
                shard=shard_id,
                score=health.score,
                peer_median=self._peer_median(shard_id),
            )
        breaker.on_verdict(verdict, at)

    def record_failure(self, shard_id: int, at: float) -> None:
        """A routed request to the shard raised: hard evidence it is
        unwell — counts as a gray verdict (and fails any probe)."""
        if self.exempt and shard_id in self.exempt:
            return
        self.breakers[shard_id].on_verdict(True, at)

    # ------------------------------------------------------------------
    # routing queries
    # ------------------------------------------------------------------
    def allow(self, shard_id: int, at: float) -> bool:
        return self.breakers[shard_id].allow(at)

    def is_gray(self, shard_id: int) -> bool:
        """Current verdict from the smoothed score (no side effects)."""
        return bool(self._judge(shard_id, self.shards[shard_id].score))

    # ------------------------------------------------------------------
    # hedge delay
    # ------------------------------------------------------------------
    def _refresh_hedge_delay(self) -> None:
        self._since_refresh = 0
        recent = self._recent
        if len(recent) < self.config.min_samples:
            self._hedge_delay = float("inf")
            return
        ordered = sorted(recent)
        n = len(ordered)
        q = ordered[min(n - 1, int(self.config.hedge_quantile * n))]
        median = ordered[n // 2]
        delay = min(q, HEDGE_MEDIAN_CAP * median)
        if delay < self.config.hedge_min_delay:
            delay = self.config.hedge_min_delay
        self._hedge_delay = delay

    def hedge_delay(self) -> float:
        """Virtual seconds a read may run before a hedge fires.

        ``inf`` until the window holds ``min_samples`` observations —
        no hedging off a cold distribution.
        """
        return self._hedge_delay
