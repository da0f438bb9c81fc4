"""Per-shard admission control: queue-depth caps and token-bucket
rate limiting, in virtual time.

A saturated shard must degrade gracefully — shed load with a typed
:class:`~repro.cluster.errors.ShardOverloadedError` the client can back
off on — rather than queue requests unboundedly and let tail latency
grow without limit.  Two independent mechanisms, both optional:

* **queue-depth cap** — at most ``max_queue_depth`` operations may be
  in flight on the shard at any instant of virtual time.  In-flight is
  tracked as a set of operation end-times: an op started at ``t`` that
  finished at ``e > t`` occupies a slot for every admission decision at
  times in ``[t, e)``.
* **token bucket** — ``rate`` tokens accrue per virtual second up to
  ``burst``; each admitted operation consumes one.  An empty bucket
  sheds with a ``retry_after`` hint of the refill time.

``internal`` traffic — what the router fans out behind an admitted op
(replica writes, hedges) and the migrator's own copies — is never
shed.  Admission does not gate membership: a shard being drained by a
live reshard needs no write gate, because its ``remove`` migration
routes every write to a ring without it
(:class:`~repro.cluster.membership.Membership`).

With both knobs disabled (the default) :meth:`admit` returns
immediately without reading the clock or allocating — the fault-free,
unlimited configuration stays bit-identical to a build without
admission control.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

from repro.cluster.errors import ShardOverloadedError

KIND_READ = "read"
KIND_WRITE = "write"
KIND_INTERNAL = "internal"  # migration / repair traffic: never shed


class TokenBucket:
    """A token bucket over virtual time (deterministic, allocation-free)."""

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive: {rate}")
        if burst < 1:
            raise ValueError(f"burst must allow at least one op: {burst}")
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self._last = 0.0

    def try_take(self, at: float) -> float:
        """Consume one token at virtual time ``at``.

        Returns 0.0 on success, else the virtual seconds until a token
        will be available (the shed hint).  Time never flows backwards
        here: ``at`` below the last refill point refills nothing.
        """
        if at > self._last:
            self.tokens = min(self.burst, self.tokens + (at - self._last) * self.rate)
            self._last = at
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        return (1.0 - self.tokens) / self.rate


class AdmissionController:
    """Combined queue-depth + rate-limit gate for one shard."""

    def __init__(
        self,
        shard_id: int,
        max_queue_depth: Optional[int] = None,
        rate: Optional[float] = None,
        burst: float = 64.0,
    ) -> None:
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError(f"queue depth cap must be >= 1: {max_queue_depth}")
        self.shard_id = shard_id
        self.max_queue_depth = max_queue_depth
        self.bucket = TokenBucket(rate, burst) if rate is not None else None
        self._inflight_ends: List[float] = []  # min-heap of op end times
        self.admitted = 0
        self.shed_queue = 0
        self.shed_rate = 0

    def inflight_at(self, at: float) -> int:
        ends = self._inflight_ends
        while ends and ends[0] <= at:
            heapq.heappop(ends)
        return len(ends)

    def admit(self, at: float, kind: str = KIND_READ) -> None:
        """Gate one operation starting at virtual time ``at``.

        Raises :class:`ShardOverloadedError` when shedding; otherwise
        records nothing yet — the caller reports the op's end time via
        :meth:`complete` so later admissions see it in flight.  ``kind``
        is one of ``read`` / ``write`` / ``internal``; internal
        (migration) traffic is never gated.
        """
        if kind == KIND_INTERNAL:
            return
        if self.max_queue_depth is None and self.bucket is None:
            return
        if (
            self.max_queue_depth is not None
            and self.inflight_at(at) >= self.max_queue_depth
        ):
            self.shed_queue += 1
            raise ShardOverloadedError(self.shard_id, "queue depth cap")
        if self.bucket is not None:
            wait = self.bucket.try_take(at)
            if wait > 0.0:
                self.shed_rate += 1
                raise ShardOverloadedError(
                    self.shard_id, "rate limit", retry_after=wait
                )
        self.admitted += 1

    def complete(self, end: float) -> None:
        """Record an admitted operation's end time."""
        if self.max_queue_depth is None and self.bucket is None:
            return
        heapq.heappush(self._inflight_ends, end)
