"""Measurement helpers: latency distributions and throughput timelines."""

from __future__ import annotations

import math
from typing import Dict, List, Optional


class LatencyRecorder:
    """Collects per-operation latencies and summarizes them.

    Latencies are recorded in seconds and reported in microseconds,
    matching the units used throughout the paper's tables.
    """

    def __init__(self, name: str = "latency") -> None:
        self.name = name
        self.samples: List[float] = []

    def record(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"negative latency: {seconds}")
        self.samples.append(seconds)

    def __len__(self) -> int:
        return len(self.samples)

    def percentile(self, p: float) -> float:
        """Return the ``p``-th percentile latency in microseconds."""
        if not self.samples:
            return 0.0
        if not 0 <= p <= 100:
            raise ValueError(f"percentile out of range: {p}")
        ordered = sorted(self.samples)
        rank = (p / 100.0) * (len(ordered) - 1)
        lo = math.floor(rank)
        hi = math.ceil(rank)
        if lo == hi:
            value = ordered[lo]
        else:
            frac = rank - lo
            value = ordered[lo] * (1 - frac) + ordered[hi] * frac
        return value * 1e6

    def average(self) -> float:
        """Mean latency in microseconds."""
        if not self.samples:
            return 0.0
        return (sum(self.samples) / len(self.samples)) * 1e6

    def median(self) -> float:
        return self.percentile(50)

    def p99(self) -> float:
        return self.percentile(99)

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(len(self.samples)),
            "avg_us": self.average(),
            "p50_us": self.median(),
            "p99_us": self.p99(),
        }


class Timeline:
    """Buckets operation completions over virtual time.

    Used for the garbage-collection timeline experiment (Figure 17):
    throughput per bucket reveals whether background work stalls the
    foreground.
    """

    def __init__(self, bucket_seconds: float = 1.0) -> None:
        if bucket_seconds <= 0:
            raise ValueError(f"bucket must be positive: {bucket_seconds}")
        self.bucket_seconds = bucket_seconds
        self.buckets: Dict[int, int] = {}
        self.events: Dict[int, List[str]] = {}
        # When the first closed-loop client ran out of operations: from
        # there on the run is draining, not under full load.
        self.drain_at: Optional[float] = None

    def record(self, at: float, count: int = 1) -> None:
        idx = int(at / self.bucket_seconds)
        self.buckets[idx] = self.buckets.get(idx, 0) + count

    def mark(self, at: float, label: str) -> None:
        """Annotate a point in time (e.g. "gc-start")."""
        idx = int(at / self.bucket_seconds)
        self.events.setdefault(idx, []).append(label)

    def series(self, until: Optional[float] = None) -> List[float]:
        """Ops/second per bucket, densely from t=0."""
        if not self.buckets:
            return []
        last = int(until / self.bucket_seconds) if until is not None else max(self.buckets)
        return [
            self.buckets.get(i, 0) / self.bucket_seconds for i in range(last + 1)
        ]

    def min_over_max(self) -> float:
        """Stability metric: worst bucket over best bucket, among the
        buckets the run covered whole and under full load — not the
        first, and none from the one the drain began in (the last,
        when no ``drain_at`` was recorded)."""
        series = self.series()
        end = len(series) - 1
        if self.drain_at is not None:
            end = min(end, int(self.drain_at / self.bucket_seconds))
        interior = series[1:end] or series
        if not interior or max(interior) == 0:
            return 0.0
        return min(interior) / max(interior)
