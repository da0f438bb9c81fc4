"""Per-key temperature tracking for tiered placement.

Two complementary signals, both deterministic and DRAM-resident:

* **frequency** — a TinyLFU-style count-min sketch (the same
  :class:`~repro.cache.sketch.FrequencySketch` machinery the read
  cache uses for admission), keyed by HSIT index.  Aging halves the
  counters periodically, so the estimate tracks *recent* popularity.
* **recency** — an ops-counted clock bit: every touch stamps the key
  with the tracker's logical tick, and a key stamped within the last
  ``recency_window`` operations is protected from demotion even if its
  sketch count is still low (freshly written data always starts cold
  by frequency).

GC asks :meth:`is_hot` when choosing which survivors stay on the fast
tier; the read path asks :meth:`should_promote` when a cold-tier read
suggests the record warmed back up.  Both views live in DRAM only — a
restart builds a new tracker, which merely restarts placement from a
cold start (the durable data is unaffected).
"""

from __future__ import annotations

from typing import Dict

from repro.cache.sketch import FrequencySketch


class TemperatureTracker:
    """Frequency sketch + recency clock over HSIT entry indexes."""

    __slots__ = ("sketch", "hot_threshold", "promote_threshold",
                 "recency_window", "_tick", "_last_touch")

    def __init__(
        self,
        hot_threshold: int = 2,
        promote_threshold: int = 2,
        recency_window: int = 2048,
    ) -> None:
        if hot_threshold < 1:
            raise ValueError(f"hot_threshold must be >= 1: {hot_threshold}")
        if promote_threshold < 1:
            raise ValueError(
                f"promote_threshold must be >= 1: {promote_threshold}"
            )
        if recency_window < 0:
            raise ValueError(f"recency_window must be >= 0: {recency_window}")
        self.sketch = FrequencySketch(width=8192)
        self.hot_threshold = hot_threshold
        self.promote_threshold = promote_threshold
        self.recency_window = recency_window
        self._tick = 0
        self._last_touch: Dict[int, int] = {}

    def touch(self, idx: int) -> None:
        """Count one access (read or write) of HSIT entry ``idx``."""
        self._tick += 1
        self._last_touch[idx] = self._tick
        self.sketch.add(idx.to_bytes(8, "little"))

    def forget(self, idx: int) -> None:
        """Drop the recency stamp of a deleted key (the sketch entry
        ages out on its own)."""
        self._last_touch.pop(idx, None)

    def frequency(self, idx: int) -> int:
        """Recent access-frequency estimate (sketch minimum)."""
        return self.sketch.estimate(idx.to_bytes(8, "little"))

    def is_recent(self, idx: int) -> bool:
        """Touched within the last ``recency_window`` tracked ops?"""
        last = self._last_touch.get(idx)
        if last is None:
            return False
        return self._tick - last <= self.recency_window

    def is_hot(self, idx: int, pressure: bool = False) -> bool:
        """Should this record stay on the fast tier?

        Hot means frequently accessed, or — unless the fast tier is
        under space ``pressure`` — recently touched (new data gets a
        grace period to prove itself before demotion).
        """
        if self.frequency(idx) >= self.hot_threshold:
            return True
        return not pressure and self.is_recent(idx)

    def should_promote(self, idx: int) -> bool:
        """Has a cold-tier record warmed enough to move back up?"""
        return self.frequency(idx) >= self.promote_threshold
