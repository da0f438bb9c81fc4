"""Tier manager: placement policy, promotion queue, observability.

The :class:`TierManager` is the DRAM-side brain of tiered placement.
It owns the :class:`~repro.tiering.temperature.TemperatureTracker`,
knows which Value Storages are fast and which are cold (the store lays
them out fast-first, so ``vs_id < num_fast`` identifies the tier), and
accumulates the ``tier.*`` counters.  Promotion candidates found on
the read path are queued here — deduplicated by HSIT index and tagged
with the pointer word observed at read time, so the background drain
can detect that a newer client value superseded the cold copy (fresh-
key protection) and drop the stale promotion instead of publishing it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Sequence, Set, Tuple

from repro.core.config import TIER_TEMPERATURE, PrismConfig
from repro.tiering.temperature import TemperatureTracker

# A queued promotion: (hsit_idx, expected pointer word at enqueue time,
# value bytes read from the cold tier).
PendingPromotion = Tuple[int, int, bytes]


class TierManager:
    """Placement policy + temperature state + tier.* counters."""

    def __init__(self, cfg: PrismConfig) -> None:
        self.policy = cfg.tier_policy
        self.num_fast = cfg.num_ssds
        self.num_cold = cfg.num_cold_ssds
        self.fast_headroom = cfg.tier_fast_headroom
        self.gc_free_threshold = cfg.gc_free_threshold
        self.tracker = TemperatureTracker(
            sketch_width=cfg.tier_sketch_width,
            hot_threshold=cfg.tier_hot_threshold,
            promote_threshold=cfg.tier_promote_threshold,
            recency_window=cfg.tier_recency_window,
        )
        # Counters surfaced through stats()/metrics.
        self.demotions = 0  # records moved fast -> cold
        self.promotions = 0  # records moved cold -> fast
        self.promotions_stale = 0  # dropped: key superseded since read
        self.cold_reclaims = 0  # records placed cold straight from PWB
        self.spills = 0  # hot records forced cold: fast tier had no room
        self.fast_reads = 0
        self.cold_reads = 0
        self.demoted_bytes = 0
        self.promoted_bytes = 0
        # Promotion queue, deduplicated by HSIT index.
        self._pending: Deque[PendingPromotion] = deque()
        self._queued: Set[int] = set()

    @property
    def temperature_policy(self) -> bool:
        """True when placement follows hotness (vs the spread baseline)."""
        return self.policy == TIER_TEMPERATURE

    def is_cold_vs(self, vs_id: int) -> bool:
        return vs_id >= self.num_fast

    # -- hot/cold decisions (temperature policy) --------------------------
    # ``fast`` is the fast-tier Value Storages; entries are the store's
    # relocation entries, whose first field is the HSIT index.

    def fast_pressure(self, fast: Sequence) -> bool:
        """Is the fast tier close enough to its GC threshold that
        reclaim should stop honoring recency protection?  Placing
        borderline records cold now beats GC demoting them moments
        later (one write instead of two)."""
        free = sum(vs.free_chunks for vs in fast)
        total = sum(vs.num_chunks for vs in fast)
        return free / total < max(0.25, 2 * self.gc_free_threshold)

    @staticmethod
    def _split(entries: list, stays) -> Tuple[list, list]:
        keep, leave = [], []
        for entry in entries:
            (keep if stays(entry[0]) else leave).append(entry)
        return keep, leave

    def split_reclaim(self, live: list, fast: Sequence) -> Tuple[list, list]:
        """``(hot, cold)``: which PWB survivors go fast, and which skip
        the fast tier and land cold."""
        pressure = self.fast_pressure(fast)
        return self._split(live, lambda idx: self.tracker.is_hot(idx, pressure))

    def split_gc(self, vs, moves: list, fast: Sequence) -> Tuple[list, list]:
        """``(keep, leave)``: which GC survivors of ``vs`` are rewritten
        in place, and which cross to the other tier."""
        tracker = self.tracker
        if self.is_cold_vs(vs.vs_id):
            # Cold-tier GC: survivors that warmed back up go fast again.
            return self._split(moves, lambda idx: not tracker.should_promote(idx))
        # Demotion ladder: the emptier the storage, the more the
        # recency/frequency protections relax — at the bottom rung
        # everything movable leaves, or GC livelocks rewriting hot data
        # into a tier with no room for it.
        free_frac = vs.free_fraction()
        thr = self.gc_free_threshold
        if free_frac < thr * 0.25:
            return [], moves
        if free_frac < thr * 0.5:
            hot = tracker.hot_threshold
            return self._split(moves, lambda idx: tracker.frequency(idx) >= hot)
        pressure = self.fast_pressure(fast)
        return self._split(moves, lambda idx: tracker.is_hot(idx, pressure))

    # -- promotion queue ------------------------------------------------

    def enqueue_promotion(self, idx: int, expected_word: int, value: bytes) -> None:
        """Remember a cold-read value for background promotion."""
        if idx in self._queued:
            return
        self._queued.add(idx)
        self._pending.append((idx, expected_word, value))

    def has_pending(self) -> bool:
        return bool(self._pending)

    def take_pending(self, limit: int = 64) -> List[PendingPromotion]:
        """Drain up to ``limit`` queued promotions."""
        batch: List[PendingPromotion] = []
        while self._pending and len(batch) < limit:
            entry = self._pending.popleft()
            self._queued.discard(entry[0])
            batch.append(entry)
        return batch

    # -- observability --------------------------------------------------

    def stats(self, store) -> dict:
        """The tier.* surface merged into ``Prism.stats()``."""
        fast = store.storages[: self.num_fast]
        cold = store.storages[self.num_fast :]
        fast_used = sum(vs.used_bytes() for vs in fast)
        cold_used = sum(vs.used_bytes() for vs in cold)
        fast_cap = sum(vs.ssd.spec.capacity for vs in fast)
        cold_cap = sum(vs.ssd.spec.capacity for vs in cold)
        bytes_put = max(1, store.bytes_put)
        return {
            "tier_demotions": self.demotions,
            "tier_promotions": self.promotions,
            "tier_promotions_stale": self.promotions_stale,
            "tier_cold_reclaims": self.cold_reclaims,
            "tier_spills": self.spills,
            "tier_fast_reads": self.fast_reads,
            "tier_cold_reads": self.cold_reads,
            "tier_demoted_bytes": self.demoted_bytes,
            "tier_promoted_bytes": self.promoted_bytes,
            "tier_demotion_waf": self.demoted_bytes / bytes_put,
            "tier_fast_used_bytes": fast_used,
            "tier_fast_capacity_bytes": fast_cap,
            "tier_fast_occupancy": fast_used / fast_cap if fast_cap else 0.0,
            "tier_cold_used_bytes": cold_used,
            "tier_cold_capacity_bytes": cold_cap,
            "tier_cold_occupancy": cold_used / cold_cap if cold_cap else 0.0,
            "tier_cold_bytes_written": sum(
                vs.ssd.bytes_written for vs in cold
            ),
        }
