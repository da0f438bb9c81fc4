"""Tier manager: a tiered store's one placement policy.

The :class:`TierManager` decides where every record of a tiered store
goes and carries out each tier move.  ``Prism._attach`` builds it with
the store's fast and cold Value Storages (laid out fast-first) and the
store itself, whose ``_relocate`` is the one way to move records; the
store calls it from a fixed set of hooks (put/delete/read touch, flash
read, reclaim placement, GC survivors, tick/flush drain, stats) and
keeps none of its state.

Spread (the no-tiering baseline) or temperature is decided once, here.
A spread store places new data on every tier and otherwise runs the
paper's flat path; the manager only counts its reads by tier.  Under
the temperature policy it owns the
:class:`~repro.tiering.temperature.TemperatureTracker`, the cold-tier
rotor, the read-triggered promotion queue and the thread that drains
it.  Promotion candidates are queued deduplicated by HSIT index and
tagged with the pointer word observed at read time, so the drain can
detect that a newer client value superseded the cold copy (fresh-key
protection) and drop the stale promotion instead of publishing it.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import TYPE_CHECKING, Deque, List, Optional, Set, Tuple

from repro.core import pointers as ptr
from repro.core.config import TIER_TEMPERATURE
from repro.faults.errors import NoHealthyStorageError
from repro.sim.vthread import VThread
from repro.tiering.temperature import TemperatureTracker

if TYPE_CHECKING:
    from repro.core.prism import Prism
    from repro.core.value_storage import ValueStorage

# A queued promotion: (hsit_idx, expected pointer word at enqueue time,
# value bytes read from the cold tier).
PendingPromotion = Tuple[int, int, bytes]

# Queued promotions one drain takes.
PROMOTION_BATCH = 64


class TierManager:
    """Placement decisions, tier moves, temperature state, tier counts."""

    def __init__(
        self, store: Prism, fast: List[ValueStorage], cold: List[ValueStorage]
    ) -> None:
        cfg = store.config
        self.store = store
        self.fast = fast
        self.cold = cold
        self.temperature = cfg.tier_policy == TIER_TEMPERATURE
        # Where new data lands: the fast tier only under the temperature
        # policy (reclaim demotes its cold share explicitly), every tier
        # under spread.
        self.placement = fast if self.temperature else fast + cold
        self.fast_headroom = cfg.tier_fast_headroom
        self.gc_free_threshold = cfg.gc_free_threshold
        # Counts surfaced through stats().
        self.demotions = 0  # records moved fast -> cold
        self.promotions = 0  # records moved cold -> fast
        self.promotions_stale = 0  # dropped: key superseded since read
        self.cold_reclaims = 0  # records placed cold straight from PWB
        self.spills = 0  # hot records forced cold: fast tier had no room
        self.fast_reads = 0
        self.cold_reads = 0
        self.demoted_bytes = 0
        self.promoted_bytes = 0
        # Temperature state.  A spread store reads none of it, so it
        # keeps none.
        self.tracker: Optional[TemperatureTracker] = None
        self.pending: Optional[Deque[PendingPromotion]] = None
        self.bg: Optional[VThread] = None
        if self.temperature:
            self.tracker = TemperatureTracker(
                hot_threshold=cfg.tier_hot_threshold,
                promote_threshold=cfg.tier_promote_threshold,
                recency_window=cfg.tier_recency_window,
            )
            # The promotion queue, deduplicated by HSIT index.
            self.pending = deque()
            self._queued: Set[int] = set()
            self.bg = VThread(-4, store.clock, name="bg-tier", background=True)
            self._rr_cold = itertools.count()

    # -- destinations ---------------------------------------------------
    def _cold_target(self, at: float) -> Optional[ValueStorage]:
        """A healthy cold Value Storage with free space, or None."""
        store = self.store
        cold = [vs for vs in store._alive(self.cold) if vs.free_chunks > 0]
        if not cold:
            return None
        return store._idle_else_least_loaded(cold, next(self._rr_cold), at)

    def _promotion_target(self) -> Optional[ValueStorage]:
        """A healthy fast Value Storage with promotion headroom.

        None when every fast storage is dead or below the headroom
        floor — promoting into a full fast tier would just thrash
        against the next demotion round.
        """
        fast = [
            vs
            for vs in self.store._alive(self.fast)
            if vs.free_fraction() > self.fast_headroom
        ]
        return max(fast, key=lambda s: s.free_chunks, default=None)

    def _fast_pressure(self) -> bool:
        """Is the fast tier close enough to its GC threshold that
        placement should stop honoring recency protection?  Placing
        borderline records cold now beats GC demoting them moments
        later (one write instead of two)."""
        free = sum(vs.free_chunks for vs in self.fast)
        total = sum(vs.num_chunks for vs in self.fast)
        return free / total < max(0.25, 2 * self.gc_free_threshold)

    @staticmethod
    def _split(entries: list, stays) -> Tuple[list, list]:
        """``(keep, leave)`` of relocation entries, by HSIT index."""
        keep, leave = [], []
        for entry in entries:
            (keep if stays(entry[0]) else leave).append(entry)
        return keep, leave

    # -- the one tier mover ---------------------------------------------
    def _move(
        self,
        dest: ValueStorage,
        batch: list,
        bg: VThread,
        label: str,
        counter: Optional[str] = None,
        start_at: Optional[float] = None,
        **fields: object,
    ) -> Optional[str]:
        """Relocate ``batch`` to ``dest`` with the store's primitive.

        Once the batch has landed it is counted in ``self.<counter>``;
        a GC or drain move (``start_at`` given) also adds its bytes and
        logs the event its label names (``tier.promote`` →
        ``tier_promote``).  Then GC follows the batch to ``dest``.
        Returns None or the phase at which the batch failed.
        """
        store = self.store
        phase = store._relocate(dest, batch, bg, label)
        if phase is not None:
            return phase
        if counter is not None:
            records = len(batch)
            setattr(self, counter, getattr(self, counter) + records)
            if start_at is not None:
                nbytes = sum(len(entry[1]) for entry in batch)
                if counter == "promotions":
                    self.promoted_bytes += nbytes
                else:
                    self.demoted_bytes += nbytes
                store.events.emit(
                    start_at, label.replace(".", "_"), **fields,
                    dest_vs=dest.vs_id, records=records, bytes=nbytes,
                )
        store._maybe_gc(dest, bg.now)
        return None

    # -- hooks (temperature policy) -------------------------------------
    def place_reclaimed(self, live: list, bg: VThread) -> Optional[str]:
        """Place and move one reclaim's survivors; returns None or the
        phase at which a batch failed.

        Reclaim is the first placement decision: records that are
        neither frequent nor recent skip the fast tier and land cold —
        PrismDB's tiered compaction, applied at PWB drain time.
        """
        tracker = self.tracker
        pressure = self._fast_pressure()
        hot, cold = self._split(live, lambda idx: tracker.is_hot(idx, pressure))
        if cold:
            dest = self._cold_target(bg.now)
            if dest is None:
                hot = live  # no cold capacity left: everything stays fast
            else:
                phase = self._move(dest, cold, bg, "tier.demote", "cold_reclaims")
                if phase is not None:
                    return phase
        if not hot:
            return None
        store = self.store
        try:
            dest = store._pick_storage(bg.now)
        except NoHealthyStorageError:
            return "write"
        label, counter = "reclaim", None
        if not dest.fits(hot):
            # Hard pressure: the fast tier cannot hold its own hot set.
            # Take the least-loaded fast storage that fits the batch,
            # else spill it cold rather than wedge the PWB; re-access
            # promotes survivors back once GC frees fast chunks.
            fits = [vs for vs in store._placement_storages() if vs.fits(hot)]
            if fits:
                dest = min(fits, key=lambda s: s.ring.inflight_at(bg.now))
            else:
                spill = self._cold_target(bg.now)
                if spill is not None:
                    dest, label, counter = spill, "tier.demote", "spills"
        return self._move(dest, hot, bg, label, counter)

    def gc_survivors(
        self, vs: ValueStorage, moves: list, bg: VThread, start_at: float
    ) -> Optional[list]:
        """Move the GC survivors of ``vs`` that belong on the other tier.

        Cold-tier GC promotes survivors that warmed back up; fast-tier
        GC demotes along a ladder: the emptier the storage, the more
        the recency/frequency protections relax — at the bottom rung
        everything movable leaves, or GC livelocks rewriting hot data
        into a tier with no room for it.  Returns the moves that stay
        in ``vs`` for the local rewrite, or None when the cross-tier
        batch failed (it was contained: every un-moved record is still
        valid in place) and the whole round must abort.
        """
        tracker = self.tracker
        promote = vs in self.cold
        free_frac = vs.free_fraction()
        thr = self.gc_free_threshold
        if promote:
            keep, batch = self._split(moves, lambda i: not tracker.should_promote(i))
        elif free_frac < thr * 0.25:
            keep, batch = [], moves
        elif free_frac < thr * 0.5:
            hot = tracker.hot_threshold
            keep, batch = self._split(moves, lambda i: tracker.frequency(i) >= hot)
        else:
            pressure = self._fast_pressure()
            keep, batch = self._split(moves, lambda i: tracker.is_hot(i, pressure))
        if not batch:
            return moves
        if promote:
            dest = self._promotion_target()
            label, counter, fields = "tier.promote", "promotions", {"trigger": "gc"}
        else:
            dest = self._cold_target(bg.now)
            label, counter, fields = "tier.demote", "demotions", {}
        if dest is None:
            # Cold pool full/dead, or no fast headroom: rewrite locally.
            return moves
        if self._move(
            dest, batch, bg, label, counter, start_at, **fields, src_vs=vs.vs_id
        ) is not None:
            return None
        return keep

    def enqueue_promotion(self, idx: int, expected_word: int, value: bytes) -> None:
        """Remember a cold-read value for background promotion."""
        if idx in self._queued:
            return
        self._queued.add(idx)
        self.pending.append((idx, expected_word, value))

    def drain(self) -> None:
        """Background promotion: republish warmed-up cold values fast.

        Takes up to :data:`PROMOTION_BATCH` queued reads and runs on the
        tier thread, so foreground requests only feel it through device
        contention.  Fresh-key protection: every queued entry carries
        the pointer word observed at read time; an entry whose word has
        changed since (client put, delete, or a GC relocation) is
        dropped — promotion never clobbers a newer value.  The drain
        runs synchronously in code, so nothing can intervene between
        this check and the publish.
        """
        store = self.store
        bg = self.bg
        if bg.now < store.clock.now:
            bg.now = store.clock.now
        start_at = bg.now
        pending = self.pending
        taken = [
            pending.popleft() for _ in range(min(PROMOTION_BATCH, len(pending)))
        ]
        self._queued.difference_update(entry[0] for entry in taken)
        hsit = store.hsit
        fresh = []
        for idx, expected, value in taken:
            if ptr.clear_dirty(hsit.location_word(idx)) != expected:
                self.promotions_stale += 1
                continue
            old = ptr.decode(expected)
            fresh.append(
                (idx, value, store.storages[old.vs_id], old.chunk_id, old.vs_offset)
            )
        if not fresh:
            return
        dest = self._promotion_target()
        if dest is not None:  # else no fast headroom; the cold copies stay valid
            self._move(
                dest, fresh, bg, "tier.promote", "promotions", start_at, trigger="read"
            )

    # -- hooks (both policies) ------------------------------------------
    def flash_read(
        self, idx: int, vs: ValueStorage, loc: ptr.Location, value: bytes
    ) -> None:
        """Count a Value Storage read by tier; under the temperature
        policy a cold read of a record that warmed up queues the value
        for promotion, tagged with the word it was read under."""
        if vs not in self.cold:
            self.fast_reads += 1
            return
        self.cold_reads += 1
        if self.temperature and self.tracker.should_promote(idx):
            self.enqueue_promotion(
                idx, ptr.encode_vs(loc.vs_id, loc.chunk_id, loc.vs_offset), value
            )

    def stats(self) -> dict:
        """The ``tier_*`` keys merged into ``Prism.stats()``."""
        fast_used = sum(vs.used_bytes() for vs in self.fast)
        cold_used = sum(vs.used_bytes() for vs in self.cold)
        fast_cap = sum(vs.ssd.spec.capacity for vs in self.fast)
        cold_cap = sum(vs.ssd.spec.capacity for vs in self.cold)
        bytes_put = max(1, self.store.bytes_put)
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
                vs.ssd.bytes_written for vs in self.cold
            ),
        }
