"""Size-bounded DRAM value cache with TinyLFU admission.

Sits in front of the whole read path: :meth:`repro.core.prism.Prism.get`
consults it before touching the index, so a hit costs one DRAM read
instead of index lookup + HSIT read + PWB/Value-Storage fetch.  Misses
pass through untouched and the fetched value is *offered* to the cache,
which admits it only when its recent frequency (count-min sketch,
:class:`repro.cache.sketch.FrequencySketch`) beats the eviction
victim's — a plain LRU would let YCSB-D "latest" churn or a scan spray
flush the resident celebrity set; TinyLFU admission rejects those
one-hit wonders at the door.

Coherence is synchronous: every publish that changes or moves a key's
authoritative copy invalidates the cached entry inside the same
operation, before the mutation acknowledges, so the cache can never
serve a value the store has superseded.  Put, delete and repair do it
through ``Prism._supersede_word``; every move out of Value Storage (GC,
tiering, the SVC's chain write-back, recovery's flush of a healed
record) through ``Prism._relocate``.

Everything is modeled in virtual time: hits charge the DRAM device's
read latency/bandwidth, admissions charge the copy-in write, and
bookkeeping (sketch, LRU order) is treated as free CPU the same way
the SVC's list maintenance is.  With the cache disabled the store
never constructs one — runs are bit-identical to a build without this
module.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

from repro.cache.sketch import FrequencySketch
from repro.sim.vthread import VThread
from repro.storage.dram import DRAMDevice


class _Entry:
    """One cached value."""

    __slots__ = ("key", "hsit_idx", "value", "charged")

    def __init__(self, key: bytes, hsit_idx: int, value: bytes) -> None:
        self.key = key
        self.hsit_idx = hsit_idx
        self.value = value
        self.charged = len(value)


class ReadCache:
    """LRU-ordered value cache guarded by a TinyLFU admission sketch."""

    def __init__(self, dram: DRAMDevice, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"read cache capacity must be positive: {capacity}")
        self.dram = dram
        self.capacity = capacity
        self.sketch = FrequencySketch(width=4096)
        # LRU order: oldest first, most recently used last.
        self.entries: "OrderedDict[bytes, _Entry]" = OrderedDict()
        # HSIT index -> cached key, so relocation publishes (which know
        # only the index) can invalidate synchronously.
        self._by_idx: Dict[int, bytes] = {}
        self.used = 0
        self.hits = 0
        self.misses = 0
        self.admissions = 0
        self.rejections = 0
        self.evictions = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def lookup(self, key: bytes, thread: Optional[VThread] = None) -> Optional[bytes]:
        """Serve ``key`` from DRAM, or None on a miss.

        Every lookup — hit or miss — feeds the frequency sketch; that
        is how a repeatedly missed key earns admission.
        """
        self.sketch.add(key)
        entry = self.entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.entries.move_to_end(key)
        self.dram.read(thread, entry.charged)
        self.hits += 1
        return entry.value

    def admit(
        self,
        key: bytes,
        hsit_idx: int,
        value: bytes,
        thread: Optional[VThread] = None,
    ) -> bool:
        """Offer a freshly fetched value; admission-controlled.

        The candidate displaces LRU victims only while its sketch
        frequency strictly beats each victim's — ties keep the
        resident, so a one-hit wonder (frequency 1) can never push out
        an established entry.  Returns True when cached.
        """
        charged = len(value)
        if charged > self.capacity:
            self.rejections += 1
            return False
        old = self.entries.get(key)
        if old is not None:
            # Refresh in place (e.g. re-read after an invalidation that
            # raced a concurrent fill in the same virtual instant).
            self._remove(old)
        freq = self.sketch.estimate(key)
        entries = self.entries
        while self.used + charged > self.capacity:
            victim = next(iter(entries.values()))
            if self.sketch.estimate(victim.key) >= freq:
                self.rejections += 1
                return False
            self._remove(victim)
            self.evictions += 1
        entry = _Entry(key, hsit_idx, value)
        entries[key] = entry
        self._by_idx[hsit_idx] = key
        self.used += charged
        self.dram.write(thread, charged)
        self.admissions += 1
        return True

    # ------------------------------------------------------------------
    # coherence
    # ------------------------------------------------------------------
    def invalidate(self, key: bytes) -> bool:
        """Drop ``key``'s cached copy (its value changed or moved)."""
        entry = self.entries.get(key)
        if entry is None:
            return False
        self._remove(entry)
        self.invalidations += 1
        return True

    def invalidate_idx(self, hsit_idx: int) -> bool:
        """Drop whatever cached entry points at ``hsit_idx`` — the hook
        for publish paths (put/delete supersede, GC relocation) that
        know the HSIT slot but not the key."""
        key = self._by_idx.get(hsit_idx)
        if key is None:
            return False
        return self.invalidate(key)

    def _remove(self, entry: _Entry) -> None:
        del self.entries[entry.key]
        if self._by_idx.get(entry.hsit_idx) == entry.key:
            del self._by_idx[entry.hsit_idx]
        self.used -= entry.charged

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key: bytes) -> bool:
        return key in self.entries

    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "rc_hits": float(self.hits),
            "rc_misses": float(self.misses),
            "rc_hit_ratio": self.hit_ratio(),
            "rc_admissions": float(self.admissions),
            "rc_rejections": float(self.rejections),
            "rc_evictions": float(self.evictions),
            "rc_invalidations": float(self.invalidations),
            "rc_used_bytes": float(self.used),
            "rc_entries": float(len(self.entries)),
        }
