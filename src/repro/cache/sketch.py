"""TinyLFU-style frequency sketch (count-min with aging).

A compact popularity estimator: every access increments a few hashed
counters; an estimate reads their minimum.  Counters saturate at a
small ceiling and are periodically halved ("aging"), so the sketch
tracks *recent* frequency — a key that was hot an hour ago decays back
toward zero instead of squatting on its score forever.

Consumers: :class:`repro.cache.read_cache.ReadCache` (a candidate only
displaces a resident whose recent frequency it beats),
:class:`repro.cluster.router.PrismCluster` (spreads reads of hot keys)
and :class:`repro.tiering.temperature.TemperatureTracker` (placement).

Everything is deterministic (CRC32-based hashing, no RNG), so seeded
runs that consult the sketch stay reproducible.
"""

from __future__ import annotations

from zlib import crc32

# Per-row CRC salts: distinct initial CRC values de-correlate the rows
# the way independent hash functions would.
_SALTS = (0x00000000, 0x9E3779B9, 0x85EBCA6B, 0xC2B2AE35)
_COUNTER_LIMIT = 255  # counters are bytes
_HALVE = bytes(value >> 1 for value in range(_COUNTER_LIMIT + 1))


class FrequencySketch:
    """Count-min sketch with conservative update and periodic halving."""

    __slots__ = ("width", "depth", "max_count", "sample_size", "size",
                 "_rows", "_table")

    def __init__(self, width: int = 4096, depth: int = 4,
                 max_count: int = 15, sample_factor: int = 8) -> None:
        if width < 2 or width & (width - 1):
            raise ValueError(f"width must be a power of two >= 2: {width}")
        if not 1 <= depth <= len(_SALTS):
            raise ValueError(f"depth must be in [1, {len(_SALTS)}]: {depth}")
        if not 1 <= max_count <= _COUNTER_LIMIT:
            raise ValueError(f"max_count must be in [1, {_COUNTER_LIMIT}]: {max_count}")
        self.width = width
        self.depth = depth
        self.max_count = max_count
        # Aging period: after this many counted increments, halve every
        # counter.  Scales with width so bigger sketches age slower.
        self.sample_size = width * sample_factor
        self.size = 0
        # One flat table of one-byte counters, row r starting at r * width;
        # _rows holds (r, salt, offset of the row's first counter).
        self._rows = tuple((r, _SALTS[r], r * width) for r in range(depth))
        self._table = bytearray(depth * width)

    def add(self, key: bytes) -> int:
        """Count one access (conservative update: only the minimal
        counters grow, which tightens over-estimates).  Returns what
        :meth:`estimate` would return next."""
        table, mask = self._table, self.width - 1
        slots = [0] * self.depth
        low = _COUNTER_LIMIT
        for r, salt, base in self._rows:
            slot = slots[r] = base + (crc32(key, salt) & mask)
            count = table[slot]
            if count < low:
                low = count
        if low >= self.max_count:
            return low
        for slot in slots:
            if table[slot] == low:
                table[slot] = low + 1
        self.size += 1
        if self.size < self.sample_size:
            return low + 1
        # Aging.  Every counter of this key is now >= low + 1, one is
        # equal to it, and halving is monotone.
        self._table = table.translate(_HALVE)
        self.size >>= 1
        return (low + 1) >> 1

    def estimate(self, key: bytes) -> int:
        """Recent access frequency of ``key`` (never under the truth
        modulo aging; may over-estimate on hash collisions)."""
        table, mask = self._table, self.width - 1
        low = _COUNTER_LIMIT
        for _, salt, base in self._rows:
            count = table[base + (crc32(key, salt) & mask)]
            if count < low:
                low = count
        return low
