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

Row ``r`` hashes a key with ``crc32(key, _SALTS[r])``.  CRC-32 is
affine in its initial value, so that equals ``crc32(key) ^ delta``,
where ``delta = crc32(bytes(n), salt) ^ crc32(bytes(n))`` depends only
on the key's length ``n``: a key costs one ``crc32``, whatever the
depth, and each row's delta is computed once per key length.
"""

from __future__ import annotations

from typing import Tuple
from zlib import crc32

# Per-row CRC salts: distinct initial CRC values de-correlate the rows
# the way independent hash functions would.  The first is 0, so row 0
# hashes with crc32(key) itself.
_SALTS = (0x00000000, 0x9E3779B9, 0x85EBCA6B, 0xC2B2AE35)
_COUNTER_LIMIT = 255  # counters are bytes
_HALVE = bytes(value >> 1 for value in range(_COUNTER_LIMIT + 1))

# (row, salt delta under the width mask, offset of the row's first
# counter) for every row
_Rows = Tuple[Tuple[int, int, int], ...]


class _RowsByLength(dict):
    """Key length -> its :data:`_Rows`, computed the first time a key of
    that length is hashed."""

    def __init__(self, width: int, depth: int) -> None:
        super().__init__()
        self.width = width
        self.depth = depth

    def __missing__(self, n: int) -> _Rows:
        zeros = bytes(n)
        plain = crc32(zeros)
        mask = self.width - 1
        rows = self[n] = tuple(
            (r, (crc32(zeros, _SALTS[r]) ^ plain) & mask, r * self.width)
            for r in range(self.depth)
        )
        return rows


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
        # One flat table of one-byte counters, row r starting at r * width.
        self._rows = _RowsByLength(width, depth)
        self._table = bytearray(depth * width)

    def add(self, key: bytes) -> int:
        """Count one access (conservative update: only the minimal
        counters grow, which tightens over-estimates).  Returns what
        :meth:`estimate` would return next."""
        table = self._table
        crc = crc32(key) & (self.width - 1)
        slots = [0] * self.depth
        low = _COUNTER_LIMIT
        for r, delta, base in self._rows[len(key)]:
            slot = slots[r] = base + (crc ^ delta)
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
        table = self._table
        crc = crc32(key) & (self.width - 1)
        low = _COUNTER_LIMIT
        for _, delta, base in self._rows[len(key)]:
            count = table[base + (crc ^ delta)]
            if count < low:
                low = count
        return low
