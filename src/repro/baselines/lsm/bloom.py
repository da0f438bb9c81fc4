"""Bloom filters for SSTable point lookups."""

from __future__ import annotations

import math
import zlib


class BloomFilter:
    """A classic k-hash bloom filter over byte keys.

    Sized from the expected element count and target false-positive
    rate, like RocksDB's per-SSTable filters.
    """

    def __init__(self, expected: int, fp_rate: float = 0.01) -> None:
        if expected < 1:
            expected = 1
        if not 0.0 < fp_rate < 1.0:
            raise ValueError(f"fp_rate must be in (0, 1): {fp_rate}")
        ln2 = math.log(2)
        self.bits = max(8, int(-expected * math.log(fp_rate) / (ln2 * ln2)))
        self.hashes = max(1, round((self.bits / expected) * ln2))
        self._bitmap = 0
        self.count = 0

    def _positions(self, key: bytes):
        # Double hashing: h1 + i*h2 reaches k independent positions.
        h1 = zlib.crc32(key)
        h2 = zlib.adler32(key) | 1
        for i in range(self.hashes):
            yield (h1 + i * h2) % self.bits

    def add(self, key: bytes) -> None:
        for pos in self._positions(key):
            self._bitmap |= 1 << pos
        self.count += 1

    def might_contain(self, key: bytes) -> bool:
        return all(self._bitmap >> pos & 1 for pos in self._positions(key))
