"""In-memory write buffer of an LSM tree."""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterator, List, Optional, Tuple

# Deletions are recorded as tombstones that shadow older versions
# until compaction drops them.
TOMBSTONE: Optional[bytes] = None


class MemTable:
    """A sorted write buffer (skiplist stand-in).

    Values of ``TOMBSTONE`` (None) mark deletions.  ``approximate_size``
    counts key and value bytes like RocksDB's arena accounting.
    """

    def __init__(self) -> None:
        self._keys: List[bytes] = []
        self._data: dict = {}
        self.approximate_size = 0

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: bytes) -> bool:
        return key in self._data

    def insert(self, key: bytes, value: Optional[bytes]) -> None:
        if key not in self._data:
            insort(self._keys, key)
            self.approximate_size += len(key)
        else:
            old = self._data[key]
            self.approximate_size -= len(old) if old is not None else 0
        self._data[key] = value
        self.approximate_size += len(value) if value is not None else 0

    def get(self, key: bytes) -> Tuple[bool, Optional[bytes]]:
        """Returns (found, value); value None means tombstone."""
        if key in self._data:
            return True, self._data[key]
        return False, None

    def items(self) -> Iterator[Tuple[bytes, Optional[bytes]]]:
        for key in self._keys:
            yield key, self._data[key]

    def items_from(self, start: bytes) -> Iterator[Tuple[bytes, Optional[bytes]]]:
        idx = bisect_left(self._keys, start)
        for key in self._keys[idx:]:
            yield key, self._data[key]

    def extract_range(
        self, start: bytes, end: Optional[bytes]
    ) -> List[Tuple[bytes, Optional[bytes]]]:
        """Remove and return entries with start <= key < end.

        Used by MatrixKV's column compaction to drain one key column
        out of the matrix container.
        """
        lo = bisect_left(self._keys, start)
        hi = bisect_left(self._keys, end) if end is not None else len(self._keys)
        taken = []
        for key in self._keys[lo:hi]:
            value = self._data.pop(key)
            self.approximate_size -= len(key) + (len(value) if value else 0)
            taken.append((key, value))
        del self._keys[lo:hi]
        return taken
