"""Sorted String Tables.

On-media layout: a sequence of 4 KB data blocks, each packing
``[klen(2)][vlen(4)][key][value]`` records (vlen ``0xFFFFFFFF`` marks a
tombstone).  The block index (first key of each block) and the bloom
filter stay in memory, as LSM engines keep them cache-resident; point
reads therefore cost exactly one block IO.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterator, List, Optional, Tuple

from repro.baselines.lsm.blockstore import BlockStore
from repro.baselines.lsm.bloom import BloomFilter
from repro.sim.vthread import VThread

_TOMBSTONE_LEN = 0xFFFFFFFF
BLOCK_SIZE = 4096


def _pack_record(key: bytes, value: Optional[bytes]) -> bytes:
    vlen = _TOMBSTONE_LEN if value is None else len(value)
    return (
        len(key).to_bytes(2, "little")
        + vlen.to_bytes(4, "little")
        + key
        + (value or b"")
    )


def _unpack_block(data: bytes) -> Iterator[Tuple[bytes, Optional[bytes]]]:
    pos = 0
    n = len(data)
    while pos + 6 <= n:
        klen = int.from_bytes(data[pos : pos + 2], "little")
        vlen = int.from_bytes(data[pos + 2 : pos + 6], "little")
        if klen == 0:
            return  # padding
        pos += 6
        key = data[pos : pos + klen]
        pos += klen
        if vlen == _TOMBSTONE_LEN:
            yield bytes(key), None
        else:
            yield bytes(key), bytes(data[pos : pos + vlen])
            pos += vlen


class SSTable:
    """One immutable sorted run on a block store."""

    _next_id = 0

    def __init__(
        self,
        store: BlockStore,
        offset: int,
        size: int,
        first_keys: List[bytes],
        bloom: BloomFilter,
        min_key: bytes,
        max_key: bytes,
        entry_count: int,
    ) -> None:
        self.table_id = SSTable._next_id
        SSTable._next_id += 1
        self.store = store
        self.offset = offset
        self.size = size
        self.first_keys = first_keys  # block index: first key per block
        self.bloom = bloom
        self.min_key = min_key
        self.max_key = max_key
        self.entry_count = entry_count
        self.live_entries = entry_count  # decremented by upper layers

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        store: BlockStore,
        entries: List[Tuple[bytes, Optional[bytes]]],
        at: Optional[float] = None,
        thread: Optional[VThread] = None,
    ) -> Tuple["SSTable", float]:
        """Serialize sorted entries; returns (table, io_completion_time).

        Pass ``thread`` for a synchronous (blocking) build or ``at``
        for a background-timed one.
        """
        if not entries:
            raise ValueError("cannot build an empty SSTable")
        blocks: List[bytes] = []
        first_keys: List[bytes] = []
        bloom = BloomFilter(len(entries))
        current = bytearray()
        current_first: Optional[bytes] = None
        for key, value in entries:
            record = _pack_record(key, value)
            if current and len(current) + len(record) > BLOCK_SIZE:
                blocks.append(bytes(current) + b"\0" * (BLOCK_SIZE - len(current)))
                first_keys.append(current_first)  # type: ignore[arg-type]
                current = bytearray()
                current_first = None
            if current_first is None:
                current_first = key
            current += record
            bloom.add(key)
        if current:
            pad = BLOCK_SIZE - len(current) % BLOCK_SIZE
            if pad == BLOCK_SIZE:
                pad = 0
            blocks.append(bytes(current) + b"\0" * pad)
            first_keys.append(current_first)  # type: ignore[arg-type]
        payload = b"".join(blocks)
        offset = store.alloc(len(payload))
        if thread is not None:
            store.write(thread, offset, payload)
            done = thread.now
        else:
            done = store.write_async(at if at is not None else 0.0, offset, payload)
        table = cls(
            store,
            offset,
            len(payload),
            first_keys,
            bloom,
            entries[0][0],
            entries[-1][0],
            len(entries),
        )
        return table, done

    def release(self) -> None:
        """Give the extent back (after compaction superseded it)."""
        self.store.free(self.offset, self.size)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def overlaps(self, min_key: bytes, max_key: bytes) -> bool:
        return not (self.max_key < min_key or max_key < self.min_key)

    def covers(self, key: bytes) -> bool:
        return self.min_key <= key <= self.max_key

    def _block_for(self, key: bytes) -> Optional[int]:
        idx = bisect_right(self.first_keys, key) - 1
        return idx if idx >= 0 else None

    def read_block(
        self,
        block_no: int,
        thread: Optional[VThread],
        block_cache: Optional[Dict] = None,
        miss_cost: float = 0.0,
        parse_cost: float = 0.0,
    ) -> bytes:
        """One block, via the (optional) shared block cache.

        ``miss_cost`` is the engine's per-block software overhead on a
        cache miss (pread syscall, checksum, copy into the cache);
        ``parse_cost`` (binary search + decode) is paid on every access.
        """
        if thread is not None and parse_cost:
            thread.spend(parse_cost)
        cache_key = (self.table_id, block_no)
        if block_cache is not None and cache_key in block_cache:
            block_cache.move_to_end(cache_key)
            return block_cache[cache_key]
        if thread is not None and miss_cost:
            thread.spend(miss_cost)
        data = self.store.read(
            thread, self.offset + block_no * BLOCK_SIZE, BLOCK_SIZE
        )
        if block_cache is not None:
            block_cache[cache_key] = data
        return data

    def read_block_span(
        self,
        block_no: int,
        span: int,
        thread: Optional[VThread],
        block_cache: Optional[Dict] = None,
        miss_cost: float = 0.0,
    ) -> bytes:
        """Readahead: fetch ``span`` blocks in one IO (sequential scans)."""
        span = min(span, len(self.first_keys) - block_no)
        cached = (
            block_cache is not None
            and all((self.table_id, b) in block_cache for b in range(block_no, block_no + span))
        )
        if cached:
            parts = []
            for b in range(block_no, block_no + span):
                block_cache.move_to_end((self.table_id, b))
                parts.append(block_cache[(self.table_id, b)])
            return b"".join(parts)
        if thread is not None and miss_cost:
            thread.spend(miss_cost)
        data = self.store.read(
            thread, self.offset + block_no * BLOCK_SIZE, span * BLOCK_SIZE
        )
        if block_cache is not None:
            for i in range(span):
                block_cache[(self.table_id, block_no + i)] = data[
                    i * BLOCK_SIZE : (i + 1) * BLOCK_SIZE
                ]
        return data

    def get(
        self,
        key: bytes,
        thread: Optional[VThread] = None,
        block_cache: Optional[Dict] = None,
        miss_cost: float = 0.0,
        parse_cost: float = 0.0,
    ) -> Tuple[bool, Optional[bytes]]:
        """Point lookup: (found, value-or-tombstone)."""
        if not self.covers(key):
            return False, None
        if thread is not None:
            thread.spend(0.2e-6)  # bloom probe + index binary search
        if not self.bloom.might_contain(key):
            return False, None
        block_no = self._block_for(key)
        if block_no is None:
            return False, None
        block = self.read_block(block_no, thread, block_cache, miss_cost, parse_cost)
        for k, v in _unpack_block(block):
            if k == key:
                return True, v
            if k > key:
                break
        return False, None

    def items_from(
        self,
        start: bytes,
        thread: Optional[VThread] = None,
        block_cache: Optional[Dict] = None,
        miss_cost: float = 0.0,
        readahead: int = 1,
    ) -> Iterator[Tuple[bytes, Optional[bytes]]]:
        """Ordered iteration beginning at ``start`` (with readahead)."""
        first = self._block_for(start)
        if first is None:
            first = 0
        readahead = max(1, readahead)
        block_no = first
        total = len(self.first_keys)
        while block_no < total:
            span = min(readahead, total - block_no)
            data = self.read_block_span(
                block_no, span, thread, block_cache, miss_cost
            )
            for i in range(span):
                sub = data[i * BLOCK_SIZE : (i + 1) * BLOCK_SIZE]
                for k, v in _unpack_block(sub):
                    if k >= start:
                        yield k, v
            block_no += span

    def all_items(self) -> List[Tuple[bytes, Optional[bytes]]]:
        """Bulk read for compaction (untimed; caller charges bandwidth)."""
        out: List[Tuple[bytes, Optional[bytes]]] = []
        for block_no in range(len(self.first_keys)):
            data = self.store.read(
                None, self.offset + block_no * BLOCK_SIZE, BLOCK_SIZE
            )
            out.extend(_unpack_block(data))
        return out
