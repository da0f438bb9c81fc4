"""Leveled LSM-tree store.

The generic engine behind the paper's LSM comparators: WAL + memtable
→ immutable memtables → L0 (overlapping) → leveled L1..Ln
(non-overlapping), with background flush/compaction whose *virtual*
time creates genuine write stalls: when compaction debt grows, the
foreground is throttled — the paper's core argument against LSM
designs on fast storage (§2.2, §7.2).
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.baselines.interface import KVStore
from repro.baselines.lsm.blockstore import BlockStore
from repro.baselines.lsm.memtable import MemTable
from repro.baselines.lsm.sstable import BLOCK_SIZE, SSTable
from repro.baselines.lsm.wal import WriteAheadLog
from repro.sim.clock import VirtualClock
from repro.sim.resources import VLock
from repro.sim.vthread import VThread
from repro.storage.raid import RAID0
from repro.storage.specs import FLASH_SSD_GEN4_SPEC, NVM_SPEC, DeviceSpec
from repro.storage.ssd import SSDDevice

MB = 1024**2

# Tree shape: compact L0 above this many tables; each level below L1
# holds LEVEL_RATIO times the one above.
L0_LIMIT = 4
LEVEL_RATIO = 10
# CPU cost of merging one byte during compaction.
COMPACTION_CPU_PER_BYTE = 2e-9
# Per-operation CPU costs.  RocksDB-grade software stacks burn a few
# microseconds per op (WAL framing, skiplist walk, per-level probes,
# block decode) — the CPU inefficiency Prism's design targets (§3,
# Lepers et al.).
WRITE_CPU = 1.5e-6
# Calibrated to the paper's measured RocksDB-NVM per-op costs (Table 3:
# ~23 us median on read-only YCSB): Get() walks memtable, versions,
# per-level filters, and the block cache.
READ_CPU = 6.0e-6
# Block-cache miss overhead: pread syscall + checksum + cache fill.
BLOCK_MISS_OVERHEAD = 8e-6
# Decoding/binary-searching a block, paid on every block access.
BLOCK_PARSE_COST = 1.5e-6
# Merging-iterator Next(): key comparisons, version checks.
SCAN_ENTRY_CPU = 2.0e-6
# Sequential scans read ahead this many blocks per IO.
READAHEAD_BLOCKS = 8
# Hold time of the (contended) global block-cache mutex per lookup.
CACHE_LOCK_COST = 1.2e-6


@dataclass
class LSMConfig:
    """Scaled-down RocksDB-style tuning."""

    num_ssds: int = 2
    ssd_spec: DeviceSpec = field(default_factory=lambda: FLASH_SSD_GEN4_SPEC)
    memtable_bytes: int = 1 * MB
    l1_target_bytes: int = 8 * MB
    sstable_target_bytes: int = 2 * MB
    block_cache_bytes: int = 16 * MB
    wal_capacity: int = 64 * MB
    # Foreground/back-pressure: writers stall once compaction debt
    # (background virtual time ahead of the writer) exceeds this.
    max_compaction_lag: float = 2e-3

    def __post_init__(self) -> None:
        if self.num_ssds < 1:
            raise ValueError(f"need at least one SSD: {self.num_ssds}")
        if self.memtable_bytes < 4096:
            raise ValueError(f"memtable too small: {self.memtable_bytes}")


class LSMStore(KVStore):
    """Leveled LSM-tree on RAID-0 flash (subclasses relocate pieces)."""

    def __init__(self, config: Optional[LSMConfig] = None) -> None:
        self.config = config or LSMConfig()
        self.clock = VirtualClock()
        self._make_stores()
        self.memtable = MemTable()
        self.immutables: List[MemTable] = []
        # levels[0] = newest-first overlapping runs; levels[i>0] sorted.
        self.levels: List[List[SSTable]] = [[]]
        self.block_cache: "OrderedDict" = OrderedDict()
        self._cache_blocks = self.config.block_cache_bytes // BLOCK_SIZE
        self._bg = VThread(-1, self.clock, name="lsm-bg", background=True)
        self._write_lock = VLock(name="lsm-write")
        self._cache_lock = VLock(name="lsm-block-cache")
        self._default_thread = VThread(0, self.clock, name="caller")
        self._compact_cursor: Dict[int, bytes] = {}
        self.bytes_put = 0
        self.puts = 0
        self.gets = 0
        self.scans = 0
        self.flushes = 0
        self.compactions = 0
        self.compaction_bytes = 0
        self.stall_time = 0.0

    # ------------------------------------------------------------------
    # device placement (overridden by the NVM-flavoured variants)
    # ------------------------------------------------------------------
    def _make_stores(self) -> None:
        cfg = self.config
        self.ssds = [SSDDevice(cfg.ssd_spec, name=f"ssd{i}") for i in range(cfg.num_ssds)]
        raid = RAID0(self.ssds) if len(self.ssds) > 1 else self.ssds[0]
        # One allocator per device: the WAL takes its region from the
        # same block store the SSTables use, so extents never overlap.
        self.table_store = BlockStore(raid)
        self.wal = WriteAheadLog(self.table_store, cfg.wal_capacity)

    def _thread(self, thread: Optional[VThread]) -> VThread:
        return thread if thread is not None else self._default_thread

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def put(self, key: bytes, value: bytes, thread: Optional[VThread] = None) -> None:
        self._write(key, value, thread)
        self.bytes_put += len(value)
        self.puts += 1

    def delete(self, key: bytes, thread: Optional[VThread] = None) -> bool:
        existed = self.get(key, thread) is not None
        self._write(key, None, thread)
        return existed

    def _write(self, key: bytes, value: Optional[bytes], thread: Optional[VThread]) -> None:
        thread = self._thread(thread)
        self._throttle(thread)
        self._write_lock.acquire(thread)
        try:
            thread.spend(WRITE_CPU)
            self.wal.append(key, value, thread)
            self.memtable.insert(key, value)
        finally:
            self._write_lock.release(thread)
        if self.memtable.approximate_size >= self.config.memtable_bytes:
            self._rotate_memtable(thread.now)

    def _throttle(self, thread: VThread) -> None:
        """Write stall: wait while compaction debt exceeds the budget."""
        debt = self._bg.now - thread.now
        lag = self.config.max_compaction_lag
        if debt > lag:
            stall_until = self._bg.now - lag
            self.stall_time += stall_until - thread.now
            thread.wait_until(stall_until)

    def _rotate_memtable(self, at: float) -> None:
        self.immutables.insert(0, self.memtable)
        self.memtable = MemTable()
        self._flush_oldest_immutable(at)

    def _flush_oldest_immutable(self, at: float) -> None:
        if not self.immutables:
            return
        if self._bg.now < at:
            self._bg.now = at
        imm = self.immutables.pop()
        entries = list(imm.items())
        if entries:
            table, done = SSTable.build(self.table_store, entries, at=self._bg.now)
            self._bg.wait_until(done)
            self.levels[0].insert(0, table)
            self.flushes += 1
        self.wal.truncate()
        self._maybe_compact()

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def _level_target(self, level: int) -> int:
        return self.config.l1_target_bytes * LEVEL_RATIO ** (level - 1)

    def _level_size(self, level: int) -> int:
        return sum(t.size for t in self.levels[level])

    def _maybe_compact(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if len(self.levels[0]) > L0_LIMIT:
                self._compact_l0()
                progressed = True
                continue
            for level in range(1, len(self.levels)):
                if self._level_size(level) > self._level_target(level):
                    self._compact_level(level)
                    progressed = True
                    break

    def _ensure_level(self, level: int) -> None:
        while len(self.levels) <= level:
            self.levels.append([])

    def _merge(
        self, inputs: List[List[Tuple[bytes, Optional[bytes]]]], drop_tombstones: bool
    ) -> List[Tuple[bytes, Optional[bytes]]]:
        """Merge runs; earlier inputs win (newest first)."""
        merged: Dict[bytes, Optional[bytes]] = {}
        for run in reversed(inputs):  # oldest first, newer overwrite
            for key, value in run:
                merged[key] = value
        out = sorted(merged.items())
        if drop_tombstones:
            out = [(k, v) for k, v in out if v is not None]
        return out

    def _run_compaction(
        self,
        upper: List[SSTable],
        lower: List[SSTable],
        target_level: int,
    ) -> None:
        """Merge upper-level tables into ``target_level``."""
        cfg = self.config
        inputs = upper + lower
        read_done = self._bg.now
        total_in = 0
        runs: List[List[Tuple[bytes, Optional[bytes]]]] = []
        for table in inputs:
            _, done = self.table_store.read_async(self._bg.now, table.offset, table.size)
            read_done = max(read_done, done)
            runs.append(table.all_items())
            total_in += table.size
        self._bg.wait_until(read_done)
        self._bg.spend(total_in * COMPACTION_CPU_PER_BYTE)
        bottom = target_level >= len(self.levels) - 1
        merged = self._merge(runs, drop_tombstones=bottom)
        self._ensure_level(target_level)
        new_tables: List[SSTable] = []
        write_done = self._bg.now
        chunk: List[Tuple[bytes, Optional[bytes]]] = []
        chunk_bytes = 0
        out_bytes = 0

        def _emit() -> None:
            nonlocal chunk, chunk_bytes, write_done, out_bytes
            if not chunk:
                return
            table, done = SSTable.build(self.table_store, chunk, at=self._bg.now)
            write_done = max(write_done, done)
            new_tables.append(table)
            out_bytes += table.size
            chunk, chunk_bytes = [], 0

        for key, value in merged:
            chunk.append((key, value))
            chunk_bytes += len(key) + (len(value) if value else 0) + 6
            if chunk_bytes >= cfg.sstable_target_bytes:
                _emit()
        _emit()
        self._bg.wait_until(write_done)
        # Install: remove inputs, insert outputs sorted by min_key.
        upper_set = {t.table_id for t in upper}
        lower_set = {t.table_id for t in lower}
        if upper and upper[0] in self.levels[0]:
            self.levels[0] = [t for t in self.levels[0] if t.table_id not in upper_set]
        else:
            src_level = target_level - 1
            self.levels[src_level] = [
                t for t in self.levels[src_level] if t.table_id not in upper_set
            ]
        kept = [t for t in self.levels[target_level] if t.table_id not in lower_set]
        self.levels[target_level] = sorted(kept + new_tables, key=lambda t: t.min_key)
        for table in inputs:
            table.release()
            self._evict_table_blocks(table)
        self.compactions += 1
        self.compaction_bytes += total_in + out_bytes

    def _compact_l0(self) -> None:
        upper = list(self.levels[0])
        if not upper:
            return
        self._ensure_level(1)
        lo = min(t.min_key for t in upper)
        hi = max(t.max_key for t in upper)
        lower = [t for t in self.levels[1] if t.overlaps(lo, hi)]
        self._run_compaction(upper, lower, target_level=1)

    def _compact_level(self, level: int) -> None:
        tables = self.levels[level]
        if not tables:
            return
        cursor = self._compact_cursor.get(level, b"")
        victim = next((t for t in tables if t.min_key > cursor), tables[0])
        self._compact_cursor[level] = victim.min_key
        self._ensure_level(level + 1)
        lower = [
            t
            for t in self.levels[level + 1]
            if t.overlaps(victim.min_key, victim.max_key)
        ]
        self._run_compaction([victim], lower, target_level=level + 1)

    def _evict_table_blocks(self, table: SSTable) -> None:
        doomed = [k for k in self.block_cache if k[0] == table.table_id]
        for k in doomed:
            del self.block_cache[k]

    def _trim_cache(self) -> None:
        while len(self.block_cache) > self._cache_blocks:
            self.block_cache.popitem(last=False)

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def _cache_gate(self, thread: VThread) -> None:
        """RocksDB's global block-cache mutex: a short serial section
        every read passes through — the multicore ceiling of LSM
        engines (Figure 16)."""
        self._cache_lock.acquire(thread)
        thread.spend(CACHE_LOCK_COST)
        self._cache_lock.release(thread)

    def get(self, key: bytes, thread: Optional[VThread] = None) -> Optional[bytes]:
        thread = self._thread(thread)
        thread.spend(READ_CPU)
        self.gets += 1
        found, value = self.memtable.get(key)
        if found:
            return value
        for imm in self.immutables:
            found, value = imm.get(key)
            if found:
                return value
        self._cache_gate(thread)
        miss = BLOCK_MISS_OVERHEAD
        parse = BLOCK_PARSE_COST
        for table in self.levels[0]:
            found, value = table.get(key, thread, self.block_cache, miss, parse)
            if found:
                self._trim_cache()
                return value
        for level in range(1, len(self.levels)):
            for table in self.levels[level]:
                if table.covers(key):
                    found, value = table.get(key, thread, self.block_cache, miss, parse)
                    if found:
                        self._trim_cache()
                        return value
                    break
        self._trim_cache()
        return None

    # ------------------------------------------------------------------
    # scans: merge every overlapping source, newest wins (§7.2)
    # ------------------------------------------------------------------
    def _sources(
        self, start: bytes, thread: VThread
    ) -> List[Iterator[Tuple[bytes, Optional[bytes]]]]:
        sources: List[Iterator[Tuple[bytes, Optional[bytes]]]] = []
        sources.append(self.memtable.items_from(start))
        for imm in self.immutables:
            sources.append(imm.items_from(start))
        miss = BLOCK_MISS_OVERHEAD
        ra = READAHEAD_BLOCKS
        for table in self.levels[0]:
            sources.append(
                table.items_from(start, thread, self.block_cache, miss, ra)
            )
        for level in range(1, len(self.levels)):
            def _level_iter(tables: List[SSTable]) -> Iterator[Tuple[bytes, Optional[bytes]]]:
                for table in tables:
                    if table.max_key < start:
                        continue
                    yield from table.items_from(
                        start, thread, self.block_cache, miss, ra
                    )
            sources.append(_level_iter(self.levels[level]))
        return sources

    def scan(
        self, start: bytes, count: int, thread: Optional[VThread] = None
    ) -> List[Tuple[bytes, bytes]]:
        thread = self._thread(thread)
        thread.spend(READ_CPU)
        self._cache_gate(thread)
        self.scans += 1
        sources = self._sources(start, thread)
        heap: List[Tuple[bytes, int, Optional[bytes], Iterator]] = []
        for priority, src in enumerate(sources):
            for key, value in src:
                heap.append((key, priority, value, src))
                break
        heapq.heapify(heap)
        out: List[Tuple[bytes, bytes]] = []
        current_key: Optional[bytes] = None
        entry_cpu = SCAN_ENTRY_CPU
        while heap and len(out) < count:
            key, priority, value, src = heapq.heappop(heap)
            thread.spend(entry_cpu)
            if key != current_key:
                current_key = key
                if value is not None:
                    out.append((key, value))
            for nkey, nvalue in src:
                heapq.heappush(heap, (nkey, priority, nvalue, src))
                break
        self._trim_cache()
        return out

    # ------------------------------------------------------------------
    # lifecycle / stats
    # ------------------------------------------------------------------
    def flush(self, thread: Optional[VThread] = None) -> None:
        at = self.clock.now
        if len(self.memtable):
            self.immutables.insert(0, self.memtable)
            self.memtable = MemTable()
        while self.immutables:
            self._flush_oldest_immutable(at)

    def ssd_bytes_written(self) -> int:
        return sum(ssd.bytes_written for ssd in getattr(self, "ssds", []))

    def recovery_time(self) -> float:
        """Replay the WAL (memtable contents only)."""
        device = self.wal.store.device
        bw = getattr(device, "spec", None)
        if bw is not None:
            return self.wal.head / device.spec.read_bandwidth
        return self.wal.head / device.devices[0].spec.read_bandwidth

    def stats(self) -> Dict[str, float]:
        base = super().stats()
        base.update(
            {
                "puts": float(self.puts),
                "gets": float(self.gets),
                "flushes": float(self.flushes),
                "compactions": float(self.compactions),
                "compaction_bytes": float(self.compaction_bytes),
                "stall_time": self.stall_time,
                "levels": float(len(self.levels)),
            }
        )
        return base
